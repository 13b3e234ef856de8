"""COO — coordinate format.

Stores ``(row, col, value)`` for every non-zero: 3*nnz elements, the
largest O(nnz) footprint (Table II) but also the most parallel-friendly
layout — every element is independent, so there is no per-row SIMD
remainder.  That is why the paper's Fig. 4 shows COO overtaking CSR as
``vdim`` grows, and why the scheduler picks COO for mnist and sector
(Table VI).

Triples are kept row-major sorted (canonical form), which makes row
extraction a binary search and conversion to CSR free.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    MatrixFormat,
    SparseVector,
    validate_coo,
)
from repro.perf.counters import OpCounter


class COOMatrix(MatrixFormat):
    """Coordinate-format matrix with row-major-sorted triples."""

    name = "COO"

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        rows, cols, values = validate_coo(rows, cols, values, shape)
        self.rows = rows
        self.cols = cols
        self.values = values
        self.shape = (int(shape[0]), int(shape[1]))
        self._sanitize_check()

    # -- construction -------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "COOMatrix":
        return cls(rows, cols, values, shape)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows.copy(), self.cols.copy(), self.values.copy()

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def storage_elements(self) -> int:
        return 3 * self.nnz

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.rows, self.cols, self.values)

    # -- kernels ------------------------------------------------------
    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects x of shape ({self.shape[1]},), got {x.shape}"
            )
        if self.nnz:
            y = np.bincount(
                self.rows,
                weights=self.values * x[self.cols],
                minlength=self.shape[0],
            ).astype(VALUE_DTYPE, copy=False)
        else:
            y = np.zeros(self.shape[0], dtype=VALUE_DTYPE)
        if counter is not None:
            counter.add_flops(2 * self.nnz)
            counter.add_read(
                self.rows.nbytes
                + self.cols.nbytes
                + self.values.nbytes
                + self.nnz * x.itemsize
            )
            counter.add_write(y.nbytes)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # One sweep over the triples per column block: the row/col index
        # streams stay cache-resident across columns and the output is
        # allocated once.  Per column the gather, multiply, and bincount
        # are exactly matvec's, so columns are bit-for-bit identical
        # (bincount's accumulation order depends only on self.rows).
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m = self.shape[0]
        # (k, M) C-order accumulator returned transposed: each bincount
        # result lands in a contiguous row instead of a strided column.
        yT = np.zeros((k, m), dtype=VALUE_DTYPE)
        y = yT.T
        if self.nnz and k:
            for c in range(k):  # repro: noqa RDL001 — trip count is batch_k; each pass is one vectorised bincount
                yT[c] = np.bincount(
                    self.rows,
                    weights=self.values * V[:, c].take(self.cols),
                    minlength=m,
                )
        if counter is not None:
            counter.add_spmm(k)
            counter.add_flops(2 * self.nnz * k)
            counter.add_read(
                self.rows.nbytes
                + self.cols.nbytes
                + self.values.nbytes  # triple streams: once per sweep
                + self.nnz * V.itemsize * k
            )
            counter.add_write(y.nbytes)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        lo = int(np.searchsorted(self.rows, i, side="left"))
        hi = int(np.searchsorted(self.rows, i, side="right"))
        return SparseVector._trusted(
            self.cols[lo:hi], self.values[lo:hi], self.shape[1]
        )

    def row_norms_sq(self) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(out, self.rows, self.values * self.values)
        return out
