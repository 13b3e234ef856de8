"""CSR — compressed sparse row.

The format LIBSVM fixes for every dataset.  Stores ``(values, col_idx)``
of length nnz plus a row-pointer array of length M+1.  Work per SMSV is
O(nnz), but on fixed-width SIMD machines the *effective* work is

    sum_i ceil(dim_i / W) * W

because each row is vectorised independently — the source of the
``vdim`` sensitivity in Fig. 4.  The NumPy kernel below is O(nnz) and
lane-oblivious; the lane effect is modelled faithfully by
:mod:`repro.hardware.vectormachine`, which counts exactly the padded
per-row vector ops above (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    VALUE_ITEMSIZE,
    MatrixFormat,
    SparseVector,
    validate_coo,
)
from repro.perf.counters import OpCounter


class CSRMatrix(MatrixFormat):
    """Compressed sparse row matrix.

    Attributes
    ----------
    values:
        Non-zero values in row-major order, length nnz.
    col_idx:
        Column index of each value, length nnz.
    row_ptr:
        Length M+1; row ``i`` occupies ``values[row_ptr[i]:row_ptr[i+1]]``.
    """

    name = "CSR"

    def __init__(
        self,
        values: np.ndarray,
        col_idx: np.ndarray,
        row_ptr: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.values = np.asarray(values, dtype=VALUE_DTYPE)
        self.col_idx = np.asarray(col_idx, dtype=INDEX_DTYPE)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        m, n = shape
        if self.row_ptr.shape != (m + 1,):
            raise ValueError("row_ptr must have length M+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.values.shape[0]:
            raise ValueError("row_ptr endpoints inconsistent with values")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.values.shape != self.col_idx.shape:
            raise ValueError("values and col_idx must have equal length")
        self.shape = (int(m), int(n))
        self._sanitize_check()

    # -- construction -------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m = shape[0]
        counts = np.bincount(rows, minlength=m)
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        return cls(values, cols, row_ptr, shape)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE),
            np.diff(self.row_ptr).astype(np.int64),
        )
        return rows, self.col_idx.copy(), self.values.copy()

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def storage_elements(self) -> int:
        # data + indices (nnz each) + ptr (M + 1); Table II's "CSR max"
        # of 2MN + M is this expression at nnz = M*N.
        return 2 * self.nnz + self.shape[0] + 1

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.values, self.col_idx, self.row_ptr)

    @property
    def row_lengths(self) -> np.ndarray:
        """``dim_i`` for every row — the quantity behind mdim/adim/vdim."""
        return np.diff(self.row_ptr)

    # -- kernels ------------------------------------------------------
    def _sweep_cost(self, k: int) -> Tuple[int, int]:
        return 2 * self.nnz * k, (
            self.values.nbytes
            + self.col_idx.nbytes
            + self.row_ptr.nbytes  # matrix streams: once per sweep
            + self.nnz * VALUE_ITEMSIZE * k  # gathered x / V elements
        )

    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects x of shape ({self.shape[1]},), got {x.shape}"
            )
        m = self.shape[0]
        y = np.zeros(m, dtype=VALUE_DTYPE)
        if self.nnz:
            prod = self.values * x[self.col_idx]
            starts = self.row_ptr[:-1]
            nonempty = starts < self.row_ptr[1:]
            if np.any(nonempty):
                # reduceat over the starts of non-empty rows: consecutive
                # starts delimit exactly each row's segment (empty rows in
                # between contribute no products, so skipping their starts
                # is safe).
                segs = np.add.reduceat(prod, starts[nonempty])
                y[nonempty] = segs
        self._count_sweep(counter, 1, spmm=False)
        return y

    def smsv(
        self, v: SparseVector, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # Scatter-then-matvec: the gather x[col_idx] touches only stored
        # columns, so the scatter is O(N) prep against O(nnz) work.
        return super().smsv(v, counter)

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # One traversal for all k columns: the per-column gather+multiply
        # lands in one contiguous (k, nnz) buffer, so a single reduceat
        # along axis=1 segments every column at once.  Per column this is
        # the same gather, multiply, and reduceat as matvec — bit-for-bit
        # identical — but the row_ptr walk, the nonempty mask, and the
        # output allocation are paid once, and the k reduceat passes run
        # inside one ufunc call instead of k dispatches.
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m = self.shape[0]
        # (k, M) C-order accumulator returned as its (M, k) transposed
        # view: the segment sums land in contiguous rows (no transposed
        # copy) and downstream column extraction is contiguous.
        yT = np.zeros((k, m), dtype=VALUE_DTYPE)
        y = yT.T
        if self.nnz and k:
            starts = self.row_ptr[:-1]
            nonempty = starts < self.row_ptr[1:]
            prod = np.empty((k, self.nnz), dtype=VALUE_DTYPE)
            for c in range(k):  # repro: noqa RDL001 — trip count is batch_k; each pass is one vectorised gather+multiply
                np.multiply(
                    self.values, V[:, c].take(self.col_idx), out=prod[c]
                )
            if np.any(nonempty):
                segs = np.add.reduceat(prod, starts[nonempty], axis=1)
                yT[:, nonempty] = segs
        self._count_sweep(counter, k, spmm=True)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return SparseVector._trusted(
            self.col_idx[lo:hi], self.values[lo:hi], self.shape[1]
        )

    def row_norms_sq(self) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=VALUE_DTYPE)
        if self.nnz:
            sq = self.values * self.values
            starts = self.row_ptr[:-1]
            nonempty = starts < self.row_ptr[1:]
            if np.any(nonempty):
                out[nonempty] = np.add.reduceat(sq, starts[nonempty])
        return out
