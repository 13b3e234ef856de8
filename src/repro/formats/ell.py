"""ELL — ELLPACK/ITPACK format.

Stores two M x mdim arrays (values + column indices), every row padded
to the length of the *longest* row.  Excellent when rows are uniform
(adult: ELL is the paper's pick, Table VI), catastrophic when one long
row forces global padding (breast_cancer / leukemia: ELL is the worst
format at 16-35x slower).

The kernel below multiplies the full padded arrays, so the Fig. 3
slowdown-vs-``mdim`` curve comes out of real measured work.
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


class ELLMatrix(MatrixFormat):
    """ELLPACK matrix: padded 2-D ``data`` and ``indices`` arrays.

    Padding convention: unused slots hold value 0.0 and column index 0,
    which keeps the multiply well-defined (contributes ``0 * x[0]``)
    while still *costing* the padded work — exactly the inefficiency the
    paper measures.
    """

    name = "ELL"

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        row_lengths: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.row_lengths = np.asarray(row_lengths, dtype=np.int64)
        m, n = shape
        if self.data.ndim != 2 or self.data.shape != self.indices.shape:
            raise ValueError("data and indices must be 2-D with equal shape")
        if self.data.shape[0] != m:
            raise ValueError("data must have M rows")
        if self.row_lengths.shape != (m,):
            raise ValueError("row_lengths must have length M")
        if np.any(self.row_lengths > self.data.shape[1]):
            raise ValueError("row_lengths exceed padded width")
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
    ) -> "ELLMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m = shape[0]
        lengths = np.bincount(rows, minlength=m).astype(np.int64)
        mdim = int(lengths.max()) if m and lengths.size else 0
        data = np.zeros((m, mdim), dtype=VALUE_DTYPE)
        indices = np.zeros((m, mdim), dtype=INDEX_DTYPE)
        if rows.size:
            # Position of each nnz inside its row: running offset
            # relative to the first element of the row (input is
            # row-major sorted after validate_coo).
            row_starts = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(lengths, out=row_starts[1:])
            within = np.arange(rows.size, dtype=np.int64) - row_starts[rows]
            data[rows, within] = values
            indices[rows, within] = cols
        return cls(data, indices, lengths, shape)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, mdim = self.data.shape
        if mdim == 0:
            e = np.empty(0, dtype=INDEX_DTYPE)
            return e, e.copy(), np.empty(0, dtype=VALUE_DTYPE)
        mask = np.arange(mdim)[None, :] < self.row_lengths[:, None]
        rows = np.repeat(np.arange(m, dtype=INDEX_DTYPE), self.row_lengths)
        cols = self.indices[mask]
        values = self.data[mask]
        return validate_coo(rows, cols, values, self.shape)

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row_lengths.sum())

    @property
    def mdim(self) -> int:
        """Padded width: max non-zeros in any row."""
        return int(self.data.shape[1])

    def storage_elements(self) -> int:
        # data + indices, both padded: Table II's 2*M*mdim (max 2*M*N).
        return 2 * self.data.shape[0] * self.data.shape[1]

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.data, self.indices, self.row_lengths)

    # -- kernels ------------------------------------------------------
    def _sweep_cost(self, k: int) -> Tuple[int, int]:
        padded = self.data.size
        return 2 * padded * k, (
            self.data.nbytes
            + self.indices.nbytes  # padded views streamed once
            + padded * VALUE_ITEMSIZE * k
        )

    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects x of shape ({self.shape[1]},), got {x.shape}"
            )
        m, mdim = self.data.shape
        if mdim == 0:
            y = np.zeros(m, dtype=VALUE_DTYPE)
        else:
            # Full padded multiply: the padding (value 0, index 0) is
            # processed like real work, as on the SIMD hardware the
            # paper measures.
            y = np.einsum("ij,ij->i", self.data, x[self.indices])
        self._count_sweep(counter, 1, spmm=False)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # The padded-index gather is the traversal cost of ELL; doing it
        # once as a contiguous (k, M, mdim) block amortises it across
        # the column block.  Each per-column einsum then sees exactly
        # the operands of matvec (a C-contiguous (M, mdim) slice equal
        # to x[self.indices]), so columns are bit-for-bit identical.
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m, mdim = self.data.shape
        # (k, M) C-order accumulator returned transposed: each einsum
        # writes a contiguous row instead of a strided column.
        yT = np.zeros((k, m), dtype=VALUE_DTYPE)
        y = yT.T
        if mdim and k:
            VT = np.ascontiguousarray(V.T)
            gathered = VT.take(self.indices, axis=1)
            for c in range(k):  # repro: noqa RDL001 — trip count is batch_k; each pass is one vectorised einsum
                yT[c] = np.einsum("ij,ij->i", self.data, gathered[c])
        self._count_sweep(counter, k, spmm=True)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        k = int(self.row_lengths[i])
        idx = self.indices[i, :k]
        vals = self.data[i, :k]
        order = np.argsort(idx, kind="stable")
        return SparseVector._trusted(idx[order], vals[order], self.shape[1])

    def row_norms_sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.data, self.data)
