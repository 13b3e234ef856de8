"""DEN — dense row-major storage.

The format GPUSVM fixes for every dataset (paper Section I).  Stores all
``M * N`` elements; the matvec is a BLAS-2 call, which is why DEN wins on
the genuinely dense ML datasets (gisette, epsilon, dna in Table V) and
loses badly on sparse ones (sector: DEN is the *worst* format, Table VI).
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


class DenseMatrix(MatrixFormat):
    """Row-major (C-contiguous) dense matrix.

    Row-major is the cache-friendly orientation for the SMO access
    pattern: the SMSV streams whole rows, and row extraction
    (``X_high``) is a contiguous slice.
    """

    name = "DEN"

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array, dtype=VALUE_DTYPE)
        if array.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-D array")
        self.array = array
        self.shape = (int(array.shape[0]), int(array.shape[1]))
        self._sanitize_check()

    # -- construction -------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "DenseMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        out = np.zeros(shape, dtype=VALUE_DTYPE)
        out[rows, cols] = values
        return cls(out)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols = np.nonzero(self.array)
        return (
            rows.astype(INDEX_DTYPE),
            cols.astype(INDEX_DTYPE),
            self.array[rows, cols].astype(VALUE_DTYPE),
        )

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.array))

    def storage_elements(self) -> int:
        return self.shape[0] * self.shape[1]

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.array,)

    # -- kernels ------------------------------------------------------
    def _sweep_cost(self, k: int) -> Tuple[int, int]:
        m, n = self.shape
        return 2 * m * n * k, self.array.nbytes + n * k * VALUE_ITEMSIZE

    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects x of shape ({self.shape[1]},), got {x.shape}"
            )
        y = self.array @ x
        self._count_sweep(counter, 1, spmm=False)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # k GEMV calls over a column-contiguous copy of V, NOT one GEMM:
        # BLAS-3 blocks the reduction differently, which breaks the
        # bit-for-bit column contract with matvec.  DEN gains nothing
        # from traversal amortisation anyway (there is no index stream),
        # so the model assigns it a zero batch amortisation fraction.
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m = self.shape[0]
        VF = np.asfortranarray(V)
        # (k, M) C-order accumulator returned transposed: each GEMV
        # result lands in a contiguous row instead of a strided column.
        yT = np.empty((k, m), dtype=VALUE_DTYPE)
        y = yT.T
        for c in range(k):  # repro: noqa RDL001 — trip count is batch_k; per-column GEMV keeps bit-identity with matvec
            yT[c] = self.array @ VF[:, c]
        self._count_sweep(counter, k, spmm=True)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        # View (no copy) then sparsify; the SMO hot path keeps vectors
        # sparse so kernels can exploit them.
        x = self.array[i]
        idx = np.flatnonzero(x).astype(INDEX_DTYPE)
        return SparseVector._trusted(idx, x[idx], self.shape[1])

    def row_norms_sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.array, self.array)

    def to_dense(self) -> np.ndarray:
        return self.array.copy()
