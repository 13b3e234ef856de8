"""DIA — diagonal format.

Stores one padded array row per occupied diagonal plus an offsets
vector.  Superb for banded matrices (trefethen: DIA is the paper's pick
at 4.1x over the worst format) and hopeless for scattered sparsity,
where ``ndig`` approaches M+N-1 and nearly every stored element is
padding (Fig. 2, adult: DIA is the worst format).

Layout convention
-----------------
Diagonal *offset* ``o = col - row``.  Diagonal ``o`` holds elements
``(i, i + o)`` for ``i`` in ``[max(0, -o), min(M, N - o))``.  Every
diagonal is stored padded to the uniform length ``Ldiag = min(M, N)``,
aligned so that slot ``t`` corresponds to row ``i = max(0, -o) + t``.
Total storage is therefore ``ndig * (min(M, N) + 1)`` elements,
matching Table II's worst case of ``(min(M,N) + 1) * (M + N - 1)`` when
every diagonal is occupied.
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


def diag_span(offset: int, shape: Tuple[int, int]) -> Tuple[int, int]:
    """Valid row range ``[i0, i1)`` of diagonal ``offset`` in ``shape``."""
    m, n = shape
    i0 = max(0, -offset)
    i1 = min(m, n - offset)
    return i0, max(i0, i1)


class DIAMatrix(MatrixFormat):
    """Diagonal-format matrix.

    Attributes
    ----------
    offsets:
        Sorted occupied diagonal offsets (``col - row``), length ndig.
    data:
        ``(ndig, Ldiag)`` padded array, ``Ldiag = min(M, N)``; slot
        ``t`` of diagonal ``k`` is element ``(i0_k + t, i0_k + t +
        offsets[k])``; slots past the diagonal's true length are 0.
    """

    name = "DIA"

    def __init__(
        self,
        offsets: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        m, n = shape
        ldiag = min(m, n)
        if self.offsets.ndim != 1:
            raise ValueError("offsets must be 1-D")
        if self.data.shape != (self.offsets.shape[0], ldiag):
            raise ValueError(
                f"data must have shape (ndig, min(M,N)) = "
                f"({self.offsets.shape[0]}, {ldiag}); got {self.data.shape}"
            )
        if self.offsets.size > 1 and np.any(np.diff(self.offsets) <= 0):
            raise ValueError("offsets must be strictly increasing")
        if self.offsets.size and (
            self.offsets[0] <= -m or self.offsets[-1] >= n
        ):
            raise ValueError("offset out of range")
        self.shape = (int(m), int(n))
        # Valid row span per diagonal, precomputed: the matvec loop is
        # over diagonals (the paper's cost driver), so per-call span
        # arithmetic would be pure overhead.
        self._spans = [
            diag_span(int(o), self.shape) for o in self.offsets
        ]
        spans = np.array(self._spans, dtype=np.int64).reshape(-1, 2)
        self._span_lo, self._span_hi = spans[:, 0], spans[:, 1]
        self._sanitize_check()

    # -- construction -------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "DIAMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m, n = shape
        ldiag = min(m, n)
        offs = (cols.astype(np.int64) - rows.astype(np.int64))
        uniq = np.unique(offs)
        data = np.zeros((uniq.shape[0], ldiag), dtype=VALUE_DTYPE)
        if rows.size:
            k = np.searchsorted(uniq, offs)
            i0 = np.maximum(0, -uniq[k])
            slot = rows.astype(np.int64) - i0
            data[k, slot] = values
        return cls(uniq, data, shape)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows_list = []
        cols_list = []
        vals_list = []
        for k, o in enumerate(self.offsets):
            i0, i1 = diag_span(int(o), self.shape)
            seg = self.data[k, : i1 - i0]
            nz = np.nonzero(seg)[0]
            if nz.size:
                i = i0 + nz
                rows_list.append(i)
                cols_list.append(i + int(o))
                vals_list.append(seg[nz])
        if not rows_list:
            e = np.empty(0, dtype=INDEX_DTYPE)
            return e, e.copy(), np.empty(0, dtype=VALUE_DTYPE)
        rows = np.concatenate(rows_list).astype(INDEX_DTYPE)
        cols = np.concatenate(cols_list).astype(INDEX_DTYPE)
        vals = np.concatenate(vals_list).astype(VALUE_DTYPE)
        return validate_coo(rows, cols, vals, self.shape)

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        # Stored zeros inside a diagonal's valid span are padding-free
        # slots that happen to be zero; per the logical-matrix contract
        # we count actual non-zero values.
        return int(np.count_nonzero(self.data))

    @property
    def ndig(self) -> int:
        """Number of occupied diagonals (the paper's ``ndig``)."""
        return int(self.offsets.shape[0])

    def storage_elements(self) -> int:
        # ndig padded diagonals of length min(M, N), plus the offsets
        # array: ndig * (min(M,N) + 1); at full occupancy this is Table
        # II's (min(M,N)+1) * (M+N-1).
        return self.ndig * (min(self.shape) + 1)

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.offsets, self.data)

    # -- kernels ------------------------------------------------------
    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"matvec expects x of shape ({self.shape[1]},), got {x.shape}"
            )
        m, n = self.shape
        ldiag = min(m, n)
        y = np.zeros(m, dtype=VALUE_DTYPE)
        # One fused multiply-accumulate per diagonal over its full
        # stored span.  Stored zeros inside the span are processed like
        # real work — the padding cost that makes many-diagonal
        # matrices slow (Fig. 2) — while the loop count itself is
        # ndig, the paper's cost driver.
        for k, o in enumerate(self.offsets):  # repro: noqa RDL001 — trip count is ndig, the modelled cost driver
            i0, i1 = self._spans[k]
            if i1 > i0:
                y[i0:i1] += self.data[k, : i1 - i0] * x[i0 + int(o) : i1 + int(o)]
        if counter is not None:
            padded = self.ndig * ldiag
            counter.add_flops(2 * padded)
            counter.add_read(self.data.nbytes + padded * x.itemsize)
            counter.add_write(y.nbytes)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # One walk over the diagonals for all k columns: each diagonal's
        # stored span is loaded once and broadcast-multiplied against the
        # k-wide slab of V.  The per-element multiply/accumulate matches
        # matvec's elementwise sequence exactly (no reductions), so each
        # column is bit-for-bit identical; the span arithmetic and the
        # ndig-long Python loop are paid once instead of k times.
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m, n = self.shape
        ldiag = min(m, n)
        y = np.zeros((m, k), dtype=VALUE_DTYPE)
        if k:
            for d, o in enumerate(self.offsets):  # repro: noqa RDL001 — trip count is ndig, the modelled cost driver
                i0, i1 = self._spans[d]
                if i1 > i0:
                    y[i0:i1] += (
                        self.data[d, : i1 - i0, None]
                        * V[i0 + int(o) : i1 + int(o), :]
                    )
        if counter is not None:
            padded = self.ndig * ldiag
            counter.add_spmm(k)
            counter.add_flops(2 * padded * k)
            counter.add_read(
                self.data.nbytes + padded * V.itemsize * k
            )
            counter.add_write(y.nbytes)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        # Diagonals crossing row i, in offset order (so columns come out
        # strictly increasing); their stored slot for row i is i - i0.
        ks = np.flatnonzero((self._span_lo <= i) & (i < self._span_hi))
        vals = self.data[ks, i - self._span_lo[ks]]
        nz = vals != 0.0
        cols = (i + self.offsets[ks[nz]]).astype(INDEX_DTYPE)
        return SparseVector._trusted(cols, vals[nz], self.shape[1])
