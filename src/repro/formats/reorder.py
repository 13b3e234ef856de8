"""Row reordering with permutation-transparent kernels.

SELL-C-sigma and lockstep-SIMD CSR both benefit from rows of similar
length sitting next to each other, but SMO and the serving layer index
rows by their *original* dataset position.  :class:`PermutedMatrix`
reconciles the two: it stores an inner matrix whose rows are permuted
(sorted by descending length within sigma-windows) and translates at
the boundary of every operation — ``matvec``/``smsv``/``matmat``/
``smsv_multi`` take and return vectors in original index space, and
``row(i)`` returns original row ``i``.

The translation is exact, not approximate: a row permutation does not
touch the order of accumulation *within* any row, and columns are not
permuted so input vectors need no remapping.  The output scatter
``y[perm] = y_stored`` moves finished row sums, so every returned
value is bitwise the value the inner format would have produced for
that row — SMO iterations, support sets, bias, and serve decision
values are reproduced exactly (the acceptance gate of PR 4).

Concrete registered layouts:

``RCSR``
    sigma-sorted rows over a CSR core.  The NumPy kernel cost is
    unchanged, but on the modelled lockstep-SIMD machine sorting
    collapses the per-W-row-group ``max(dim_i)`` padding toward
    ``adim`` — this is the reordering the paper's ``vdim`` parameter
    is secretly about.  Also the vehicle for the end-to-end bitwise
    SMO check, since CSR per-row sums carry no padding at all.
``RSELL``
    sigma-sorted rows over a SELL-C core: the full SELL-C-sigma
    layout.  Sorting makes slices internally uniform, so the per-slice
    padded lanes approach ``nnz / W``.

There is deliberately no reordered ELL.  ELL pads every row to the
*global* max row length, which no row order can reduce, so a sorted
ELL core does ELL's work plus the permutation scatter.  Priced with
ELL's per-element, row and batch constants it costs ELL plus
``reorder_scatter * M`` and loses to ELL on every non-empty profile;
it fits no serving family, and ``repro bench sell``'s race, when it
included one, picked only RSELL and RCSR.
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    MatrixFormat,
    SparseVector,
    validate_coo,
)
from repro.formats.csr import CSRMatrix
from repro.formats.sell import SELLMatrix
from repro.perf.counters import OpCounter


def sigma_window_permutation(
    row_lengths: np.ndarray, sigma: Optional[int] = None
) -> np.ndarray:
    """Stable descending-length sort within windows of ``sigma`` rows.

    Returns ``perm`` with ``perm[p]`` = original index of the row
    stored at position ``p``.  ``sigma=None`` (or ``sigma >= M``)
    sorts globally; ``sigma=1`` is the identity.  Ties keep original
    order (stable), so the permutation is deterministic.
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    m = lengths.shape[0]
    if sigma is None:
        sigma = max(m, 1)
    sigma = int(sigma)
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    window = np.arange(m, dtype=np.int64) // sigma
    # lexsort: last key is primary.  Window first, then descending
    # length, then original position for stability.
    return np.lexsort((np.arange(m, dtype=np.int64), -lengths, window))


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty(perm.shape[0], dtype=np.int64)
    inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv


def _resolve_sigma(
    sigma: Optional[int],
    default_sigma: Optional[int],
    lengths: np.ndarray,
    shape: Tuple[int, int],
) -> Optional[int]:
    """Sort-window resolution: explicit > class default > tuned > global.

    A warm tuning-cache entry can shrink the window from the global
    sort (its ``0`` value keeps the global sort).  Any window yields
    exact results — the permutation transparency above is
    sigma-independent — so tuning here trades padding for locality
    without touching values.
    """
    if sigma is not None:
        return sigma
    if default_sigma is not None:
        return default_sigma
    from repro.tune.cache import tuned_for_lengths

    tuned = tuned_for_lengths("sigma", lengths, shape)
    if tuned:  # 0 (and cold keys) keep the global sort
        return int(tuned)
    return None


class PermutedMatrix(MatrixFormat):
    """Inner matrix with permuted rows, presented in original order.

    ``stored`` holds the row-permuted data (deliberately *not* named
    ``inner``: :func:`repro.analysis.sanitize.format_violations`
    unwraps an ``inner`` attribute to see through ``SanitizedMatrix``
    proxies, and the wrapper-level invariants here must not be
    bypassed).  ``perm[p]`` is the original index of stored row ``p``.
    """

    name = "PERM"

    #: Inner storage class; fixed per registered subclass.
    inner_cls: Type[MatrixFormat] = CSRMatrix
    #: Sort-window size used by ``from_coo``; None = global sort.
    default_sigma: Optional[int] = None

    def __init__(self, stored: MatrixFormat, perm: np.ndarray) -> None:
        self.stored = stored
        self.perm = np.asarray(perm, dtype=np.int64)
        m, n = stored.shape
        if self.perm.shape != (m,):
            raise ValueError("perm must have length M")
        if m and not np.array_equal(np.sort(self.perm), np.arange(m)):
            raise ValueError("perm is not a permutation of 0..M-1")
        self.inv_perm = invert_permutation(self.perm)
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
        *,
        sigma: Optional[int] = None,
    ) -> "PermutedMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m = shape[0]
        lengths = np.bincount(rows, minlength=m).astype(np.int64)
        sigma = _resolve_sigma(sigma, cls.default_sigma, lengths, shape)
        perm = sigma_window_permutation(lengths, sigma)
        inv = invert_permutation(perm)
        stored_rows = inv[rows] if rows.size else rows
        stored = cls.inner_cls.from_coo(
            stored_rows.astype(INDEX_DTYPE), cols, values, shape
        )
        return cls(stored, perm)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols, values = self.stored.to_coo()
        orig_rows = (
            self.perm[rows.astype(np.int64)].astype(INDEX_DTYPE)
            if rows.size
            else rows
        )
        return validate_coo(orig_rows, cols, values, self.shape)

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.stored.nnz

    def storage_elements(self) -> int:
        # Inner storage plus the permutation vector itself.
        return self.stored.storage_elements() + self.shape[0]

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return self.stored._backing_arrays() + (self.perm,)

    @property
    def row_lengths(self) -> np.ndarray:
        """``dim_i`` in *original* row order."""
        stored_lengths = getattr(self.stored, "row_lengths", None)
        if stored_lengths is None:
            rows, _, _ = self.stored.to_coo()
            stored_lengths = np.bincount(
                rows, minlength=self.shape[0]
            ).astype(np.int64)
        out = np.empty(self.shape[0], dtype=np.int64)
        out[self.perm] = np.asarray(stored_lengths, dtype=np.int64)
        return out

    # -- kernels ------------------------------------------------------
    # Columns are not permuted, so x passes through untouched; only
    # the outputs are scattered back to original row order.  The
    # scatter moves finished row sums, preserving every bit.
    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        ys = self.stored.matvec(x, counter)
        y = np.empty(self.shape[0], dtype=VALUE_DTYPE)
        y[self.perm] = ys
        if counter is not None:
            counter.add_read(ys.nbytes + self.perm.nbytes)
            counter.add_write(y.nbytes)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        Ys = self.stored.matmat(V, counter)
        Y = np.empty(Ys.shape, dtype=VALUE_DTYPE)
        Y[self.perm] = Ys
        if counter is not None:
            counter.add_read(Ys.nbytes + self.perm.nbytes)
            counter.add_write(Y.nbytes)
        return Y

    # smsv / smsv_multi inherit the base implementations, which call
    # self.matvec / self.matmat and therefore scatter exactly once.

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        return self.stored.row(int(self.inv_perm[i]))

    def row_norms_sq(self) -> np.ndarray:
        out = np.empty(self.shape[0], dtype=VALUE_DTYPE)
        out[self.perm] = self.stored.row_norms_sq()
        return out


class RCSRMatrix(PermutedMatrix):
    """Globally length-sorted rows over a CSR core."""

    name = "RCSR"
    inner_cls = CSRMatrix
    default_sigma = None


class RSELLMatrix(PermutedMatrix):
    """SELL-C-sigma: length-sorted rows over a SELL-C core.

    ``from_coo`` sorts globally by default (``sigma = M``), which
    minimises padding; pass ``sigma`` to limit the reordering window
    (smaller sigma keeps rows closer to home, trading padding for
    locality — swept by ``repro bench sell``).
    """

    name = "RSELL"
    inner_cls = SELLMatrix
    default_sigma = None

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
        *,
        sigma: Optional[int] = None,
        chunk: Optional[int] = None,
    ) -> "RSELLMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m = shape[0]
        lengths = np.bincount(rows, minlength=m).astype(np.int64)
        sigma = _resolve_sigma(sigma, cls.default_sigma, lengths, shape)
        perm = sigma_window_permutation(lengths, sigma)
        inv = invert_permutation(perm)
        stored_rows = inv[rows] if rows.size else rows
        stored = SELLMatrix.from_coo(
            stored_rows.astype(INDEX_DTYPE), cols, values, shape, chunk=chunk
        )
        return cls(stored, perm)
