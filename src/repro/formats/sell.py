"""SELL-C — sliced ELLPACK.

Rows are packed into slices of ``C`` consecutive rows; each slice is
padded only to the width of *its own* longest row.  One globally long
row therefore inflates a single slice instead of the whole matrix —
the standard cure for ELL's catastrophic padding on power-law row
lengths (breast_cancer / leukemia in the paper's Table VI are exactly
the shapes ELL loses by 16-35x).

This class packs rows in the order it is given them ("SELL-C-1").  The
full SELL-C-sigma layout — rows sorted by length within sigma-windows
so that similar-length rows share a slice — is obtained by composing
this format with the row-reordering layer in
:mod:`repro.formats.reorder` (the ``RSELL`` wrapper), which keeps the
permutation invisible to callers.

Storage is flat, row-major within each slice: row ``r`` owns the
padded segment ``data[row_starts[r] : row_starts[r] + width(slice(r))]``
with its real entries first (ascending column order) and zero padding
behind them.  The multiply runs over the *whole* padded region — the
padding costs real work, as everywhere else in this repo — but the
reduction first compresses the products back to the real entries,
which are exactly CSR's product array in CSR's order.  The same
``np.add.reduceat`` then produces bit-for-bit CSR-identical row sums
(``reduceat`` sums pairwise, so reducing over padded segments would
re-associate and drift by 1 ULP; compressing first avoids that, making
SELL's numerical contract *stronger* than ELL's documented 1-ULP).
The per-slice padded lanes still cost time on the modelled SIMD
machine — :mod:`repro.hardware.vectormachine` counts exactly the
``sum_s w_s * ceil(C_s / W)`` vector ops of the layout.
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

#: Default slice height.  Matches the modelled SIMD width of the
#: default machine (ArchCalibration.simd_width) so one slice fills the
#: vector lanes exactly once per stored column.
DEFAULT_CHUNK = 8


def slice_widths_for(row_lengths: np.ndarray, chunk: int) -> np.ndarray:
    """Per-slice padded width: max row length within each C-row slice.

    The last slice may be shorter than ``chunk``; missing rows
    contribute width 0.
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    m = lengths.shape[0]
    n_slices = -(-m // chunk) if m else 0
    if n_slices == 0:
        return np.zeros(0, dtype=np.int64)
    padded = np.zeros(n_slices * chunk, dtype=np.int64)
    padded[:m] = lengths
    return padded.reshape(n_slices, chunk).max(axis=1)


def sell_padded_elements(row_lengths: np.ndarray, chunk: int) -> int:
    """Stored slots of SELL-C over given row lengths, padding included:
    ``sum_s C_s * w_s`` (the last slice's height ``C_s`` may be short).
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    widths = slice_widths_for(lengths, chunk)
    m = lengths.shape[0]
    heights = np.minimum(chunk, m - chunk * np.arange(widths.shape[0]))
    return int((widths * heights).sum())


def sell_storage_elements(row_lengths: np.ndarray, chunk: int) -> int:
    """Analytic storage count for SELL-C over given row lengths.

    data + indices over the padded region (``2 * sum_s C_s * w_s``)
    plus the slice-pointer table (n_slices + 1) plus the per-row length
    array needed to delimit the valid prefix of each padded row.
    """
    padded = sell_padded_elements(row_lengths, chunk)
    m = len(row_lengths)
    return 2 * padded + -(-m // chunk) + 1 + m


class SELLMatrix(MatrixFormat):
    """Sliced-ELL matrix with flat per-slice padded storage.

    Attributes
    ----------
    data / indices:
        Flat padded arrays of equal length ``sum_s C_s * w_s``; row
        ``r`` occupies ``[row_starts[r], row_starts[r+1])`` with its
        ``row_lengths[r]`` real entries first (ascending columns) and
        padding (value 0.0, index 0) behind.
    row_lengths:
        True ``dim_i`` per row, length M.
    chunk:
        Slice height C.  Widths are always *tight*: each slice is
        padded exactly to its own longest row, never further.
    """

    name = "SELL"

    #: Slice height used when a chunk is not given explicitly
    #: (``from_coo`` via generic conversion paths).
    default_chunk = DEFAULT_CHUNK

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        row_lengths: np.ndarray,
        shape: Tuple[int, int],
        *,
        chunk: Optional[int] = None,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.row_lengths = np.asarray(row_lengths, dtype=np.int64)
        self.chunk = int(chunk if chunk is not None else self.default_chunk)
        m, n = shape
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.data.ndim != 1 or self.data.shape != self.indices.shape:
            raise ValueError("data and indices must be flat with equal length")
        if self.row_lengths.shape != (m,):
            raise ValueError("row_lengths must have length M")
        if np.any(self.row_lengths < 0):
            raise ValueError("row_lengths must be non-negative")
        self.slice_widths = slice_widths_for(self.row_lengths, self.chunk)
        widths_per_row = (
            np.repeat(self.slice_widths, self.chunk)[:m]
            if m
            else np.zeros(0, dtype=np.int64)
        )
        self.row_starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(widths_per_row, out=self.row_starts[1:])
        if self.data.shape[0] != int(self.row_starts[-1]):
            raise ValueError(
                "data length inconsistent with slice widths "
                f"(expected {int(self.row_starts[-1])}, got {self.data.shape[0]})"
            )
        # Compression machinery for the CSR-exact reduction: position
        # of each flat slot within its row, the mask of real (non-pad)
        # slots, and CSR-style starts over the compressed products.
        total = self.data.shape[0]
        if total:
            row_of_flat = np.repeat(
                np.arange(m, dtype=np.int64), widths_per_row
            )
            pos = np.arange(total, dtype=np.int64) - self.row_starts[row_of_flat]
            self._valid = pos < self.row_lengths[row_of_flat]
        else:
            self._valid = np.zeros(0, dtype=bool)
        self._csr_starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.row_lengths, out=self._csr_starts[1:])
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
        chunk: Optional[int] = None,
    ) -> "SELLMatrix":
        rows, cols, values = validate_coo(rows, cols, values, shape)
        m = shape[0]
        lengths = np.bincount(rows, minlength=m).astype(np.int64)
        if chunk is None:
            # No explicit slice height: a warm tuning-cache entry for
            # this machine and shape class overrides the static
            # default.  Row sums are bitwise chunk-independent (the
            # compress-then-reduceat contract above), so this can only
            # move time, never values.
            from repro.tune.cache import tuned_for_lengths

            chunk = tuned_for_lengths(
                "sell_chunk", lengths, shape, default=cls.default_chunk
            )
        C = int(chunk)
        widths = slice_widths_for(lengths, C)
        widths_per_row = (
            np.repeat(widths, C)[:m] if m else np.zeros(0, dtype=np.int64)
        )
        row_starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(widths_per_row, out=row_starts[1:])
        total = int(row_starts[-1])
        data = np.zeros(total, dtype=VALUE_DTYPE)
        indices = np.zeros(total, dtype=INDEX_DTYPE)
        if rows.size:
            # Offset of each nnz inside its row (input is row-major
            # sorted after validate_coo), then scatter into the padded
            # flat position.
            csr_starts = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(lengths, out=csr_starts[1:])
            within = np.arange(rows.size, dtype=np.int64) - csr_starts[rows]
            flat = row_starts[rows] + within
            data[flat] = values
            indices[flat] = cols
        return cls(data, indices, lengths, shape, chunk=C)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.shape[0]
        if self.data.shape[0] == 0:
            e = np.empty(0, dtype=INDEX_DTYPE)
            return e, e.copy(), np.empty(0, dtype=VALUE_DTYPE)
        rows = np.repeat(
            np.arange(m, dtype=INDEX_DTYPE), self.row_lengths
        )
        return validate_coo(
            rows, self.indices[self._valid], self.data[self._valid], self.shape
        )

    # -- structure ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row_lengths.sum())

    @property
    def n_slices(self) -> int:
        return int(self.slice_widths.shape[0])

    @property
    def padded_elements(self) -> int:
        """Stored slots including padding: ``sum_s C_s * w_s``."""
        return int(self.data.shape[0])

    def storage_elements(self) -> int:
        return 2 * self.padded_elements + self.n_slices + 1 + self.shape[0]

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.data, self.indices, self.row_lengths)

    # -- kernels ------------------------------------------------------
    def _sweep_cost(self, k: int) -> Tuple[int, int]:
        padded = self.padded_elements
        return 2 * padded * k, (
            self.data.nbytes
            + self.indices.nbytes
            + padded * VALUE_ITEMSIZE * k  # gathered x / V (pads included)
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
        if self.padded_elements:
            # Padded multiply (padding costs work), then compress to
            # the real products — exactly CSR's product array — so the
            # reduceat association is bit-for-bit CSR's.
            prod = (self.data * x[self.indices])[self._valid]
            starts = self._csr_starts[:-1]
            nonempty = starts < self._csr_starts[1:]
            if np.any(nonempty):
                y[nonempty] = np.add.reduceat(prod, starts[nonempty])
        self._count_sweep(counter, 1, spmm=False)
        return y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        # CSR's block formulation over the padded flat storage: one
        # (k, padded) product buffer, one axis=1 reduceat segmenting
        # every column at once.  Column c is bit-for-bit matvec(V[:,c]).
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        m = self.shape[0]
        yT = np.zeros((k, m), dtype=VALUE_DTYPE)
        y = yT.T
        if self.padded_elements and k:
            starts = self._csr_starts[:-1]
            nonempty = starts < self._csr_starts[1:]
            prod = np.empty((k, self.nnz), dtype=VALUE_DTYPE)
            for c in range(k):  # repro: noqa RDL001 — trip count is batch_k; each pass is one vectorised gather+multiply
                np.compress(
                    self._valid,
                    self.data * V[:, c].take(self.indices),
                    out=prod[c],
                )
            if np.any(nonempty):
                segs = np.add.reduceat(prod, starts[nonempty], axis=1)
                yT[:, nonempty] = segs
        self._count_sweep(counter, k, spmm=True)
        return y

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.shape[0]:
            raise IndexError("row index out of range")
        lo = int(self.row_starts[i])
        k = int(self.row_lengths[i])
        return SparseVector._trusted(
            self.indices[lo : lo + k], self.data[lo : lo + k], self.shape[1]
        )

    def row_norms_sq(self) -> np.ndarray:
        out = np.zeros(self.shape[0], dtype=VALUE_DTYPE)
        if self.padded_elements:
            sq = (self.data * self.data)[self._valid]
            starts = self._csr_starts[:-1]
            nonempty = starts < self._csr_starts[1:]
            if np.any(nonempty):
                out[nonempty] = np.add.reduceat(sq, starts[nonempty])
        return out
