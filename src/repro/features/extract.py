"""Profile extraction: one O(nnz) pass over any matrix.

This is the runtime component of the scheduler: before training starts,
the adaptive system extracts the nine parameters from the (arbitrary-
format) input and feeds them to the decision system.  Extraction cost is
linear in the coordinates — row lengths and diagonal offsets are both
counted with ``np.bincount``, and validating already-canonical
coordinates is one increasing-key test, no sort — negligible next to
even one SMO iteration, which is what makes *runtime* scheduling viable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.features.profile import DatasetProfile
from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    MatrixFormat,
    canonical_coords,
)
from repro.formats.reorder import sigma_window_permutation
from repro.formats.sell import sell_padded_elements


def profile_from_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
    *,
    validated: bool = False,
) -> DatasetProfile:
    """Compute the nine parameters from coordinate structure.

    Values are irrelevant — every Table IV parameter is structural — so
    only ``rows``/``cols`` are needed.
    """
    if not validated:
        rows = np.asarray(rows, dtype=INDEX_DTYPE).ravel()
        cols = np.asarray(cols, dtype=INDEX_DTYPE).ravel()
        if rows.shape != cols.shape:
            raise ValueError("rows, cols must have equal length")
        rows, cols, _ = canonical_coords(rows, cols, shape)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    m, n = int(shape[0]), int(shape[1])
    nnz = int(rows.shape[0])

    if nnz == 0:
        return DatasetProfile(
            m=m, n=n, nnz=0, ndig=0, dnnz=0.0, mdim=0, adim=0.0,
            vdim=0.0, density=0.0,
        )

    dim = np.bincount(rows, minlength=m).astype(VALUE_DTYPE)
    adim = nnz / m
    mdim = int(dim.max())
    vdim = float(np.mean((dim - adim) ** 2))

    # Diagonal offsets col - row lie in [-(m-1), n-1]; shifted by m-1
    # they index a histogram whose non-empty bins are the diagonals.
    offsets = cols.astype(np.int64) - rows.astype(np.int64) + (m - 1)
    ndig = int(np.count_nonzero(np.bincount(offsets)))
    dnnz = nnz / ndig

    density = nnz / (m * n) if m and n else 0.0
    return DatasetProfile(
        m=m,
        n=n,
        nnz=nnz,
        ndig=ndig,
        dnnz=dnnz,
        mdim=mdim,
        adim=adim,
        vdim=vdim,
        density=density,
    )


def extract_profile(matrix: MatrixFormat) -> DatasetProfile:
    """Extract the Table IV parameters from any stored format."""
    rows, cols, _values = matrix.to_coo()
    return profile_from_coo(rows, cols, matrix.shape, validated=True)


def profile_from_dense(array: np.ndarray) -> DatasetProfile:
    """Extract the parameters from a dense 2-D array (zeros skipped)."""
    array = np.asarray(array)
    if array.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(array)
    return profile_from_coo(rows, cols, array.shape, validated=True)


# -- layout features (PR 4) -------------------------------------------
#
# The nine canonical parameters stay exactly the paper's; the padding
# features below are *derived* quantities the SELL/reordering machinery
# consumes (and the bench reports).  They are deliberately kept out of
# DatasetProfile so decision-cache keys and the Table IV canon are
# untouched.


@dataclass(frozen=True)
class LayoutFeatures:
    """Row-length-variance and padding-ratio features of one matrix.

    All ratios are padded-storage over nnz (1.0 = no padding, i.e. the
    layout stores exactly the non-zeros); ``inf``-free by construction
    (an all-zero matrix reports 1.0 everywhere).

    Attributes
    ----------
    row_nnz_variance:
        Population variance of the row lengths (``vdim``).
    row_nnz_cv:
        Coefficient of variation ``sqrt(vdim) / adim`` (0 for empty).
    ell_padding_ratio:
        ``M * mdim / nnz`` — what plain ELL pays.
    sell_padding_ratio:
        Per-slice padding of SELL-C over rows in natural order.
    sell_sorted_padding_ratio:
        Per-slice padding after the sigma-window descending sort —
        what RSELL (SELL-C-sigma) actually stores.  The gap between
        the last two is the value of reordering.
    """

    row_nnz_variance: float
    row_nnz_cv: float
    ell_padding_ratio: float
    sell_padding_ratio: float
    sell_sorted_padding_ratio: float


def layout_features(
    row_lengths: np.ndarray,
    *,
    chunk: int = 8,
    sigma: Optional[int] = None,
) -> LayoutFeatures:
    """Padding features of a row-length distribution.

    ``chunk`` is the SELL slice height C; ``sigma`` the sort-window
    size (None = global sort), matching
    :func:`repro.formats.reorder.sigma_window_permutation`.
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    if np.any(lengths < 0):
        raise ValueError("row lengths must be non-negative")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    m = lengths.shape[0]
    nnz = int(lengths.sum())
    mdim = int(lengths.max()) if m else 0
    adim = nnz / m if m else 0.0
    vdim = float(np.mean((lengths - adim) ** 2)) if m else 0.0
    cv = float(np.sqrt(vdim) / adim) if adim > 0 else 0.0
    if nnz == 0:
        return LayoutFeatures(
            row_nnz_variance=vdim,
            row_nnz_cv=cv,
            ell_padding_ratio=1.0,
            sell_padding_ratio=1.0,
            sell_sorted_padding_ratio=1.0,
        )
    order = sigma_window_permutation(lengths, sigma)
    return LayoutFeatures(
        row_nnz_variance=vdim,
        row_nnz_cv=cv,
        ell_padding_ratio=m * mdim / nnz,
        sell_padding_ratio=sell_padded_elements(lengths, chunk) / nnz,
        sell_sorted_padding_ratio=(
            sell_padded_elements(lengths[order], chunk) / nnz
        ),
    )


def layout_features_from_matrix(
    matrix: MatrixFormat,
    *,
    chunk: int = 8,
    sigma: Optional[int] = None,
) -> LayoutFeatures:
    """Layout features of any stored format (one O(nnz) pass)."""
    return layout_features(row_nnz(matrix), chunk=chunk, sigma=sigma)


def row_nnz(matrix: MatrixFormat) -> np.ndarray:
    """Per-row nnz counts of any stored format (int64, length M).

    Formats that keep row lengths (CSR, ELL, SELL, the permuted
    wrappers) answer directly; the others count rows of their COO
    triples.
    """
    lengths = getattr(matrix, "row_lengths", None)
    if lengths is None:
        rows, _, _ = matrix.to_coo()
        lengths = np.bincount(rows, minlength=matrix.shape[0])
    return np.asarray(lengths, dtype=np.int64)
