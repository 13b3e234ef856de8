"""``profile_from_coo`` counts diagonals with a histogram, not a sort.

The reference below is the sort-based extraction (``np.unique`` over
the diagonal offsets, full ``validate_coo`` canonicalisation) the
histogram replaced; every profile must come out identical, field for
field, including on the six Table V clones the training benchmark fits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.features import profile_from_coo
from repro.features.profile import DatasetProfile
from repro.formats.base import validate_coo

TRAIN_CLONES = ("adult", "aloi", "mnist", "connect-4", "trefethen", "gisette")


def reference_profile(rows, cols, shape):
    rows, cols, _ = validate_coo(rows, cols, np.ones(len(rows)), shape)
    m, n = shape
    nnz = rows.shape[0]
    if nnz == 0:
        return DatasetProfile(
            m=m, n=n, nnz=0, ndig=0, dnnz=0.0, mdim=0, adim=0.0,
            vdim=0.0, density=0.0,
        )
    dim = np.bincount(rows, minlength=m).astype(np.float64)
    adim = nnz / m
    ndig = int(np.unique(cols.astype(np.int64) - rows).shape[0])
    return DatasetProfile(
        m=m, n=n, nnz=nnz, ndig=ndig, dnnz=nnz / ndig,
        mdim=int(dim.max()), adim=adim,
        vdim=float(np.mean((dim - adim) ** 2)),
        density=nnz / (m * n),
    )


@st.composite
def coordinates(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    keys = draw(
        st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n)
    )
    keys = np.array(keys, dtype=np.int64)
    return keys // n, keys % n, (m, n)


@given(coordinates())
@settings(max_examples=200, deadline=None)
def test_ndig_counts_distinct_offsets(case):
    rows, cols, shape = case
    p = profile_from_coo(rows, cols, shape)
    assert p.ndig == np.unique(cols - rows).size
    assert p == reference_profile(rows, cols, shape)


@pytest.mark.parametrize("name", TRAIN_CLONES)
def test_train_clone_profiles_unchanged(name):
    ds = load_dataset(name, seed=0, label_noise=0.05)
    got = profile_from_coo(ds.rows, ds.cols, ds.shape)
    assert got == reference_profile(ds.rows, ds.cols, ds.shape)


def test_duplicates_still_rejected():
    with pytest.raises(ValueError, match="duplicate coordinates"):
        profile_from_coo(np.array([1, 0, 1]), np.array([2, 0, 2]), (2, 3))
