"""Hypothesis property tests for the format library.

Invariants:

1. Any matrix survives a round trip through any format.
2. All formats compute the same matvec as the dense reference.
3. Conversion between any two formats preserves the logical matrix.
4. Storage accounting always matches the analytic formulas, and
   padding never undercounts nnz.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats import FORMAT_NAMES, convert, from_dense
from repro.formats.storage import storage_elements_analytic

#: PR 4 layouts ride along in every invariant the analytic-storage
#: test does not cover (their storage is instance-dependent and is
#: asserted in test_sell.py / test_reorder.py instead).
EXTENDED_NAMES = FORMAT_NAMES + ("SELL", "RCSR", "RSELL")


@st.composite
def sparse_matrices(draw):
    """Random small matrices with controllable sparsity, incl. empties.

    Shapes start at zero: 0-row and 0-column matrices are legal inputs
    every format must survive (they show up as empty shards and
    all-filtered datasets).
    """
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=12))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    values = draw(
        arrays(
            np.float64,
            (m, n),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False
            ),
        )
    )
    mask = draw(
        arrays(np.float64, (m, n), elements=st.floats(0, 1)).map(
            lambda a: a < density
        )
    )
    return values * mask


@given(a=sparse_matrices(), fmt=st.sampled_from(EXTENDED_NAMES))
@settings(max_examples=120, deadline=None)
def test_roundtrip_preserves_matrix(a, fmt):
    m = from_dense(a, fmt)
    assert np.allclose(m.to_dense(), a)


@given(a=sparse_matrices(), fmt=st.sampled_from(EXTENDED_NAMES), seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_matvec_matches_dense(a, fmt, seed):
    x = np.random.default_rng(seed).standard_normal(a.shape[1])
    m = from_dense(a, fmt)
    assert np.allclose(m.matvec(x), a @ x, atol=1e-9)


@given(
    a=sparse_matrices(),
    src=st.sampled_from(EXTENDED_NAMES),
    dst=st.sampled_from(EXTENDED_NAMES),
)
@settings(max_examples=120, deadline=None)
def test_conversion_preserves_matrix(a, src, dst):
    m = convert(from_dense(a, src), dst)
    assert m.name == dst
    assert np.allclose(m.to_dense(), a)


@given(a=sparse_matrices(), fmt=st.sampled_from(FORMAT_NAMES))
@settings(max_examples=120, deadline=None)
def test_storage_accounting(a, fmt):
    m = from_dense(a, fmt)
    kw = dict(m=a.shape[0], n=a.shape[1], nnz=m.nnz)
    if fmt == "ELL":
        kw["mdim"] = m.mdim
    if fmt == "DIA":
        kw["ndig"] = m.ndig
    assert m.storage_elements() == storage_elements_analytic(fmt, **kw)


@given(a=sparse_matrices(), fmt=st.sampled_from(EXTENDED_NAMES))
@settings(max_examples=80, deadline=None)
def test_row_extraction_matches_dense(a, fmt):
    m = from_dense(a, fmt)
    for i in range(a.shape[0]):
        assert np.allclose(m.row(i).to_dense(), a[i])


@given(a=sparse_matrices(), fmt=st.sampled_from(EXTENDED_NAMES))
@settings(max_examples=80, deadline=None)
def test_row_norms_match_dense(a, fmt):
    m = from_dense(a, fmt)
    assert np.allclose(m.row_norms_sq(), (a * a).sum(axis=1), atol=1e-9)
