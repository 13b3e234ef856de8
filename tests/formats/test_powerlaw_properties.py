"""Property tests on power-law row distributions (the SELL stress shape).

Two cross-format invariants, exercised where they are hardest — heavy-
tailed row lengths with empty rows and a wide mdim/adim gap:

1. Permutation transparency is *bitwise*: RCSR/RSELL/SELL answer every
   kernel exactly like the unpermuted CSR reference.
2. Cross-format blocked SMSV agrees with CSR within the documented
   tolerance for every format (and bitwise for the exact family).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import powerlaw_rows_matrix
from repro.formats import FORMAT_NAMES, SparseVector, convert
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import RCSRMatrix, RSELLMatrix
from repro.formats.sell import SELLMatrix

#: Formats whose kernels are bitwise-CSR by construction.
EXACT = ("SELL", "RCSR", "RSELL")


@st.composite
def powerlaw_triples(draw):
    m = draw(st.integers(min_value=0, max_value=50))
    n = draw(st.integers(min_value=1, max_value=40))
    alpha = draw(st.floats(min_value=1.2, max_value=3.0))
    min_nnz = draw(st.integers(min_value=1, max_value=max(1, n // 4)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return powerlaw_rows_matrix(
        m, n, alpha=alpha, min_nnz=min_nnz, seed=seed
    )


def _vectors(n, k, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        xv = rng.standard_normal(n) * (rng.random(n) < 0.4)
        out.append(SparseVector.from_dense(xv))
    return out


@given(
    triples=powerlaw_triples(),
    cls=st.sampled_from([RCSRMatrix, RSELLMatrix]),
    sigma=st.sampled_from([None, 4, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_permuted_matvec_bitwise_equals_unpermuted(
    triples, cls, sigma, seed
):
    rows, cols, vals, shape = triples
    ref = CSRMatrix.from_coo(rows, cols, vals, shape)
    wrapped = cls.from_coo(rows, cols, vals, shape, sigma=sigma)
    x = np.random.default_rng(seed).standard_normal(shape[1])
    assert np.array_equal(wrapped.matvec(x), ref.matvec(x))


@given(
    triples=powerlaw_triples(),
    chunk=st.integers(min_value=1, max_value=24),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sell_any_chunk_bitwise_equals_csr(triples, chunk, seed):
    rows, cols, vals, shape = triples
    ref = CSRMatrix.from_coo(rows, cols, vals, shape)
    sell = SELLMatrix.from_coo(rows, cols, vals, shape, chunk=chunk)
    x = np.random.default_rng(seed).standard_normal(shape[1])
    assert np.array_equal(sell.matvec(x), ref.matvec(x))


@given(
    triples=powerlaw_triples(),
    fmt=st.sampled_from(FORMAT_NAMES + EXACT),
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_cross_format_smsv_multi_matches_csr(triples, fmt, k, seed):
    rows, cols, vals, shape = triples
    ref = CSRMatrix.from_coo(rows, cols, vals, shape)
    other = convert(ref, fmt)
    vs = _vectors(shape[1], k, seed)
    want = ref.smsv_multi(vs)
    got = other.smsv_multi(vs)
    if fmt in EXACT or fmt == "CSR":
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, atol=1e-9)


@given(triples=powerlaw_triples(), sigma=st.sampled_from([None, 8]))
@settings(max_examples=40, deadline=None)
def test_permuted_roundtrip_is_canonical(triples, sigma):
    rows, cols, vals, shape = triples
    wrapped = RSELLMatrix.from_coo(rows, cols, vals, shape, sigma=sigma)
    r2, c2, v2 = wrapped.to_coo()
    assert np.array_equal(r2, rows)
    assert np.array_equal(c2, cols)
    assert np.array_equal(v2, vals)
