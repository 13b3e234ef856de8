"""Row reordering: sigma-window permutations and transparent wrappers.

The contract under test: a :class:`PermutedMatrix` answers every query
in the *original* index space — callers cannot tell rows were
reordered.  For the CSR- and SELL-backed wrappers the agreement with
the unpermuted CSR reference is bitwise (the stored kernels reduce
CSR's product array in CSR's order; the wrapper only scatters finished
row sums).
"""

import numpy as np
import pytest

from repro.analysis import FormatInvariantError, check_format, format_violations
from repro.data.synthetic import powerlaw_rows_matrix
from repro.formats import SparseVector
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import (
    PermutedMatrix,
    RCSRMatrix,
    RSELLMatrix,
    invert_permutation,
    sigma_window_permutation,
)

BITWISE_WRAPPERS = (RCSRMatrix, RSELLMatrix)


@pytest.fixture
def triples():
    return powerlaw_rows_matrix(
        120, 50, alpha=1.6, min_nnz=1, max_nnz=40, seed=9
    )


class TestSigmaWindowPermutation:
    def test_global_sort_is_descending(self, rng):
        lengths = rng.integers(0, 50, size=200)
        perm = sigma_window_permutation(lengths)
        sorted_lengths = lengths[perm]
        assert np.all(np.diff(sorted_lengths) <= 0)

    def test_windows_sort_locally_only(self, rng):
        lengths = rng.integers(0, 50, size=100)
        perm = sigma_window_permutation(lengths, sigma=16)
        for w0 in range(0, 100, 16):
            w1 = min(w0 + 16, 100)
            # rows stay inside their window...
            assert np.all((perm[w0:w1] >= w0) & (perm[w0:w1] < w1))
            # ...and are descending within it
            assert np.all(np.diff(lengths[perm[w0:w1]]) <= 0)

    def test_stable_on_ties(self):
        lengths = np.array([3, 3, 3, 3])
        assert np.array_equal(
            sigma_window_permutation(lengths), np.arange(4)
        )

    def test_invert_permutation(self, rng):
        perm = rng.permutation(37)
        inv = invert_permutation(perm)
        assert np.array_equal(perm[inv], np.arange(37))
        assert np.array_equal(inv[perm], np.arange(37))


class TestTransparency:
    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    @pytest.mark.parametrize("sigma", [None, 8, 32])
    def test_matvec_bitwise_vs_csr(self, triples, rng, cls, sigma):
        rows, cols, vals, shape = triples
        ref = CSRMatrix.from_coo(rows, cols, vals, shape)
        wrapped = cls.from_coo(rows, cols, vals, shape, sigma=sigma)
        x = rng.standard_normal(shape[1])
        assert np.array_equal(wrapped.matvec(x), ref.matvec(x))

    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_matmat_bitwise_vs_csr(self, triples, rng, cls, k):
        rows, cols, vals, shape = triples
        ref = CSRMatrix.from_coo(rows, cols, vals, shape)
        wrapped = cls.from_coo(rows, cols, vals, shape)
        V = rng.standard_normal((shape[1], k))
        assert np.array_equal(wrapped.matmat(V), ref.matmat(V))

    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    def test_rows_in_original_index_space(self, triples, cls):
        rows, cols, vals, shape = triples
        ref = CSRMatrix.from_coo(rows, cols, vals, shape)
        wrapped = cls.from_coo(rows, cols, vals, shape)
        for i in range(shape[0]):
            a, b = wrapped.row(i), ref.row(i)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    def test_row_norms_bitwise(self, triples, cls):
        rows, cols, vals, shape = triples
        ref = CSRMatrix.from_coo(rows, cols, vals, shape)
        wrapped = cls.from_coo(rows, cols, vals, shape)
        assert np.array_equal(wrapped.row_norms_sq(), ref.row_norms_sq())

    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    def test_smsv_bitwise(self, triples, rng, cls):
        rows, cols, vals, shape = triples
        ref = CSRMatrix.from_coo(rows, cols, vals, shape)
        wrapped = cls.from_coo(rows, cols, vals, shape)
        xv = rng.standard_normal(shape[1]) * (rng.random(shape[1]) < 0.3)
        v = SparseVector.from_dense(xv)
        assert np.array_equal(wrapped.smsv(v), ref.smsv(v))

    def test_to_coo_is_canonical(self, triples):
        rows, cols, vals, shape = triples
        wrapped = RCSRMatrix.from_coo(rows, cols, vals, shape)
        r2, c2, v2 = wrapped.to_coo()
        assert np.array_equal(r2, rows)
        assert np.array_equal(c2, cols)
        assert np.array_equal(v2, vals)

    def test_stored_rows_actually_sorted(self, triples):
        rows, cols, vals, shape = triples
        wrapped = RSELLMatrix.from_coo(rows, cols, vals, shape)
        stored_lengths = np.asarray(wrapped.stored.row_lengths)
        assert np.all(np.diff(stored_lengths) <= 0)
        # the permutation really moved something on this shape
        assert not np.array_equal(wrapped.perm, np.arange(shape[0]))

    def test_storage_counts_perm_vector(self, triples):
        rows, cols, vals, shape = triples
        wrapped = RCSRMatrix.from_coo(rows, cols, vals, shape)
        assert (
            wrapped.storage_elements()
            == wrapped.stored.storage_elements() + shape[0]
        )


class TestDegenerateShapes:
    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS)
    def test_empty_and_zero_row_shapes(self, cls):
        e = np.empty(0, dtype=np.int64)
        for shape in [(0, 4), (5, 4)]:
            m = cls.from_coo(e, e, np.empty(0), shape)
            assert m.nnz == 0
            assert np.array_equal(
                m.matvec(np.ones(4)), np.zeros(shape[0])
            )

    def test_single_row(self, rng):
        rows = np.zeros(3, dtype=np.int64)
        cols = np.array([1, 4, 6], dtype=np.int64)
        vals = rng.standard_normal(3)
        m = RSELLMatrix.from_coo(rows, cols, vals, (1, 8))
        ref = CSRMatrix.from_coo(rows, cols, vals, (1, 8))
        x = rng.standard_normal(8)
        assert np.array_equal(m.matvec(x), ref.matvec(x))


class TestSanitizer:
    @pytest.mark.parametrize("cls", BITWISE_WRAPPERS + (PermutedMatrix,))
    def test_healthy_wrapper_passes(self, triples, cls):
        rows, cols, vals, shape = triples
        m = cls.from_coo(rows, cols, vals, shape)
        assert format_violations(m) == []
        assert format_violations(m, deep=True) == []

    def test_corrupt_perm_not_a_permutation(self, triples):
        rows, cols, vals, shape = triples
        m = RCSRMatrix.from_coo(rows, cols, vals, shape)
        m.perm[0] = m.perm[1]
        with pytest.raises(
            FormatInvariantError, match="not a permutation"
        ):
            check_format(m)

    def test_corrupt_inverse(self, triples):
        rows, cols, vals, shape = triples
        m = RCSRMatrix.from_coo(rows, cols, vals, shape)
        m.inv_perm[:] = np.roll(m.inv_perm, 1)
        with pytest.raises(
            FormatInvariantError, match="inv_perm is not the inverse"
        ):
            check_format(m)

    def test_corrupt_stored_core_is_attributed(self, triples):
        rows, cols, vals, shape = triples
        m = RSELLMatrix.from_coo(rows, cols, vals, shape)
        pad = np.nonzero(~m.stored._valid)[0]
        assert pad.size
        m.stored.data[pad[0]] = 1.0
        with pytest.raises(
            FormatInvariantError, match="stored SELL: padding slot"
        ):
            check_format(m)
