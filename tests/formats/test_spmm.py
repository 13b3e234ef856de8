"""Blocked multi-vector SMSV (SpMM): bit-for-bit identity with the
single-vector kernels across every format, plus counter accounting.

The contract under test is the one the fused dual-row SMO path relies
on: column ``c`` of ``matmat(V)`` / ``smsv_multi(vectors)`` must equal
``matvec(V[:, c])`` / ``smsv(vectors[c])`` *bitwise* — not just to
tolerance — so batching never perturbs the training trajectory.
"""

import numpy as np
import pytest

from repro.formats import (
    FORMAT_CLASSES,
    SparseVector,
    from_dense,
)
from repro.formats.base import VALUE_DTYPE
from repro.perf import OpCounter

#: Every registered format implements the SpMM entry points.
ALL_FORMATS = tuple(FORMAT_CLASSES)


def _sparse_vectors(rng, n, k, density=0.3):
    out = []
    for _ in range(k):
        x = rng.standard_normal(n)
        x[rng.random(n) >= density] = 0.0
        out.append(SparseVector.from_dense(x))
    return out


@pytest.fixture(params=ALL_FORMATS)
def any_fmt(request):
    return request.param


class TestMatmatIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_columns_bitwise_equal_matvec(
        self, small_sparse, rng, any_fmt, k
    ):
        m = from_dense(small_sparse, any_fmt)
        V = rng.standard_normal((30, k))
        Y = m.matmat(V)
        assert Y.shape == (40, k)
        assert Y.dtype == np.dtype(VALUE_DTYPE)
        for c in range(k):
            np.testing.assert_array_equal(Y[:, c], m.matvec(V[:, c]))

    def test_banded_matrix(self, banded, rng, any_fmt):
        # DIA's natural shape: per-diagonal broadcast must stay
        # column-identical too.
        m = from_dense(banded, any_fmt)
        V = rng.standard_normal((50, 4))
        Y = m.matmat(V)
        for c in range(4):
            np.testing.assert_array_equal(Y[:, c], m.matvec(V[:, c]))

    def test_k_zero(self, small_sparse, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        Y = m.matmat(np.zeros((30, 0)))
        assert Y.shape == (40, 0)

    def test_empty_matrix(self, rng, any_fmt):
        m = from_dense(np.zeros((6, 5)), any_fmt)
        V = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(m.matmat(V), np.zeros((6, 3)))

    def test_rhs_coerced_like_matvec(self, small_sparse, any_fmt):
        # float32 and int64 blocks are coerced to VALUE_DTYPE, matching
        # matvec's np.asarray(x, dtype=VALUE_DTYPE) semantics.
        m = from_dense(small_sparse, any_fmt)
        V32 = np.ones((30, 2), dtype=np.float32)
        Vi = np.ones((30, 2), dtype=np.int64)
        ref = m.matvec(np.ones(30))
        for V in (V32, Vi):
            Y = m.matmat(V)
            assert Y.dtype == np.dtype(VALUE_DTYPE)
            np.testing.assert_array_equal(Y[:, 0], ref)
            np.testing.assert_array_equal(Y[:, 1], ref)

    def test_shape_validation(self, small_sparse, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        with pytest.raises(ValueError, match="matmat expects"):
            m.matmat(np.zeros((7, 2)))
        with pytest.raises(ValueError, match="matmat expects"):
            m.matmat(np.zeros(30))


class TestSmsvMultiIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_columns_bitwise_equal_smsv(
        self, small_sparse, rng, any_fmt, k
    ):
        m = from_dense(small_sparse, any_fmt)
        vectors = _sparse_vectors(rng, 30, k)
        Y = m.smsv_multi(vectors)
        assert Y.shape == (40, k)
        assert Y.dtype == np.dtype(VALUE_DTYPE)
        for c, v in enumerate(vectors):
            np.testing.assert_array_equal(Y[:, c], m.smsv(v))

    def test_dual_row_pair(self, small_sparse, any_fmt):
        # The SMO hot path: the two batched vectors are themselves rows
        # of the matrix.
        m = from_dense(small_sparse, any_fmt)
        vi, vj = m.row(3), m.row(12)
        Y = m.smsv_multi([vi, vj])
        np.testing.assert_array_equal(Y[:, 0], m.smsv(vi))
        np.testing.assert_array_equal(Y[:, 1], m.smsv(vj))

    def test_empty_vector_in_batch(self, small_sparse, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        empty = SparseVector.from_dense(np.zeros(30))
        dense = SparseVector.from_dense(np.ones(30))
        Y = m.smsv_multi([empty, dense])
        np.testing.assert_array_equal(Y[:, 0], np.zeros(40))
        np.testing.assert_array_equal(Y[:, 1], m.smsv(dense))

    def test_no_vectors(self, small_sparse, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        assert m.smsv_multi([]).shape == (40, 0)

    def test_accepts_any_iterable(self, small_sparse, rng, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        vectors = _sparse_vectors(rng, 30, 3)
        Y_list = m.smsv_multi(vectors)
        Y_gen = m.smsv_multi(v for v in vectors)
        np.testing.assert_array_equal(Y_list, Y_gen)

    def test_length_validation(self, small_sparse, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        bad = SparseVector.from_dense(np.ones(7))
        with pytest.raises(ValueError, match="length"):
            m.smsv_multi([bad])


class TestSpmmCounters:
    def test_matmat_reports_spmm(self, small_sparse, rng, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        V = rng.standard_normal((30, 4))
        c = OpCounter()
        m.matmat(V, c)
        assert c.spmm_calls >= 1
        assert c.spmm_columns >= 4
        assert c.flops > 0
        assert c.bytes_read > 0 and c.bytes_written > 0

    def test_smsv_multi_reports_spmm(self, small_sparse, rng, any_fmt):
        m = from_dense(small_sparse, any_fmt)
        c = OpCounter()
        m.smsv_multi(_sparse_vectors(rng, 30, 3), c)
        assert c.spmm_calls >= 1
        assert c.spmm_columns >= 3

    def test_batched_flops_match_k_singles(self, small_sparse, rng):
        # For the overriding formats the modelled flop count of one
        # k-wide sweep equals k single matvecs — SpMM saves traversal
        # and dispatch, never arithmetic.
        for fmt in ("CSR", "COO", "ELL", "DEN"):
            m = from_dense(small_sparse, fmt)
            V = rng.standard_normal((30, 3))
            batched, singles = OpCounter(), OpCounter()
            m.matmat(V, batched)
            for col in range(3):
                m.matvec(V[:, col], singles)
            assert batched.flops == singles.flops
