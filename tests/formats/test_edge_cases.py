"""Degenerate shapes: empty matrices, single cells, extreme aspect."""

import numpy as np
import pytest

from repro.features import profile_from_dense
from repro.formats import FORMAT_CLASSES, SparseVector, convert, from_dense


ALL_FORMATS = tuple(FORMAT_CLASSES)


class TestEmptyAndTiny:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_all_zero_matrix(self, fmt):
        a = np.zeros((5, 4))
        m = from_dense(a, fmt)
        assert m.nnz == 0
        assert np.allclose(m.matvec(np.ones(4)), np.zeros(5))
        assert np.allclose(m.to_dense(), a)
        for i in range(5):
            assert m.row(i).nnz == 0

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_one_by_one(self, fmt):
        for val in (0.0, 3.5):
            a = np.array([[val]])
            m = from_dense(a, fmt)
            assert np.allclose(m.matvec(np.array([2.0])), [2.0 * val])
            assert np.allclose(m.to_dense(), a)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_single_row(self, fmt, rng):
        a = rng.standard_normal((1, 12)) * (rng.random((1, 12)) < 0.5)
        m = from_dense(a, fmt)
        x = rng.standard_normal(12)
        assert np.allclose(m.matvec(x), a @ x)
        assert np.allclose(m.row(0).to_dense(), a[0])

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_single_column(self, fmt, rng):
        a = rng.standard_normal((12, 1)) * (rng.random((12, 1)) < 0.5)
        m = from_dense(a, fmt)
        assert np.allclose(m.matvec(np.array([2.0])), a[:, 0] * 2.0)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_extreme_aspect_ratios(self, fmt, rng):
        for shape in [(2, 200), (200, 2)]:
            a = (rng.random(shape) < 0.1) * rng.standard_normal(shape)
            m = from_dense(a, fmt)
            x = rng.standard_normal(shape[1])
            assert np.allclose(m.matvec(x), a @ x)
            assert np.allclose(m.to_dense(), a)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_smsv_with_empty_vector(self, fmt, small_sparse):
        m = from_dense(small_sparse, fmt)
        v = SparseVector.from_dense(np.zeros(30))
        assert np.allclose(m.smsv(v), np.zeros(40))

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_dimension_shapes(self, fmt, shape):
        m = from_dense(np.zeros(shape), fmt)
        assert m.nnz == 0
        y = m.matvec(np.zeros(shape[1]))
        assert y.shape == (shape[0],)
        assert m.to_dense().shape == shape
        r, c, v = m.to_coo()
        assert r.size == c.size == v.size == 0

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_zero_dimension_conversions(self, fmt):
        for shape in [(0, 5), (5, 0), (0, 0)]:
            m = from_dense(np.zeros(shape), fmt)
            for dst in ALL_FORMATS:
                d = convert(m, dst)
                assert d.shape == shape and d.nnz == 0


class TestProfileEdgeCases:
    def test_single_nnz_profile(self):
        a = np.zeros((6, 8))
        a[3, 5] = 1.0
        p = profile_from_dense(a)
        assert p.nnz == 1 and p.ndig == 1 and p.mdim == 1
        assert p.dnnz == 1.0

    def test_one_by_one_profiles(self):
        p0 = profile_from_dense(np.zeros((1, 1)))
        assert p0.nnz == 0
        p1 = profile_from_dense(np.ones((1, 1)))
        assert (p1.nnz, p1.ndig, p1.mdim) == (1, 1, 1)
        assert p1.density == 1.0


class TestSchedulerEdgeCases:
    def test_schedules_empty_matrix(self):
        from repro.core import LayoutScheduler

        sched = LayoutScheduler("cost")
        e = np.empty(0, dtype=np.int64)
        decision = sched.decide_from_coo(e, e, np.empty(0), (5, 5))
        assert decision.fmt in ALL_FORMATS

    def test_rules_empty_matrix(self):
        from repro.core.rules import rule_based_choice

        p = profile_from_dense(np.zeros((4, 4)))
        assert rule_based_choice(p).fmt == "CSR"
