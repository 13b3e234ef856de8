"""LayoutScheduler facade and DecisionCache tests."""

import numpy as np
import pytest

from repro.core import DecisionCache, LayoutScheduler, schedule_layout
from repro.core.scheduler import STRATEGIES
from repro.features import profile_from_dense
from repro.formats import from_dense


class TestCache:
    def test_put_get(self, small_sparse):
        p = profile_from_dense(small_sparse)
        c = DecisionCache()
        assert c.get(p) is None
        c.put(p, "ELL")
        assert c.get(p) == "ELL"
        assert len(c) == 1

    def test_similar_profiles_share_entries(self, small_sparse):
        # Perturbing one value within quantisation tolerance (away from
        # a rounding boundary) hits the same cache slot.
        p1 = profile_from_dense(small_sparse)
        import dataclasses

        p1 = dataclasses.replace(p1, vdim=1.0)
        p2 = dataclasses.replace(p1, vdim=1.04)
        c = DecisionCache()
        c.put(p1, "CSR")
        assert c.get(p2) == "CSR"

    def test_different_profiles_distinct(self, small_sparse, banded):
        c = DecisionCache()
        c.put(profile_from_dense(small_sparse), "CSR")
        assert c.get(profile_from_dense(banded)) is None

    def test_eviction(self):
        import dataclasses

        c = DecisionCache(maxsize=2)
        base = profile_from_dense(np.eye(4))
        ps = [dataclasses.replace(base, m=m * 100) for m in (1, 2, 3)]
        for p in ps:
            c.put(p, "CSR")
        assert len(c) == 2
        assert c.get(ps[0]) is None  # FIFO evicted
        assert c.get(ps[2]) == "CSR"

    def test_clear(self, small_sparse):
        c = DecisionCache()
        c.put(profile_from_dense(small_sparse), "CSR")
        c.clear()
        assert len(c) == 0

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            DecisionCache(maxsize=0)


class TestScheduler:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_decides(self, strategy, small_sparse):
        sched = LayoutScheduler(strategy)
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert d.fmt in ("DEN", "CSR", "COO", "ELL", "DIA")
        assert d.strategy == strategy
        assert d.reason
        assert not d.cached

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            LayoutScheduler("magic")

    def test_second_decision_is_cached(self, small_sparse):
        sched = LayoutScheduler("cost")
        m = from_dense(small_sparse, "CSR")
        d1 = sched.decide(m)
        d2 = sched.decide(m)
        assert d2.cached and d2.fmt == d1.fmt

    def test_apply_converts(self, small_sparse):
        sched = LayoutScheduler("cost")
        m, d = sched.apply(from_dense(small_sparse, "DEN"))
        assert m.name == d.fmt
        assert np.allclose(m.to_dense(), small_sparse)

    def test_hybrid_probes_shortlist_only(self, small_sparse):
        sched = LayoutScheduler("hybrid")
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert "shortlist" in d.reason

    def test_hybrid_shortlist_of_one_skips_probe(self, small_sparse):
        # One candidate leaves nothing to race: a model decision with
        # no probe timings.
        sched = LayoutScheduler("hybrid", candidates=("ELL",))
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert d.fmt == "ELL"
        assert d.reason == "cost model shortlist of one"
        assert d.source == "analytic" and not d.measured

    def test_shared_cache_across_schedulers(self, small_sparse):
        cache = DecisionCache()
        m = from_dense(small_sparse, "CSR")
        LayoutScheduler("cost", cache=cache).decide(m)
        d = LayoutScheduler("cost", cache=cache).decide(m)
        assert d.cached
        # a different strategy owns a different slice of the cache
        assert not LayoutScheduler("rules", cache=cache).decide(m).cached

    def test_shared_cache_respects_candidate_sets(self):
        # A default scheduler's DEN must not leak into one whose
        # candidates exclude it; the restricted scheduler decides as if
        # its cache were fresh.
        dense = np.ones((64, 32))
        rows, cols = np.nonzero(dense)
        coo = (rows, cols, dense[rows, cols], dense.shape)
        restricted = ("CSR", "SELL", "RCSR", "RSELL")
        cache = DecisionCache()
        assert LayoutScheduler("cost", cache=cache).decide_from_coo(
            *coo
        ).fmt == "DEN"
        shared = LayoutScheduler(
            "cost", cache=cache, candidates=restricted
        ).decide_from_coo(*coo)
        fresh = LayoutScheduler(
            "cost", candidates=restricted
        ).decide_from_coo(*coo)
        assert shared.fmt == fresh.fmt == "SELL"

    def test_convenience_function(self, small_sparse):
        m, d = schedule_layout(from_dense(small_sparse, "DEN"), "cost")
        assert m.name == d.fmt


class TestStructureDecisions:
    """Scheduler picks sensible formats for canonical structures."""

    def test_banded_gets_diagonal_friendly_format(self):
        # A small tridiagonal: DIA and ELL store the same element count
        # (mdim == ndig == 3), so either is a correct pick.
        big = np.zeros((400, 400))
        for o in (-1, 0, 1):
            idx = np.arange(max(0, -o), min(400, 400 - o))
            big[idx, idx + o] = 1.0
        d = LayoutScheduler("cost").decide(from_dense(big, "CSR"))
        assert d.fmt in ("DIA", "ELL")

    def test_trefethen_scale_band_gets_dia(self):
        # At trefethen scale (wider band, larger m) DIA's index-free
        # streaming wins outright, as in the paper's Table VI.
        from repro.data import load_dataset

        ds = load_dataset("trefethen", seed=0)
        sched = LayoutScheduler("cost")
        d = sched.decide_from_coo(ds.rows, ds.cols, ds.values, ds.shape)
        assert d.fmt == "DIA"

    def test_dense_gets_den(self, rng):
        a = rng.random((100, 50)) + 1.0
        d = LayoutScheduler("cost").decide(from_dense(a, "CSR"))
        assert d.fmt == "DEN"

    def test_uniform_sparse_gets_ell(self):
        from repro.data.synthetic import uniform_rows_matrix

        rows, cols, vals, shape = uniform_rows_matrix(300, 1000, 10, seed=1)
        sched = LayoutScheduler("cost")
        d = sched.decide_from_coo(rows, cols, vals, shape)
        assert d.fmt == "ELL"


class TestConversionAmortisation:
    def test_long_runs_convert(self, small_sparse):
        sched = LayoutScheduler("cost")
        src = from_dense(small_sparse, "DIA")  # a poor layout here
        m, d = sched.apply(src)
        assert m.name == d.fmt
        assert d.fmt != "DIA"

    def test_no_hint_always_converts(self, small_sparse):
        sched = LayoutScheduler("cost")
        src = from_dense(small_sparse, "DIA")
        m, d = sched.apply(src)
        assert m.name == d.fmt

    def test_already_optimal_is_noop(self, small_sparse):
        sched = LayoutScheduler("cost")
        best = sched.decide(from_dense(small_sparse, "CSR")).fmt
        src = from_dense(small_sparse, best)
        m, d = sched.apply(src)
        assert m is src
