"""The ``batch_k`` knob: amortised per-column cost in the cost model,
the scheduler, and the decision cache."""

import numpy as np
import pytest

from repro.core.cost_model import CostModel
from repro.core.scheduler import DecisionCache, LayoutScheduler
from repro.data.synthetic import uniform_rows_matrix
from repro.features import profile_from_coo
from repro.formats import FORMAT_NAMES


@pytest.fixture
def profile():
    rows, cols, _vals, shape = uniform_rows_matrix(400, 200, 12, seed=3)
    return profile_from_coo(rows, cols, shape, validated=True)


class TestBatchedCost:
    def test_batch_k_one_is_the_legacy_model(self, profile):
        model = CostModel()
        for fmt in FORMAT_NAMES:
            legacy = model.cost(fmt, profile)
            batched = model.cost(fmt, profile, batch_k=1)
            assert batched.cost == pytest.approx(legacy.cost, rel=1e-12)

    def test_sparse_formats_amortise(self, profile):
        # One k-wide sweep must be cheaper than k single sweeps for any
        # format with a traversal component (index streams to re-read).
        model = CostModel()
        k = 8
        for fmt in ("CSR", "COO", "ELL", "DIA"):
            single = model.cost(fmt, profile).cost
            batched = model.cost(fmt, profile, batch_k=k).cost
            assert batched < k * single

    def test_dense_has_no_amortisation(self, profile):
        # DEN has no index stream: a k-wide sweep is exactly k times
        # one sweep (minus nothing), so batching buys no traversal.
        model = CostModel()
        single = model.cost("DEN", profile)
        batched = model.cost("DEN", profile, batch_k=4)
        assert batched.cost == pytest.approx(
            4 * (single.cost - single.overhead) + single.overhead,
            rel=1e-12,
        )

    def test_batch_k_validation(self, profile):
        model = CostModel()
        with pytest.raises(ValueError, match="batch_k"):
            model.cost("CSR", profile, batch_k=0)

    def test_rank_is_batch_aware(self, profile):
        model = CostModel()
        ranked = model.rank(profile, batch_k=4)
        assert sorted(c.fmt for c in ranked) == sorted(FORMAT_NAMES)
        assert ranked == sorted(ranked)


class TestDecisionCacheBatchKey:
    def test_key_carries_batch_k(self, profile):
        assert DecisionCache.key(profile, 1) != DecisionCache.key(
            profile, 2
        )

    def test_entries_are_batch_scoped(self, profile):
        cache = DecisionCache()
        cache.put(profile, "CSR", 1)
        cache.put(profile, "COO", 4)
        assert cache.get(profile, 1) == "CSR"
        assert cache.get(profile, 4) == "COO"
        assert cache.get(profile, 2) is None


class TestSchedulerBatchK:
    def test_default_is_one(self):
        assert LayoutScheduler("cost").batch_k == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_k"):
            LayoutScheduler("cost", batch_k=0)

    def test_cost_strategy_uses_batch_k(self):
        rows, cols, vals, shape = uniform_rows_matrix(
            400, 200, 12, seed=3
        )
        for batch_k in (1, 2, 8):
            sched = LayoutScheduler("cost", batch_k=batch_k)
            decision = sched.decide_from_coo(rows, cols, vals, shape)
            # The decision must agree with a direct batched ranking.
            model = CostModel()
            expected = model.best(decision.profile, batch_k=batch_k)
            assert decision.fmt == expected

    def test_cache_isolated_between_batch_widths(self):
        rows, cols, vals, shape = uniform_rows_matrix(
            400, 200, 12, seed=3
        )
        s1 = LayoutScheduler("cost", batch_k=1)
        s2 = LayoutScheduler("cost", batch_k=2)
        s2.cache = s1.cache  # shared cache, different widths
        d1 = s1.decide_from_coo(rows, cols, vals, shape)
        d2 = s2.decide_from_coo(rows, cols, vals, shape)
        # d2 must not have been served from d1's entry.
        assert s1.cache.get(d1.profile, 1, s1.cache_scope) == d1.fmt
        assert s1.cache.get(d2.profile, 2, s2.cache_scope) == d2.fmt
