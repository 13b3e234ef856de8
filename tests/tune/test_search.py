"""Search harness tests: incumbent protection, determinism, resume."""

import numpy as np
import pytest

from repro.data.synthetic import uniform_rows_matrix
from repro.tune.search import (
    FamilyResult,
    ProbeContext,
    TuneSearch,
    params_key,
)
from repro.tune.space import KNOB_FAMILIES, knob_for


class StubCtx:
    """A fake probe context: cost comes from a table, not a clock."""

    def __init__(self, cost_fn, profile=None):
        self.cost_fn = cost_fn
        self.profile = profile
        self.shape = (16, 16)
        self.calls = 0

    def measurer_for(self, family):
        def measure(config, repeats):
            self.calls += 1
            return self.cost_fn(config)

        return measure


class TestParamsKey:
    def test_canonical_order(self):
        assert params_key({"b": 2, "a": 1}) == params_key({"a": 1, "b": 2})

    def test_distinct_configs_distinct_keys(self):
        assert params_key({"a": 1}) != params_key({"a": 2})


class TestTuneFamily:
    def test_finds_the_measured_argmin(self):
        ctx = StubCtx(lambda c: 0.1 if c["chunk"] == 32 else 1.0)
        r = TuneSearch(seed=0).tune_family("sell_chunk", ctx)
        assert r.best == {"chunk": 32}
        assert r.improved
        assert r.best_seconds <= r.default_seconds
        assert r.speedup == pytest.approx(10.0)

    def test_incumbent_protection_default_wins_ties(self):
        # Every configuration measures identically: the persisted
        # winner must be the analytic default, not an arbitrary rival.
        ctx = StubCtx(lambda c: 1.0)
        r = TuneSearch(seed=0).tune_family("sell_chunk", ctx)
        assert r.best == r.default
        assert not r.improved

    def test_default_never_beaten_by_noise_reversal(self):
        # A rival that wins the cheap rungs but loses the final
        # head-to-head must not be persisted: the final measurement
        # pair decides, and the default is re-raced at full fidelity.
        ctx = StubCtx(lambda c: 1.0)  # flat; protection keeps the default
        r = TuneSearch(seed=0, base_repeats=2, max_repeats=8).tune_family(
            "sell_chunk", ctx
        )
        assert r.best == r.default
        assert r.best_seconds <= r.default_seconds

    def test_deterministic_across_instances(self):
        cost = lambda c: float(c["sigma"] % 7) + 0.5
        r1 = TuneSearch(seed=3).tune_family("sigma", StubCtx(cost))
        r2 = TuneSearch(seed=3).tune_family("sigma", StubCtx(cost))
        assert r1.best == r2.best
        assert r1.best_seconds == r2.best_seconds
        assert r1.fidelity == r2.fidelity

    def test_memoisation_never_remeasures(self):
        ctx = StubCtx(lambda c: float(c["chunk"]))
        search = TuneSearch(seed=0)
        search.tune_family("sell_chunk", ctx)
        calls = ctx.calls
        search.tune_family("sell_chunk", ctx)  # same knobs, same rungs
        assert ctx.calls == calls

    def test_resume_from_prior_measurements(self):
        ctx1 = StubCtx(lambda c: float(c["chunk"]))
        s1 = TuneSearch(seed=0)
        r1 = s1.tune_family("sell_chunk", ctx1)
        # a later process reloads the measurement memo: zero re-timing
        ctx2 = StubCtx(lambda c: float(c["chunk"]))
        s2 = TuneSearch(seed=0, prior=s1.measurements)
        r2 = s2.tune_family("sell_chunk", ctx2)
        assert ctx2.calls == 0
        assert r2.best == r1.best
        assert s2.spent == 0  # cached rungs cost no budget

    def test_budget_exhaustion_still_yields_honest_result(self):
        ctx = StubCtx(lambda c: 0.1 if c["chunk"] == 64 else 1.0)
        r = TuneSearch(seed=0, budget=1).tune_family("sell_chunk", ctx)
        # the final head-to-head always runs, so the pair is measured
        assert r.best_seconds <= r.default_seconds
        assert isinstance(r, FamilyResult)

    def test_trials_recorded(self):
        ctx = StubCtx(lambda c: 1.0)
        r = TuneSearch(seed=0).tune_family("sell_chunk", ctx)
        assert len(r.trials) >= 1
        d = r.as_dict()
        assert d["family"] == "sell_chunk"
        assert d["trials"] == len(r.trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            TuneSearch(base_repeats=0)
        with pytest.raises(ValueError):
            TuneSearch(base_repeats=4, max_repeats=2)
        with pytest.raises(ValueError):
            TuneSearch(budget=0)


class TestProbeContext:
    def test_probe_ids_deterministic_and_in_range(self):
        rows, cols, vals, shape = uniform_rows_matrix(64, 32, 4, seed=1)
        a = ProbeContext(rows, cols, vals, shape, seed=5)
        b = ProbeContext(rows, cols, vals, shape, seed=5)
        assert a.probe_ids == b.probe_ids
        assert len(set(a.probe_ids)) == len(a.probe_ids)
        assert all(0 <= i < shape[0] for i in a.probe_ids)

    def test_tiny_matrix_clamps_probe_count(self):
        rows, cols, vals, shape = uniform_rows_matrix(3, 8, 2, seed=1)
        ctx = ProbeContext(rows, cols, vals, shape, smsv_per_probe=8)
        assert len(ctx.probe_ids) == 3

    def test_empty_matrix_rejected(self):
        e = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            ProbeContext(e, e, np.empty(0), (0, 4))

    def test_unknown_family_has_no_measurer(self):
        rows, cols, vals, shape = uniform_rows_matrix(8, 8, 2, seed=1)
        ctx = ProbeContext(rows, cols, vals, shape)
        for family in ("nope", "batch_k", "row_blocks", "workers"):
            with pytest.raises(ValueError, match="no measurer"):
                ctx.measurer_for(family)

    def test_real_measurers_return_positive_seconds(self):
        rows, cols, vals, shape = uniform_rows_matrix(32, 16, 4, seed=2)
        ctx = ProbeContext(rows, cols, vals, shape, seed=2)
        for family in KNOB_FAMILIES:
            knob = knob_for(family)
            config = knob.config(knob.default_value(ctx.profile))
            assert ctx.measurer_for(family)(config, 1) > 0.0


class TestEndToEnd:
    def test_search_on_a_real_probe_context(self):
        rows, cols, vals, shape = uniform_rows_matrix(64, 32, 4, seed=4)
        ctx = ProbeContext(rows, cols, vals, shape, seed=4)
        search = TuneSearch(seed=4, base_repeats=1, max_repeats=2, budget=48)
        results = search.tune(ctx, ("sell_chunk", "row_cache_mb"))
        assert set(results) == {"sell_chunk", "row_cache_mb"}
        for family, r in results.items():
            knob_for(family).validate(r.best)  # persisted winner is legal
            assert r.best_seconds <= r.default_seconds
