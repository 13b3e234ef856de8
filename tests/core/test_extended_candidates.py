"""Candidate sets beyond the paper's five, and restrictions of them."""

import numpy as np
import pytest

from repro.core import AutoTuner, LayoutScheduler
from repro.core.scheduler import BAND, STRATEGIES
from repro.features import profile_from_dense
from repro.formats import from_dense
from repro.obs.audit import audit_log


class TestExtendedCandidates:
    def test_probe_accepts_extended(self, small_sparse):
        candidates = ("CSR", "COO", "SELL", "RSELL")
        sched = LayoutScheduler(
            "probe",
            candidates=candidates,
            tuner=AutoTuner(repeats=1, smsv_per_probe=1),
        )
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert d.fmt in candidates
        assert set(d.measured) == set(candidates)

    def test_invalid_candidate_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            LayoutScheduler("probe", candidates=("JDS",))
        with pytest.raises(ValueError, match="unknown format"):
            LayoutScheduler("cost", candidates=("CSC",))
        with pytest.raises(ValueError, match="non-empty"):
            LayoutScheduler("probe", candidates=())

    def test_conversion_roundtrip_via_scheduler(self, small_sparse):
        sched = LayoutScheduler(
            "probe",
            candidates=("SELL", "CSR"),
            tuner=AutoTuner(repeats=1, smsv_per_probe=1),
        )
        m, d = sched.apply(from_dense(small_sparse, "DEN"))
        assert m.name == d.fmt
        assert np.allclose(m.to_dense(), small_sparse)


@pytest.mark.parametrize(
    "candidates", [("CSR", "SELL"), ("CSR", "DIA"), ("RSELL",)], ids="-".join
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_decision_stays_inside_candidates(strategy, candidates, small_sparse):
    """``candidates`` bounds every strategy: the rules strategy refuses
    any restriction, the others decide inside it, the model prices
    exactly the set and the hybrid probes exactly its two cheapest,
    unless the model's margin reaches ``BAND`` and it probes nothing."""
    if strategy == "rules":
        with pytest.raises(ValueError):
            LayoutScheduler(strategy, candidates=candidates)
        return
    sched = LayoutScheduler(
        strategy,
        candidates=candidates,
        tuner=AutoTuner(repeats=1, smsv_per_probe=1),
    )
    d = sched.decide(from_dense(small_sparse, "CSR"))
    assert d.fmt in candidates
    assert set(d.predicted) == set(candidates)
    assert set(audit_log().records()[-1].predicted) == set(candidates)
    if strategy == "hybrid" and len(candidates) > 1:
        costs = list(d.predicted.values())
        if costs[1] >= BAND * costs[0]:
            assert d.measured == {}
            assert f"band {BAND}x" in d.reason
            assert d.fmt == list(d.predicted)[0]
        else:
            assert set(d.measured) == set(list(d.predicted)[:2])


class TestHybridBand:
    """The hybrid probes only when the model's margin is below BAND."""

    @staticmethod
    def _count_probes(monkeypatch):
        calls = []
        real = AutoTuner.probe

        def counted(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(AutoTuner, "probe", counted)
        return calls

    def test_decisive_profile_skips_the_probe(self, monkeypatch, rng):
        calls = self._count_probes(monkeypatch)
        sched = LayoutScheduler(
            "hybrid", tuner=AutoTuner(repeats=1, smsv_per_probe=1)
        )
        d = sched.decide(from_dense(rng.standard_normal((64, 32)), "CSR"))
        costs = list(d.predicted.values())
        assert costs[1] >= BAND * costs[0]
        assert calls == []
        assert d.fmt == "DEN"
        assert d.measured == {}
        assert d.source == "analytic"
        assert f"band {BAND}x; probe skipped" in d.reason

    def test_close_profile_probes_once(self, monkeypatch, small_sparse):
        calls = self._count_probes(monkeypatch)
        sched = LayoutScheduler(
            "hybrid", tuner=AutoTuner(repeats=1, smsv_per_probe=1)
        )
        d = sched.decide(from_dense(small_sparse, "CSR"))
        costs = list(d.predicted.values())
        assert costs[1] < BAND * costs[0]
        assert len(calls) == 1
        assert set(d.measured) == set(list(d.predicted)[:2])
        assert d.source == "probe"
        assert f"< band {BAND}x" in d.reason

    def test_decide_profile_needs_no_matrix_when_decisive(
        self, rng, small_sparse
    ):
        sched = LayoutScheduler("hybrid")
        dense = profile_from_dense(rng.standard_normal((64, 32)))
        assert sched.decide_profile(dense, batch_k=1).fmt == "DEN"
        with pytest.raises(ValueError, match="needs the matrix"):
            sched.decide_profile(profile_from_dense(small_sparse), batch_k=1)
