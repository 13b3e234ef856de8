"""Candidate sets beyond the paper's five, and restrictions of them."""

import numpy as np
import pytest

from repro.core import AutoTuner, LayoutScheduler
from repro.core.scheduler import STRATEGIES
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
    exactly the set and the hybrid probes only its shortlist."""
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
        assert set(d.measured) == set(list(d.predicted)[: sched.shortlist])
