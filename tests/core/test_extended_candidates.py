"""Extended candidate formats (CSC/BCSR) in the scheduler."""

import numpy as np
import pytest

from repro.core import AutoTuner, LayoutScheduler
from repro.core.cost_model import ANALYTIC_FORMATS
from repro.core.scheduler import STRATEGIES
from repro.formats import FORMAT_NAMES, from_dense
from repro.obs.audit import audit_log


class TestExtendedCandidates:
    def test_probe_accepts_extended(self, small_sparse):
        sched = LayoutScheduler(
            "probe",
            candidates=("CSR", "COO", "CSC", "BCSR"),
            tuner=AutoTuner(repeats=1, smsv_per_probe=1),
        )
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert d.fmt in ("CSR", "COO", "CSC", "BCSR")

    def test_hybrid_probes_extended_alongside_shortlist(self, small_sparse):
        candidates = FORMAT_NAMES + ("BCSR",)
        sched = LayoutScheduler(
            "hybrid",
            candidates=candidates,
            tuner=AutoTuner(repeats=1, smsv_per_probe=1),
        )
        d = sched.decide(from_dense(small_sparse, "CSR"))
        assert d.fmt in candidates
        # the model's shortlist of two and the unpriced BCSR all raced
        assert set(d.measured) == set(list(d.predicted)[:2]) | {"BCSR"}

    def test_profile_strategies_reject_extended(self):
        for strategy in ("rules", "cost"):
            with pytest.raises(ValueError, match="probe or hybrid"):
                LayoutScheduler(strategy, candidates=("CSC",))

    def test_invalid_candidate_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            LayoutScheduler("probe", candidates=("JDS",))
        with pytest.raises(ValueError, match="non-empty"):
            LayoutScheduler("probe", candidates=())

    def test_csc_loses_the_smo_probe(self, small_sparse):
        # CSC's O(nnz) row extraction makes it uncompetitive for SMO's
        # access pattern — the probe (which times row + SMSV) must not
        # pick it over CSR on generic data.
        tuner = AutoTuner(repeats=3, smsv_per_probe=4)
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows,
            cols,
            small_sparse[rows, cols],
            small_sparse.shape,
            candidates=["CSR", "CSC"],
        )
        assert results[0].fmt == "CSR"

    def test_conversion_roundtrip_via_scheduler(self, small_sparse):
        sched = LayoutScheduler(
            "probe",
            candidates=("CSC", "CSR"),
            tuner=AutoTuner(repeats=1, smsv_per_probe=1),
        )
        m, d = sched.apply(from_dense(small_sparse, "DEN"))
        assert m.name == d.fmt
        assert np.allclose(m.to_dense(), small_sparse)


@pytest.mark.parametrize(
    "candidates", [("CSR", "BCSR"), ("CSR", "CSC"), ("BCSR",)], ids="-".join
)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_decision_stays_inside_candidates(strategy, candidates, small_sparse):
    """``candidates`` bounds every strategy: the profile-only strategies
    refuse a set they cannot honour, the measuring ones decide inside
    it and audit the model's costs for exactly its priced part."""
    if strategy in ("rules", "cost"):
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
    priced = {c for c in candidates if c in ANALYTIC_FORMATS}
    assert set(d.predicted) == priced
    assert set(audit_log().records()[-1].predicted) == priced
