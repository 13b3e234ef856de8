"""The regret report suite — including the known-correct dense pin."""

from __future__ import annotations

import pytest

from repro.formats.base import FORMAT_NAMES
from repro.obs.report import (
    REPORT_DATASET_NAMES,
    render_report,
    report_payload,
    run_report,
)


@pytest.fixture(scope="module")
def quick_records():
    """One quick suite run shared across the module (probe-heavy)."""
    return run_report(quick=True, repeats=1, seed=0)


class TestRunReport:
    def test_one_record_per_dataset(self, quick_records):
        assert [r.dataset for r in quick_records] == list(
            REPORT_DATASET_NAMES
        )
        assert len(quick_records) == 5

    def test_records_carry_full_evidence(self, quick_records):
        for r in quick_records:
            assert r.source == "schedule"
            assert set(r.predicted) == set(FORMAT_NAMES)
            assert set(r.measured) == set(FORMAT_NAMES)
            assert r.features["m"] > 0
            assert r.chosen == r.predicted_best
            assert r.decision_source == "analytic"
            assert r.strategy == "cost"

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_report(repeats=0)

    def test_dense_dataset_has_zero_regret(self, quick_records):
        """Acceptance-criteria pin: on the known-correct dense dataset
        the model and the machine agree (DEN), so regret is exactly 0.
        """
        dense = [r for r in quick_records if r.dataset == "dense"][0]
        assert dense.predicted_best == "DEN"
        assert dense.measured_best == "DEN"
        assert dense.regret() == 0.0


class TestReportPayload:
    def test_aggregate_fields(self, quick_records):
        payload = report_payload(quick_records)
        assert payload["n_datasets"] == 5
        assert 0 <= payload["n_agreements"] <= 5
        assert payload["mean_regret"] is not None
        assert payload["mean_regret"] >= 0.0
        assert payload["max_regret"] >= payload["mean_regret"] or (
            payload["max_regret"] == payload["mean_regret"]
        )
        assert len(payload["rows"]) == 5
        assert len(payload["records"]) == 5

    def test_payload_handles_unmeasured_records(self, quick_records):
        bare = [
            type(r).from_dict({**r.as_dict(), "measured": {}})
            for r in quick_records
        ]
        payload = report_payload(bare)
        assert payload["mean_regret"] is None
        assert payload["max_regret"] is None


class TestRenderReport:
    def test_table_and_summary_line(self, quick_records):
        text = render_report(quick_records)
        for name in REPORT_DATASET_NAMES:
            assert name in text
        assert "prediction matched measurement on" in text
        assert "mean regret" in text
