"""Decision audit log: regret math, dataset labels, the source split."""

from __future__ import annotations

import pytest

from repro.obs.audit import (
    AuditLog,
    DecisionRecord,
    audit_dataset,
    current_dataset,
    regret_by_decision_source,
    regret_rows,
    render_regret_table,
)


def _record(**overrides):
    base = dict(
        source="schedule",
        dataset="synthetic",
        strategy="cost",
        batch_k=1,
        chosen="ELL",
        reason="test",
        cached=False,
        features={"m": 10.0},
        predicted={"ELL": 1.0, "CSR": 2.0},
        measured={"ELL": 2e-6, "CSR": 1e-6},
    )
    base.update(overrides)
    return DecisionRecord(**base)


class TestRegretMath:
    def test_bests(self):
        r = _record()
        assert r.predicted_best == "ELL"
        assert r.measured_best == "CSR"

    def test_regret_penalty(self):
        # model picked ELL (2us) where CSR (1us) measured best: +100 %
        assert _record().regret() == pytest.approx(1.0)

    def test_zero_regret_on_agreement(self):
        r = _record(measured={"ELL": 1e-6, "CSR": 2e-6})
        assert r.regret() == 0.0

    def test_no_measurement_means_no_regret(self):
        assert _record(measured={}).regret() is None
        assert _record(measured={}).measured_best is None

    def test_no_prediction_means_no_regret(self):
        r = _record(predicted={})
        assert r.predicted_best is None
        assert r.regret() is None

    def test_predicted_best_missing_from_measured(self):
        r = _record(measured={"CSR": 1e-6})
        assert r.regret() is None

    def test_zero_best_cost_guard(self):
        r = _record(measured={"ELL": 0.0, "CSR": 0.0})
        assert r.regret() == 0.0

    def test_dict_round_trip(self):
        r = _record()
        assert DecisionRecord.from_dict(r.as_dict()) == r


class TestDatasetLabel:
    def test_default_is_empty(self):
        assert current_dataset() == ""

    def test_context_sets_and_restores(self):
        with audit_dataset("webspam"):
            assert current_dataset() == "webspam"
            with audit_dataset("inner"):
                assert current_dataset() == "inner"
            assert current_dataset() == "webspam"
        assert current_dataset() == ""


class TestAuditLog:
    def test_record_and_filter_by_source(self):
        log = AuditLog()
        log.record(_record(source="schedule"))
        log.record(_record(source="serve"))
        assert len(log) == 2
        assert [r.source for r in log.records("serve")] == ["serve"]

    def test_bounded(self):
        log = AuditLog(maxlen=2)
        for i in range(4):
            log.record(_record(reason=str(i)))
        assert [r.reason for r in log.records()] == ["2", "3"]

    def test_rejects_bad_maxlen(self):
        with pytest.raises(ValueError):
            AuditLog(maxlen=0)

    def test_clear_empties_the_log(self):
        log = AuditLog()
        log.record(_record())
        log.clear()
        assert len(log) == 0
        assert log.records() == []


class TestRegretBySource:
    def test_split_prices_the_pick_not_the_model(self):
        # A tuned decision chose CSR where the model's pick was ELL:
        # the table's regret is the model's (+100 %), the per-source
        # split is the tuning cache's (CSR measured best: 0 %).
        tuned = _record(chosen="CSR", decision_source="tuned")
        assert tuned.regret() == pytest.approx(1.0)
        split = regret_by_decision_source([tuned])["tuned"]
        assert split["n"] == split["n_with_regret"] == 1
        assert split["mean_regret"] == 0.0
        assert split["max_regret"] == 0.0

    def test_unmeasured_pick_has_no_split_regret(self):
        probed = _record(
            chosen="COO", decision_source="probe",
            measured={"ELL": 2e-6, "CSR": 1e-6},
        )
        split = regret_by_decision_source([probed])["probe"]
        assert split["n"] == 1
        assert split["n_with_regret"] == 0
        assert split["mean_regret"] is None


class TestRegretTable:
    def test_rows_follow_records(self):
        rows = regret_rows([_record(), _record(dataset="")])
        assert rows[0].dataset == "synthetic"
        assert rows[1].dataset == "<unlabelled>"
        assert rows[0].regret == pytest.approx(1.0)

    def test_render_contains_all_rows(self):
        rows = regret_rows(
            [_record(), _record(measured={}, dataset="nomeas")]
        )
        text = render_regret_table(rows)
        assert "synthetic" in text
        assert "nomeas" in text
        assert "100.0%" in text
        assert "--" in text  # the unmeasured row renders a placeholder
