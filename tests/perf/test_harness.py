"""The one bench harness: every suite's record, the gates, the exit code."""

import json
import sys
import types

import pytest

from repro.cli import main
from repro.perf import harness
from repro.perf.harness import RECORD_KEYS, SUITES, Gate, record, render
from repro.tune.fingerprint import fingerprint_hash, machine_fingerprint


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_writes_the_common_schema(name, quick_record):
    rec = quick_record(name)
    assert set(rec) == set(RECORD_KEYS)
    assert (rec["suite"], rec["quick"], rec["seed"]) == (name, True, 0)
    assert rec["machine"]["fingerprint"] == fingerprint_hash()
    assert rec["machine"]["nproc"] >= 1
    assert set(machine_fingerprint()) <= set(rec["machine"])
    assert not set(rec["measured"]) & set(rec["modelled"])
    assert rec["gates"]
    for gate in rec["gates"]:
        assert set(gate) == {
            "name", "value", "op", "threshold", "enforced", "pass"
        }
    assert rec["pass"] == all(
        g["pass"] for g in rec["gates"] if g["enforced"]
    )
    # The record is plain JSON.
    assert json.loads(json.dumps(rec)) == rec


class TestRecord:
    def test_pass_counts_only_enforced_gates(self):
        rec = record(
            "x", quick=True, seed=0, measured={"a": 1.0}, modelled={},
            gates=[
                Gate("a", 1.0, ">=", 2.0, enforced=False),
                Gate("b", 1.0, "<", 2.0),
            ],
        )
        assert [g["pass"] for g in rec["gates"]] == [False, True]
        assert rec["pass"] is True
        text = render(rec)
        assert "[FAIL] (recorded, not enforced)" in text
        assert "pass: True" in text

    def test_measured_and_modelled_may_not_share_a_key(self):
        with pytest.raises(ValueError, match="share"):
            record(
                "x", quick=True, seed=0, measured={"speedup": 1.0},
                modelled={"speedup": 2.0}, gates=[],
            )


def _stub_suite(monkeypatch, tmp_path, *, enforced):
    """Put a suite whose only gate fails into the table."""
    module = types.ModuleType("stub_bench_suite")

    def run(*, quick, repeats, seed):
        return record(
            "stub", quick=quick, seed=seed, measured={"ratio": 1.0},
            modelled={},
            gates=[Gate("ratio", 1.0, ">=", 2.0, enforced=enforced)],
        )

    module.run = run
    monkeypatch.setitem(sys.modules, module.__name__, module)
    out = tmp_path / "BENCH_stub.json"
    monkeypatch.setitem(
        harness.SUITES, "stub", (module.__name__, str(out))
    )
    return out


class TestCLIExitCode:
    def test_failing_enforced_gate_exits_1(
        self, monkeypatch, tmp_path, capsys
    ):
        out = _stub_suite(monkeypatch, tmp_path, enforced=True)
        assert main(["bench", "stub", "--quick"]) == 1
        rec = json.loads(out.read_text())
        assert rec["pass"] is False
        assert "[FAIL]" in capsys.readouterr().out

    def test_failing_unenforced_gate_exits_0(
        self, monkeypatch, tmp_path, capsys
    ):
        out = _stub_suite(monkeypatch, tmp_path, enforced=False)
        assert main(["bench", "stub", "--quick"]) == 0
        rec = json.loads(out.read_text())
        assert rec["pass"] is True
        assert rec["gates"][0]["pass"] is False
        assert "not enforced" in capsys.readouterr().out

    def test_help_offers_exactly_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        text = capsys.readouterr().out
        assert "{smsv,sell,serve,obs}" in text
        assert "--smoke" not in text and "--fleet" not in text
