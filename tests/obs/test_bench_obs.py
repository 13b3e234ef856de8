"""The disabled-mode overhead gate: measured costs and their quotients.

The structural half of the free-when-disabled contract (no-op span
singleton, nothing recorded, plain lock, ``track`` identity, disabled
flight ring) is tested where it lives: ``tests/obs/test_trace.py``,
``tests/analysis/test_race_sanitizer.py`` and
``tests/obs/test_flight.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import OVERHEAD_THRESHOLD, run
from repro.perf.harness import render, write_record
from repro.perf.timers import benchmark


@pytest.fixture(scope="module")
def quick_payload():
    """One quick bench run shared across the module."""
    return run(quick=True, repeats=3, seed=0)


class TestPayloadShape:
    def test_fields(self, quick_payload):
        p = quick_payload
        assert p["suite"] == "obs"
        assert p["quick"] is True
        assert p["modelled"] == {}
        m = p["measured"]
        assert m["smsv_cost_s"] > 0.0
        gates = {g["name"]: g for g in p["gates"]}
        assert set(gates) == {
            "span_overhead_fraction",
            "race_guard_overhead_fraction",
            "flight_overhead_fraction",
        }
        for name, gate in gates.items():
            site = name[: -len("_overhead_fraction")]
            assert m[f"{site}_cost_s"] > 0.0
            assert m[name] == pytest.approx(
                m[f"{site}_cost_s"] / m["smsv_cost_s"]
            )
            assert gate["value"] == m[name]
            assert (gate["op"], gate["threshold"]) == (
                "<", OVERHEAD_THRESHOLD
            )
            assert gate["enforced"] is True

    def test_disabled_span_is_cheaper_than_a_kernel_call(
        self, quick_payload
    ):
        # The design point: one disabled span() costs far less than one
        # SMSV call, so instrumenting the hot loop is free in practice.
        m = quick_payload["measured"]
        assert m["span_cost_s"] < m["smsv_cost_s"]

    def test_disabled_race_guard_is_cheaper_than_a_kernel_call(
        self, quick_payload
    ):
        m = quick_payload["measured"]
        assert m["race_guard_cost_s"] < m["smsv_cost_s"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run(quick=True, repeats=0, seed=0)


class TestSuiteAndRendering:
    def test_run_suite_maps_repeats_to_rounds(self, monkeypatch):
        import repro.obs.bench as obs_bench

        seen = []

        def spy(fn, *, repeats, warmup):
            seen.append(repeats)
            return benchmark(fn, repeats=repeats, warmup=warmup)

        monkeypatch.setattr(obs_bench, "benchmark", spy)
        run(quick=True, repeats=2, seed=0)
        # Five timed loops (three disabled call sites, bare and
        # instrumented SMSV), each for exactly `repeats` rounds.
        assert seen == [2] * 5

    def test_render_summary_mentions_the_gate(self, quick_payload):
        text = render(quick_payload)
        assert "span_overhead_fraction" in text
        assert "< 0.02" in text

    def test_write_report_is_json(self, tmp_path, quick_payload):
        path = tmp_path / "BENCH_obs.json"
        write_record(quick_payload, path)
        reloaded = json.loads(path.read_text())
        assert reloaded["suite"] == "obs"
