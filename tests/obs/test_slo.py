"""SLO monitor: burn-rate math, hysteresis, breach side effects."""

from __future__ import annotations

import pytest

from repro.obs.flight import FlightRecorder, read_flight_dump
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLOMonitor,
    SLOSpec,
    default_slos,
    render_slo,
)
from repro.obs.trace import Tracer
from repro.serve.bench_fleet import fleet_models, tenant_workload
from repro.serve.fleet import ServingFleet, simulate_fleet


def latency_spec(**overrides):
    kwargs = dict(
        name="lat",
        kind="latency",
        objective=0.9,  # 10 % error budget: burn = bad_ratio * 10
        threshold_ms=10.0,
        long_window_s=10.0,
        short_window_s=10.0,
        burn_factor=2.0,
        min_events=4,
    )
    kwargs.update(overrides)
    return SLOSpec(**kwargs)


class TestSLOSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SLOSpec("x", "nope")
        with pytest.raises(ValueError):
            SLOSpec("x", "latency", objective=1.0)
        with pytest.raises(ValueError):
            SLOSpec(
                "x", "latency", long_window_s=1.0, short_window_s=2.0
            )

    def test_bad_event_semantics_per_kind(self):
        lat = latency_spec()
        assert lat.bad(11.0) and not lat.bad(9.0)
        dl = SLOSpec("d", "deadline")
        assert dl.bad(1.0) and not dl.bad(0.0)

    def test_error_budget_is_objective_complement(self):
        assert latency_spec().error_budget == pytest.approx(0.1)

    def test_default_slos_cover_all_kinds(self):
        kinds = {s.kind for s in default_slos()}
        assert kinds == {
            "latency", "deadline", "rejection", "saturation"
        }


class TestBurnRateMath:
    def test_burn_is_bad_ratio_over_budget(self):
        monitor = SLOMonitor([latency_spec()], check_every=10_000)
        # 2 bad of 8 in-window: bad_ratio 0.25, burn 2.5 over the
        # 10 % budget.
        for i in range(6):
            monitor.observe_latency(float(i) * 0.1, 0.001)
        monitor.observe_latency(0.8, 0.020)
        monitor.observe_latency(0.9, 0.020)
        (status,) = monitor.evaluate(1.0)
        assert status.events_long == 8
        assert status.bad_long == 2
        assert status.burn_long == pytest.approx(2.5)
        assert status.breached

    def test_min_events_guards_early_noise(self):
        monitor = SLOMonitor(
            [latency_spec(min_events=16)], check_every=10_000
        )
        for i in range(4):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        (status,) = monitor.evaluate(0.1)
        assert status.burn_long > 2.0
        assert not status.breached  # 4 events < min 16

    def test_short_window_must_also_burn(self):
        # Bad events only in the old part of the long window: long
        # burns, short (recent) does not — no page for a recovered
        # incident.
        spec = latency_spec(short_window_s=1.0, min_events=4)
        monitor = SLOMonitor([spec], check_every=10_000)
        for i in range(6):
            monitor.observe_latency(float(i) * 0.1, 0.020)  # bad, old
        for i in range(12):
            monitor.observe_latency(9.2 + i * 0.05, 0.001)  # good, new
        (status,) = monitor.evaluate(9.9)
        assert status.burn_long >= 2.0
        assert status.burn_short < 2.0
        assert not status.breached

    def test_events_outside_long_window_age_out(self):
        monitor = SLOMonitor([latency_spec()], check_every=10_000)
        monitor.observe_latency(0.0, 0.020)
        for i in range(8):
            monitor.observe_latency(20.0 + i * 0.1, 0.001)
        (status,) = monitor.evaluate(21.0)
        assert status.bad_long == 0
        assert not status.breached


class TestBreachLifecycle:
    def test_fires_once_per_episode_with_hysteresis(self):
        monitor = SLOMonitor([latency_spec()], check_every=10_000)
        for i in range(8):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        monitor.evaluate(0.1)
        monitor.evaluate(0.11)  # still breached: no second alert
        assert len(monitor.breaches) == 1
        # Recovery: the window drains, burn falls under the factor,
        # the spec re-arms, a fresh episode fires a second alert.
        for i in range(32):
            monitor.observe_latency(11.0 + i * 0.01, 0.001)
        monitor.evaluate(12.0)
        assert len(monitor.breaches) == 1
        for i in range(16):
            monitor.observe_latency(30.0 + i * 0.01, 0.020)
        monitor.evaluate(30.5)
        assert len(monitor.breaches) == 2

    def test_self_evaluates_every_check_every(self):
        monitor = SLOMonitor([latency_spec()], check_every=8)
        for i in range(8):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        assert len(monitor.breaches) == 1  # no explicit evaluate()

    def test_breach_emits_instant_flight_and_gauges(self):
        tracer = Tracer(enabled=True)
        flight = FlightRecorder(enabled=True)
        registry = MetricsRegistry()
        monitor = SLOMonitor(
            [latency_spec()],
            tracer=tracer,
            flight=flight,
            registry=registry,
            check_every=10_000,
        )
        for i in range(8):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        monitor.evaluate(0.1)
        instants = [
            s for s in tracer.spans() if s.name == "slo.breach"
        ]
        assert len(instants) == 1
        assert dict(instants[0].attrs)["slo"] == "lat"
        assert [e["kind"] for e in flight.events()] == ["slo_breach"]
        as_dict = registry.as_dict()
        assert as_dict["repro_slo.lat.burn_long"] >= 2.0

    def test_breach_with_dump_path_writes_flight_dump(self, tmp_path):
        path = tmp_path / "slo-flight.jsonl"
        flight = FlightRecorder(enabled=True)
        monitor = SLOMonitor(
            [latency_spec()],
            flight=flight,
            dump_path=path,
            check_every=10_000,
        )
        for i in range(8):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        monitor.evaluate(0.1)
        dump = read_flight_dump(path)
        assert dump["header"]["reason"] == "slo_breach:lat"
        assert any(
            e["kind"] == "slo_breach" for e in dump["events"]
        )

    def test_shard_observation_sets_backlog_gauge(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(
            default_slos(), registry=registry, check_every=10_000
        )
        monitor.observe_shard(1.0, 2, 0.005)
        assert registry.as_dict()[
            "repro_slo.shard2.backlog_ms"
        ] == pytest.approx(5.0)


class TestReporting:
    def test_payload_and_render(self):
        monitor = SLOMonitor([latency_spec()], check_every=10_000)
        for i in range(8):
            monitor.observe_latency(float(i) * 0.01, 0.020)
        monitor.evaluate(0.1)
        payload = monitor.payload()
        assert payload["specs"][0]["name"] == "lat"
        assert payload["statuses"][0]["breached"] is True
        assert len(payload["breaches"]) == 1
        text = render_slo(monitor)
        assert "lat" in text and "BREACHED" in text

    def test_monitor_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SLOMonitor([latency_spec()], check_every=0)
        with pytest.raises(ValueError):
            SLOMonitor([latency_spec(), latency_spec()])


class TestFleetBreach:
    def test_breach_and_dump_are_deterministic(self, tmp_path):
        """An unmeetable SLO on a fleet session breaches and leaves a
        parseable flight dump, every run.

        A 1 ns latency objective makes every request a bad event; with
        the whole virtual session inside the long window the burn rate
        is ``1 / error_budget = 100``, far over the factor of 2, so the
        breach cannot *not* fire.
        """
        path = tmp_path / "flight-slo-breach.jsonl"
        monitor = SLOMonitor(
            (
                SLOSpec(
                    "latency_impossible", "latency",
                    objective=0.99, threshold_ms=1e-6,
                    long_window_s=1e9, short_window_s=1e9,
                    burn_factor=2.0, min_events=8,
                ),
            ),
            flight=FlightRecorder(enabled=True),
            dump_path=path,
        )
        with ServingFleet(
            fleet_models(smoke=True), 2, backend="local"
        ) as fleet:
            simulate_fleet(
                fleet, tenant_workload(smoke=True, seed=0), slo=monitor
            )
        assert len(monitor.breaches) >= 1
        dump = read_flight_dump(path)
        assert dump["header"]["reason"] == "slo_breach:latency_impossible"
        assert any(e.get("kind") == "slo_breach" for e in dump["events"])
