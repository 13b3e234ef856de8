"""Distributed tracing through the fleet, end to end.

Real worker processes: the door ships a ``TraceContext`` with every
predict verb, workers record spans into their own rings, and
``merged_trace`` pulls everything home into one timeline.  The
merge mechanics themselves are unit-pinned in
``tests/obs/test_collect.py``; these tests pin the live protocol —
and that observation never changes an answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.audit import audit_log
from repro.obs.export import merged_to_chrome_trace, validate_chrome_trace
from repro.obs.trace import (
    CTX_PARENT_SPAN,
    DOOR_LANE,
    get_tracer,
)
from repro.serve import bench_fleet
from repro.serve.bench_fleet import (
    STRONG_BITWISE_FORMATS,
    flip_fleet_models,
)
from repro.serve.fleet import ServingFleet, simulate_fleet

from .test_fleet import (
    assert_bitwise_vs_replay,
    tenant_workload,
    two_models,
)

DOOR_SPANS = ("fleet.request", "fleet.request_one")


@pytest.fixture
def door_tracer():
    """Global tracer on and clean; prior state restored after."""
    tracer = get_tracer()
    prev = tracer.enabled
    tracer.clear()
    audit_log().clear()
    tracer.enable()
    yield tracer
    tracer.clear()
    audit_log().clear()
    tracer.enabled = prev


def assert_cross_parents_resolve(merged):
    by_id = {s.span_id: s for s in merged.spans}
    cross = 0
    for s in merged.spans:
        if merged.lanes[s.span_id] == DOOR_LANE:
            continue
        if CTX_PARENT_SPAN not in dict(s.attrs):
            continue
        cross += 1
        parent = by_id[s.parent_id]
        assert parent.name in DOOR_SPANS
        assert merged.lanes[parent.span_id] == DOOR_LANE
    assert cross > 0
    return cross


class TestProcessFleetTracing:
    def test_merged_timeline_covers_every_worker(self, door_tracer):
        models = two_models()
        workload = tenant_workload(n=120)
        with ServingFleet(models, 2, backend="process") as fleet:
            fleet.enable_worker_tracing()
            report = simulate_fleet(fleet, workload)
            merged = fleet.merged_trace()
        assert report.metrics.served > 0
        assert merged.worker_lanes() == [1, 2]
        assert merged.unresolved == 0
        assert_cross_parents_resolve(merged)
        # Lane labels carry real worker pids, all distinct.
        assert len(set(merged.pids.values())) == 3

    def test_traced_answers_stay_bitwise(self, door_tracer):
        models = two_models()
        workload = tenant_workload(n=120)
        with ServingFleet(models, 2, backend="process") as fleet:
            fleet.enable_worker_tracing()
            report = simulate_fleet(fleet, workload)
        assert_bitwise_vs_replay(models, workload, report)

    def test_killed_worker_yields_partial_trace(self, door_tracer):
        models = two_models()
        workload = tenant_workload(n=120)
        fleet = ServingFleet(models, 2, backend="process")
        try:
            fleet.enable_worker_tracing()
            simulate_fleet(fleet, workload)
            fleet.shards[1].kill()
            merged = fleet.merged_trace()
        finally:
            fleet.close()
        # The survivor's lane is present; the dead worker simply
        # contributes nothing and the merge stays total.
        assert merged.worker_lanes() == [1]
        assert_cross_parents_resolve(merged)

    def test_worker_audit_records_fold_back(self, door_tracer):
        models = flip_fleet_models(smoke=True)
        n_features = models["alpha"].n_features
        workload = tenant_workload(
            n=200, seed=11, n_features=n_features
        )
        with ServingFleet(
            models,
            2,
            backend="process",
            initial_formats={k: "CSR" for k in models},
            rescheduler={
                "window": 16,
                "check_every": 4,
                "min_gain": 0.0,
                "candidates": STRONG_BITWISE_FORMATS,
            },
        ) as fleet:
            fleet.enable_worker_tracing()
            report = simulate_fleet(fleet, workload)
            fleet.merged_trace(fold_audit=True)
        assert report.events, "heavy-tailed arenas must trigger flips"
        # The worker processes' reschedule decisions now sit in the
        # door's audit log — regret reporting covers per-replica flips.
        serve_records = [
            r for r in audit_log().records() if r.source == "serve"
        ]
        assert len(serve_records) >= len(report.events)
        assert all(r.chosen for r in serve_records)


class TestLocalBackendSharing:
    def test_trace_verbs_are_noops_for_local_shards(self, door_tracer):
        # Local shards share the door's tracer: their spans are
        # already in the door's ring (lane 0), so trace_collect must
        # ship nothing or every span would be counted twice.
        models = two_models()
        workload = tenant_workload(n=80)
        with ServingFleet(models, 2, backend="local") as fleet:
            fleet.enable_worker_tracing()
            simulate_fleet(fleet, workload)
            buffers = fleet.collect_traces()
            merged = fleet.merged_trace()
        assert all(len(b.spans) == 0 for b in buffers)
        assert merged.worker_lanes() == []
        names = {s.name for s in merged.spans}
        assert "fleet.request" in names or "fleet.request_one" in names
        assert "fleet.worker.predict" in names

    def test_untraced_fleet_ships_no_spans(self):
        tracer = get_tracer()
        prev = tracer.enabled
        tracer.disable()
        tracer.clear()
        try:
            models = two_models()
            workload = tenant_workload(n=80)
            with ServingFleet(models, 2, backend="process") as fleet:
                simulate_fleet(fleet, workload)
                merged = fleet.merged_trace()
            assert merged.spans == []
            assert merged.worker_lanes() == []
        finally:
            tracer.clear()
            tracer.enabled = prev


@pytest.fixture(scope="class")
def traced_and_untraced():
    """The same two-worker process-fleet session, untraced then fully
    traced (door tracer and every worker's tracer on); the global
    tracer's prior state is restored after."""
    tracer = get_tracer()
    prev = tracer.enabled
    runs = {}
    try:
        for traced in (False, True):
            tracer.clear()
            tracer.enabled = traced
            with ServingFleet(
                bench_fleet.fleet_models(smoke=True), 2, backend="process"
            ) as fleet:
                if traced:
                    fleet.enable_worker_tracing()
                report = simulate_fleet(
                    fleet, bench_fleet.tenant_workload(smoke=True, seed=0)
                )
                merged = fleet.merged_trace() if traced else None
            runs[traced] = (report, merged)
    finally:
        tracer.clear()
        tracer.enabled = prev
    return runs


class TestTracedEqualsUntraced:
    def test_traced_outputs_bitwise_identical(self, traced_and_untraced):
        (plain, _), (traced, _) = (
            traced_and_untraced[False], traced_and_untraced[True]
        )
        assert traced.responses == plain.responses
        assert sorted(traced.decisions) == sorted(plain.decisions)
        for req_id, values in plain.decisions.items():
            assert np.array_equal(traced.decisions[req_id], values)

    def test_every_worker_lane_present_with_valid_parents(
        self, traced_and_untraced
    ):
        _, merged = traced_and_untraced[True]
        assert merged.worker_lanes() == [1, 2]
        assert merged.unresolved == 0
        assert_cross_parents_resolve(merged)

    def test_chrome_export_validates(self, traced_and_untraced):
        _, merged = traced_and_untraced[True]
        chrome = merged_to_chrome_trace(merged)
        validate_chrome_trace(chrome)
        assert len(chrome["traceEvents"]) >= len(merged.spans)
