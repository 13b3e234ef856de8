"""repro.obs — unified tracing, metrics, and scheduler-regret auditing.

The observability layer the rest of the repo reports into:

* :mod:`repro.obs.trace` — span tracer (``REPRO_TRACE=1`` /
  ``--trace``), zero-allocation when disabled, with
  :class:`~repro.obs.trace.TraceContext` for cross-process parenting;
* :mod:`repro.obs.collect` — fleet trace collection: worker span
  rings shipped over the control plane and merged into one timeline;
* :mod:`repro.obs.metrics` — one registry of counters / gauges /
  histograms with mergeable per-thread shards;
* :mod:`repro.obs.audit` — the scheduler decision audit log and
  regret accounting;
* :mod:`repro.obs.slo` — declarative SLOs with multi-window
  burn-rate alerting (``repro obs slo``);
* :mod:`repro.obs.flight` — the always-on flight recorder, dumped on
  crash / SIGUSR1 / SLO breach (``repro obs dump``);
* :mod:`repro.obs.export` — JSON-lines, Prometheus text, and
  chrome://tracing exporters (single- and multi-process);
* :mod:`repro.obs.report` — the ``repro obs report`` regret suite;
* :mod:`repro.obs.bench` — the disabled-mode overhead gate
  (``repro bench obs``).
"""

from repro.obs.audit import (
    AuditLog,
    DecisionRecord,
    RegretRow,
    audit_dataset,
    audit_log,
    current_dataset,
    regret_rows,
    render_regret_table,
)
from repro.obs.collect import (
    MergedTrace,
    WorkerTraceBuffer,
    clear_fleet_trace,
    fold_worker_audits,
    last_fleet_trace,
    merge_fleet_trace,
    mount_tracer_health,
    publish_fleet_trace,
)
from repro.obs.export import (
    merged_to_chrome_trace,
    read_audit_jsonl,
    read_spans_jsonl,
    read_spans_meta,
    registry_to_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
    validate_chrome_trace,
    write_audit_jsonl,
    write_chrome_trace,
    write_merged_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.flight import (
    FlightRecorder,
    disable_flight,
    enable_flight,
    flight_recorder,
    install_signal_dump,
    read_flight_dump,
    render_flight,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsShard,
    get_registry,
    opcounter_view,
)
from repro.obs.slo import (
    SLOBreach,
    SLOMonitor,
    SLOSpec,
    SLOStatus,
    default_slos,
    render_slo,
)
from repro.obs.trace import (
    DOOR_LANE,
    NOOP_SPAN,
    SpanNode,
    SpanRecord,
    TraceContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_trace_id,
    span_tree,
    trace_enabled,
)

# report sits above the formats/data layers that themselves import
# repro.obs, so it must resolve lazily to keep this package
# importable from the bottom of the stack.
_LAZY = {
    "REPORT_DATASET_NAMES": "repro.obs.report",
    "render_report": "repro.obs.report",
    "report_payload": "repro.obs.report",
    "run_report": "repro.obs.report",
    "tracer_health": "repro.obs.report",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.obs' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "AuditLog",
    "Counter",
    "DOOR_LANE",
    "DecisionRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MergedTrace",
    "MetricsRegistry",
    "MetricsShard",
    "NOOP_SPAN",
    "REPORT_DATASET_NAMES",
    "RegretRow",
    "SLOBreach",
    "SLOMonitor",
    "SLOSpec",
    "SLOStatus",
    "SpanNode",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "WorkerTraceBuffer",
    "audit_dataset",
    "audit_log",
    "clear_fleet_trace",
    "current_dataset",
    "default_slos",
    "disable_flight",
    "disable_tracing",
    "enable_flight",
    "enable_tracing",
    "flight_recorder",
    "fold_worker_audits",
    "get_registry",
    "get_tracer",
    "install_signal_dump",
    "last_fleet_trace",
    "merge_fleet_trace",
    "merged_to_chrome_trace",
    "mount_tracer_health",
    "new_trace_id",
    "opcounter_view",
    "publish_fleet_trace",
    "read_audit_jsonl",
    "read_flight_dump",
    "read_spans_jsonl",
    "read_spans_meta",
    "regret_rows",
    "registry_to_prometheus",
    "render_flight",
    "render_regret_table",
    "render_report",
    "render_slo",
    "report_payload",
    "run_report",
    "span_tree",
    "spans_to_chrome_trace",
    "spans_to_jsonl",
    "trace_enabled",
    "tracer_health",
    "validate_chrome_trace",
    "write_audit_jsonl",
    "write_chrome_trace",
    "write_merged_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]
