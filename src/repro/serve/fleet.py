"""The serving fleet: sharded multi-process serving with one front door.

:class:`ServingFleet` wires the whole tier together:

* every :class:`~repro.serve.engine.ServedModel` is **published once**
  into shared memory (:class:`~repro.serve.shm.ModelPublication`) and
  attached in workers as zero-copy views — per-request traffic is the
  query vectors and answers, O(batch) regardless of matrix size;
* ``n_workers`` shards run either as real processes
  (:class:`~repro.serve.worker.ProcessShard`) or in-process with the
  identical wire protocol (:class:`~repro.serve.worker.LocalShard`);
* initial placement balances models over shards by nnz weight
  (:func:`~repro.parallel.partition.greedy_bins`) and then replicates
  onto otherwise-idle shards, so a 4-worker fleet serving one model
  still uses 4 workers;
* each replica runs its *own*
  :class:`~repro.serve.rescheduler.FormatRescheduler` — two replicas
  of one model under different traffic mixes may legitimately settle
  on different layouts, and the bitwise serving contract
  (:data:`~repro.serve.engine.EXACT_SERVE_FORMATS`) keeps that
  invisible in the answers;
* the hot-spot detector's reports trigger replica adds on the coldest
  shard (:meth:`ServingFleet.maybe_rebalance`);
* :meth:`ServingFleet.snapshot` merges per-worker
  :class:`~repro.serve.metrics.ServeMetrics` states into one exact
  fleet view and can mount it into the :mod:`repro.obs` registry.

:func:`simulate_fleet` is the serving tier's one virtual-clock
discrete-event loop, and what `tests/serve/test_fleet.py` and
`tests/serve/test_golden_sessions.py` check: arrivals, per-replica
micro-batch flushes and service completions interleave on one event
heap, service cost is a deterministic :class:`ServiceModel`, and no
wall clock is read anywhere, so throughput scaling and overload p99
are exact, testable numbers (and, being virtual, never a speedup
headline).  A one-worker ``local`` fleet with ``ServiceModel(0, 0, 0)``
is the single-engine session: latency is pure coalescing wait.
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.collect import (
    WorkerTraceBuffer,
    MergedTrace,
    fold_worker_audits,
    merge_fleet_trace,
)
from repro.obs.flight import flight_recorder
from repro.obs.metrics import MetricsRegistry, opcounter_shard
from repro.obs.trace import DOOR_LANE, TraceContext, get_tracer, new_trace_id
from repro.parallel.partition import greedy_bins
from repro.perf.counters import OpCounter
from repro.serve.admission import AdmissionController, Request, Verdict
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import ServedModel
from repro.serve.loadgen import TimedRequest, Workload
from repro.serve.metrics import ServeMetrics
from repro.serve.rescheduler import RescheduleEvent
from repro.serve.router import (
    HotSpot,
    HotSpotDetector,
    RebalanceEvent,
    Router,
    ShardTable,
)
from repro.serve.shm import ModelPublication
from repro.serve.worker import LocalShard, ProcessShard


def default_start_method() -> str:
    """``fork`` where available (fast, shares the parent's tracker)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ServiceModel:
    """Deterministic virtual service costs (the DES clock's physics).

    One batch costs a fixed dispatch overhead plus a per-row term —
    the same affine shape the cost model uses for SpMM amortisation —
    and the degraded single-vector path pays ``single_ms`` flat.  All
    virtual milliseconds: nothing here reads a clock.
    """

    batch_ms: float = 0.8
    row_ms: float = 0.05
    single_ms: float = 0.6

    def batch(self, k: int) -> float:
        """Virtual seconds to serve a ``k``-wide batch."""
        return (self.batch_ms + self.row_ms * k) / 1e3

    def single(self) -> float:
        """Virtual seconds for one degraded single-vector answer."""
        return self.single_ms / 1e3


@dataclass
class FleetSnapshot:
    """One merged observation of the whole fleet."""

    metrics: ServeMetrics
    per_worker: Dict[int, Dict]
    formats: Dict[int, Dict[str, str]]
    transport: Dict[int, Dict[str, int]]


# Fleets registered for interpreter-exit cleanup: a forgotten close()
# must still shut workers down and unlink shm segments.
_LIVE_FLEETS: List["ServingFleet"] = []
_ATEXIT_REGISTERED = False


def _atexit_close_all() -> None:  # pragma: no cover - exit hook
    for fleet in list(_LIVE_FLEETS):
        fleet.close()


class ServingFleet:
    """N worker shards behind one door, zero-copy models, one view."""

    def __init__(
        self,
        models: Dict[str, ServedModel],
        n_workers: int,
        *,
        backend: str = "process",
        start_method: Optional[str] = None,
        initial_formats: Optional[Dict[str, str]] = None,
        rescheduler: Optional[Dict[str, Any]] = None,
        weights: Optional[Dict[str, float]] = None,
        detector: Optional[HotSpotDetector] = None,
    ) -> None:
        global _ATEXIT_REGISTERED
        if not models:
            raise ValueError("a fleet needs at least one model")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in ("process", "local"):
            raise ValueError(
                f"unknown backend {backend!r}; expected process or local"
            )
        self.models = dict(models)
        self.n_workers = n_workers
        self.backend = backend
        self.default_model = sorted(self.models)[0]
        self.initial_formats = {
            k: v.upper() for k, v in (initial_formats or {}).items()
        }
        self.rescheduler_cfg = (
            dict(rescheduler) if rescheduler is not None else None
        )
        self.table = ShardTable(n_workers)
        if detector is None and n_workers > 1:
            detector = HotSpotDetector(n_workers)
        self.router = Router(self.table, detector if n_workers > 1 else None)
        self.rebalances: List[RebalanceEvent] = []
        self._closed = False
        self.publications: Dict[str, ModelPublication] = {}
        self.shards: List[Any] = []
        _LIVE_FLEETS.append(self)
        if not _ATEXIT_REGISTERED:
            atexit.register(_atexit_close_all)
            _ATEXIT_REGISTERED = True
        try:
            for key in sorted(self.models):
                self.publications[key] = ModelPublication(self.models[key])
            if backend == "process":
                ctx = multiprocessing.get_context(
                    start_method or default_start_method()
                )
                self.shards = [
                    ProcessShard(i, ctx) for i in range(n_workers)
                ]
            else:
                self.shards = [LocalShard(i) for i in range(n_workers)]
            self._place_initial(weights)
        except Exception:
            self.close()
            raise

    # -- placement -------------------------------------------------------
    def _place_initial(self, weights: Optional[Dict[str, float]]) -> None:
        """Balance models over shards, then replicate onto idle ones."""
        keys = sorted(self.models)
        w = [
            float(
                weights[k]
                if weights is not None
                else self.models[k].matrix.nnz
            )
            for k in keys
        ]
        assignment = greedy_bins(w, self.n_workers)
        for key, shard in zip(keys, assignment):
            self.attach_replica(key, shard)
        # A fleet with fewer models than shards would leave workers
        # idle forever; give each idle shard a replica, heaviest
        # models first, so single-model fleets scale with n_workers.
        idle = sorted(set(range(self.n_workers)) - set(assignment))
        by_weight = sorted(
            keys, key=lambda k: (-w[keys.index(k)], k)
        )
        for i, shard in enumerate(idle):
            self.attach_replica(by_weight[i % len(by_weight)], shard)

    def attach_replica(self, key: str, shard: int) -> str:
        """Attach one replica of ``key`` on ``shard``; returns its format."""
        if key not in self.publications:
            raise KeyError(f"unknown model {key!r}")
        reply = self.shards[shard].request(
            (
                "attach",
                key,
                self.publications[key].handle,
                self.initial_formats.get(key),
                self.rescheduler_cfg,
            )
        )
        self.table.place(key, shard)
        return reply[3]

    # -- serving RPCs ----------------------------------------------------
    def predict_batch(
        self,
        key: str,
        shard: int,
        req_ids: List[int],
        vectors: List[Any],
        started_at: float,
        finished_at: float,
        queued_at: List[float],
    ) -> Tuple[List[int], np.ndarray, np.ndarray, str, Optional[RescheduleEvent]]:
        tracer = get_tracer()
        ctx = None
        with tracer.span("fleet.request") as sp:
            if tracer.enabled:
                sp.set("model", key)
                sp.set("shard", shard)
                sp.set("k", len(req_ids))
                ctx = TraceContext(new_trace_id(), sp.span_id, DOOR_LANE)
            reply = self.shards[shard].request(
                (
                    "predict", key, list(req_ids), list(vectors),
                    started_at, finished_at, list(queued_at), ctx,
                )
            )
        _, _, _, ids, labels, dec, fmt, event = reply
        return ids, labels, dec, fmt, event

    def predict_single(
        self,
        key: str,
        shard: int,
        req_id: int,
        vector: Any,
        arrived_at: float,
        finished_at: float,
    ) -> Tuple[float, np.ndarray, str]:
        tracer = get_tracer()
        ctx = None
        with tracer.span("fleet.request_one") as sp:
            if tracer.enabled:
                sp.set("model", key)
                sp.set("shard", shard)
                ctx = TraceContext(new_trace_id(), sp.span_id, DOOR_LANE)
            reply = self.shards[shard].request(
                (
                    "predict_one", key, req_id, vector,
                    arrived_at, finished_at, ctx,
                )
            )
        _, _, _, _, label, dec, fmt = reply
        return label, dec, fmt

    # -- rebalancing -----------------------------------------------------
    def maybe_rebalance(
        self, hotspot: Optional[HotSpot], at: float
    ) -> Optional[RebalanceEvent]:
        """Act on a hot-spot report: replicate onto the cold shard.

        Policy: *add, never move*.  A replica on the cold shard lets
        least-loaded routing drain the imbalance without invalidating
        the hot replica's warm cache mid-traffic; replicas are views
        over the same shared segments, so the add costs one control-
        plane message, not a matrix copy.
        """
        if hotspot is None:
            return None
        if hotspot.cold_shard in self.table.replicas(hotspot.model):
            return None
        self.attach_replica(hotspot.model, hotspot.cold_shard)
        event = RebalanceEvent(
            at=at,
            seq=len(self.rebalances) + 1,
            model=hotspot.model,
            hot_shard=hotspot.hot_shard,
            cold_shard=hotspot.cold_shard,
            imbalance=hotspot.imbalance,
        )
        self.rebalances.append(event)
        # The detector's finding enters the same observability stream
        # as everything else: a timeline marker plus a flight-recorder
        # entry (both free when the respective collector is off).
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "fleet.hotspot",
                {
                    "model": hotspot.model,
                    "hot_shard": hotspot.hot_shard,
                    "cold_shard": hotspot.cold_shard,
                    "imbalance": hotspot.imbalance,
                },
            )
        fr = flight_recorder()
        if fr.enabled:
            fr.record(
                "rebalance",
                at=at,
                model=hotspot.model,
                hot_shard=hotspot.hot_shard,
                cold_shard=hotspot.cold_shard,
                imbalance=hotspot.imbalance,
            )
        return event

    # -- observation -----------------------------------------------------
    def snapshot(
        self,
        *,
        door: Optional[ServeMetrics] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> FleetSnapshot:
        """Merge every worker's metrics into one exact fleet view.

        Latency percentiles of the merged view are computed over the
        union of every worker's samples — identical to what one
        process observing all requests would report.  ``door`` folds
        in the front door's own counts (rejections happen before any
        worker sees the request).  With ``registry`` the merged view
        is mounted as ``repro_fleet.*`` gauges/histograms and each
        worker's OpCounter lands additively under
        ``repro_fleet.worker<i>.ops.*``.
        """
        merged = ServeMetrics()
        if door is not None:
            merged.merge(door)
        per_worker: Dict[int, Dict] = {}
        formats: Dict[int, Dict[str, str]] = {}
        transport: Dict[int, Dict[str, int]] = {}
        for shard in self.shards:
            reply = shard.request(("snapshot",))
            _, _, wid, state, fmts = reply
            per_worker[wid] = state
            formats[wid] = fmts
            transport[wid] = shard.transport_stats()
            merged.merge(ServeMetrics.from_state(state))
        if registry is not None:
            merged.registry_view(registry, prefix="repro_fleet")
            for wid, state in per_worker.items():
                counter = OpCounter()
                for name, value in state["ops"].items():
                    setattr(counter, name, value)
                registry.merge(
                    opcounter_shard(
                        counter, prefix=f"repro_fleet.worker{wid}.ops"
                    )
                )
            from repro.serve.shm import leaked_segments

            # Live callback: the scan runs at export time, so the
            # gauge reports leaks as of the scrape, not the snapshot.
            registry.gauge(
                "repro_fleet.leaked_shm_segments",
                "repro shm segments present on disk but unowned",
                fn=lambda: float(len(leaked_segments())),
            )
        return FleetSnapshot(
            metrics=merged,
            per_worker=per_worker,
            formats=formats,
            transport=transport,
        )

    # -- distributed tracing ---------------------------------------------
    def enable_worker_tracing(self) -> None:
        """Broadcast ``trace_on``: every worker starts recording spans.

        The door's own tracer is *not* touched — callers (the CLI's
        ``repro trace``, the tests) own that switch.  Local
        shards share the door's tracer and treat the verb as a no-op.
        """
        for shard in self.shards:
            shard.request(("trace_on",))

    def collect_traces(self) -> List[WorkerTraceBuffer]:
        """Pull every live worker's span ring and audit log home.

        A dead or wedged worker contributes nothing (partial fleet
        traces are better than none — the killed-worker test pins
        this).  The clock handshake brackets the worker's reading
        between two door readings; an offset smaller than the round
        trip is indistinguishable from pipe latency on a shared
        monotonic clock and is zeroed, while genuinely different
        clocks (virtual time in tests) survive.
        """
        from repro.serve.worker import FleetWorkerError

        tracer = get_tracer()
        buffers: List[WorkerTraceBuffer] = []
        for shard in self.shards:
            if not shard.alive():
                continue
            t0 = tracer.now()
            try:
                reply = shard.request(("trace_collect",))
            except (FleetWorkerError, EOFError, OSError, BrokenPipeError):
                continue
            t1 = tracer.now()
            _, _, wid, pid, worker_now, span_dicts, dropped, audit = reply
            offset = worker_now - 0.5 * (t0 + t1)
            if abs(offset) <= (t1 - t0):
                offset = 0.0
            from repro.obs.audit import DecisionRecord
            from repro.obs.trace import SpanRecord

            buffers.append(
                WorkerTraceBuffer(
                    worker_id=wid,
                    pid=pid,
                    spans=tuple(
                        SpanRecord.from_dict(d) for d in span_dicts
                    ),
                    dropped=dropped,
                    clock_offset=offset,
                    audit=tuple(
                        DecisionRecord.from_dict(d) for d in audit
                    ),
                )
            )
        return buffers

    def merged_trace(self, *, fold_audit: bool = True) -> MergedTrace:
        """One coherent timeline: door spans + every worker's ring.

        Collect *before* :meth:`close` — the rings die with the
        workers.  ``fold_audit`` lands worker-side rescheduler
        decisions in the door's audit log on the way through.
        """
        tracer = get_tracer()
        buffers = self.collect_traces()
        if fold_audit:
            fold_worker_audits(buffers)
        return merge_fleet_trace(
            tracer.spans(),
            buffers,
            door_pid=os.getpid(),
            door_dropped=tracer.dropped,
        )

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and unlink every shm segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            try:
                shard.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for pub in self.publications.values():
            pub.close()
        if self in _LIVE_FLEETS:
            _LIVE_FLEETS.remove(self)

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class FleetReport:
    """Everything one simulated fleet session produced."""

    workload: str
    responses: Dict[int, float]
    decisions: Dict[int, np.ndarray]
    metrics: ServeMetrics
    door: ServeMetrics
    events: List[Tuple[str, int, RescheduleEvent]]
    rebalances: List[RebalanceEvent]
    max_inflight: int
    snapshot: FleetSnapshot
    per_shard_served: Dict[int, int] = field(default_factory=dict)


# Event-heap priorities: completions release admission slots before
# flushes fire, and both before new arrivals are admitted at the same
# virtual instant.
_P_COMPLETE, _P_FLUSH, _P_ARRIVE = 0, 1, 2


def simulate_fleet(
    fleet: ServingFleet,
    workload: Workload,
    *,
    max_batch: int = 8,
    max_wait_ms: float = 2.0,
    admission: Optional[AdmissionController] = None,
    service: Optional[ServiceModel] = None,
    registry: Optional[MetricsRegistry] = None,
    slo: Optional[Any] = None,
) -> FleetReport:
    """Serve a workload through the fleet on the virtual clock.

    Each ``(model, shard)`` replica has its own
    :class:`~repro.serve.batcher.MicroBatcher`, each shard a single
    virtual core (``busy_until``), and the door runs admission,
    routing, hot-spot detection and rebalancing.  Before an arrival at
    ``t`` is admitted, every completion and flush deadline at or
    before ``t`` fires; expired requests are dropped at serve time and
    degraded requests bypass the batcher through the single-vector
    path.  Worker predictions happen at dispatch (so per-shard answer
    order equals virtual serve order) while latency accounting uses
    the virtual start/finish times; admission slots release at virtual
    completion, which is what makes the overload experiment honest
    about in-flight bounds.  With ``ServiceModel(0, 0, 0)`` latency is
    pure coalescing wait.

    Traced, the run is one ``serve.simulate`` root span with
    ``serve.admit``, ``serve.flush`` and ``serve.batch`` spans under
    it; each batch's ``fleet.request`` nests under its
    ``serve.batch``.

    ``slo`` is an optional :class:`~repro.obs.slo.SLOMonitor` fed the
    door's four streams on the virtual clock — request latency,
    deadline misses, admission rejections, per-shard dispatch backlog
    — with a final evaluation before the report returns.  Observation
    only: the monitor cannot change a single scheduling decision.
    """
    service = service if service is not None else ServiceModel()
    door = ServeMetrics()
    responses: Dict[int, float] = {}
    decisions: Dict[int, np.ndarray] = {}
    events: List[Tuple[str, int, RescheduleEvent]] = []
    rebalances: List[RebalanceEvent] = []
    per_shard_served: Dict[int, int] = {
        s: 0 for s in range(fleet.n_workers)
    }
    batchers: Dict[Tuple[str, int], MicroBatcher] = {}
    busy_until = [0.0] * fleet.n_workers
    heap: List[Tuple[float, int, int, str, Any]] = []
    seq = 0
    inflight = 0
    max_inflight = 0
    tracer = get_tracer()

    def push(t: float, prio: int, kind: str, payload: Any) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, prio, seq, kind, payload))
        seq += 1

    def serve_batch(
        key: str, shard: int, batch: List[Request], at: float
    ) -> None:
        nonlocal inflight
        with tracer.span("serve.batch") as sp:
            live = [r for r in batch if not r.expired(at)]
            if tracer.enabled:
                sp.set("size", len(batch))
                sp.set("live", len(live))
                sp.set("at", at)
            dropped = len(batch) - len(live)
            if dropped:
                door.record_expired(dropped)
                if admission is not None:
                    admission.release(dropped)
                fleet.router.complete(shard, dropped)
                inflight -= dropped
                if slo is not None:
                    for _ in range(dropped):
                        slo.observe_deadline(at, True)
            if not live:
                return
            start = max(at, busy_until[shard])
            fin = start + service.batch(len(live))
            busy_until[shard] = fin
            if slo is not None:
                slo.observe_shard(at, shard, start - at)
                for r in live:
                    slo.observe_latency(fin, fin - r.arrived_at)
                    if r.deadline is not None:
                        slo.observe_deadline(fin, False)
            ids, labels, dec, _fmt, event = fleet.predict_batch(
                key,
                shard,
                [r.req_id for r in live],
                [r.vector for r in live],
                start,
                fin,
                [r.arrived_at for r in live],
            )
            for j, rid in enumerate(ids):
                responses[rid] = float(labels[j])
                decisions[rid] = dec[j]
            per_shard_served[shard] += len(live)
            if event is not None:
                events.append((key, shard, event))
            push(fin, _P_COMPLETE, "complete", (shard, len(live)))

    def arrive(req: TimedRequest, t: float) -> None:
        nonlocal inflight, max_inflight
        key = req.model if req.model is not None else fleet.default_model
        with tracer.span("serve.admit") as sp:
            verdict = (
                admission.admit()
                if admission is not None
                else Verdict.ACCEPTED
            )
            if tracer.enabled:
                sp.set("req_id", req.req_id)
                sp.set("verdict", verdict.name)
        if slo is not None:
            slo.observe_admission(t, verdict is Verdict.REJECTED)
        if verdict is Verdict.REJECTED:
            door.record_rejected()
            return
        inflight += 1
        max_inflight = max(max_inflight, inflight)
        r = Request(req.req_id, req.vector, req.t, req.deadline)
        if verdict is Verdict.DEGRADED:
            # Shed path: single-vector answer now, no coalescing wait
            # added to a queue that is already deep.
            if r.expired(t):
                door.record_expired()
                if admission is not None:
                    admission.release()
                inflight -= 1
                if slo is not None:
                    slo.observe_deadline(t, True)
                return
            shard, hotspot = fleet.router.dispatch(key)
            fin = t + service.single()
            label, dec, _fmt = fleet.predict_single(
                key, shard, r.req_id, r.vector, t, fin
            )
            if slo is not None:
                slo.observe_latency(fin, fin - r.arrived_at)
                if r.deadline is not None:
                    slo.observe_deadline(fin, False)
            responses[r.req_id] = float(label)
            decisions[r.req_id] = dec
            per_shard_served[shard] += 1
            push(fin, _P_COMPLETE, "complete", (shard, 1))
            event = fleet.maybe_rebalance(hotspot, t)
            if event is not None:
                rebalances.append(event)
            return
        shard, hotspot = fleet.router.dispatch(key)
        event = fleet.maybe_rebalance(hotspot, t)
        if event is not None:
            rebalances.append(event)
        batcher = batchers.get((key, shard))
        if batcher is None:
            batcher = MicroBatcher(
                max_batch=max_batch, max_wait_ms=max_wait_ms
            )
            batchers[(key, shard)] = batcher
        full = batcher.submit(r, t)
        if full:
            serve_batch(key, shard, full, t)
        else:
            flush_at = batcher.next_flush_at()
            if flush_at is not None:
                # Lazy flush scheduling: a stale event polls an empty
                # batcher and does nothing.
                push(flush_at, _P_FLUSH, "flush", (key, shard))

    for req in workload.arrivals:
        push(req.t, _P_ARRIVE, "arrive", req)

    with tracer.span("serve.simulate") as sim_sp:
        if tracer.enabled:
            sim_sp.set("workload", workload.name)
            sim_sp.set("n", len(workload))
        while heap:
            t, _, _, kind, payload = heapq.heappop(heap)
            if kind == "arrive":
                arrive(payload, t)
            elif kind == "complete":
                shard, n = payload
                if admission is not None:
                    admission.release(n)
                fleet.router.complete(shard, n)
                inflight -= n
            else:
                batch = batchers[payload].poll(t)
                if batch:
                    with tracer.span("serve.flush") as sp:
                        if tracer.enabled:
                            sp.set("deadline", t)
                            sp.set("size", len(batch))
                        serve_batch(*payload, batch, t)

    if slo is not None:
        slo.evaluate()
    snapshot = fleet.snapshot(door=door, registry=registry)
    return FleetReport(
        workload=workload.name,
        responses=responses,
        decisions=decisions,
        metrics=snapshot.metrics,
        door=door,
        events=events,
        rebalances=rebalances,
        max_inflight=max_inflight,
        snapshot=snapshot,
        per_shard_served=per_shard_served,
    )
