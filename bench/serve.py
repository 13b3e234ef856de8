"""``serve-heavy`` and ``serve-tenants``: open-loop traffic through a
process fleet, on the wall clock.

The load comes from one process with two threads:

* the **arrival thread** (the caller's thread) plays the seeded
  ``repro.serve.loadgen`` schedule on ``time.perf_counter``.  For each
  arrival it calls ``AdmissionController.admit``, then
  ``fleet.router.dispatch``, then ``MicroBatcher.submit`` on the batcher
  of that ``(model, shard)``; between arrivals it polls the batchers
  whose wait has run out;
* the **dispatch thread** takes flushed batches off a queue, drops the
  requests whose deadline passed, calls ``ServingFleet.predict_batch``
  and then ``router.complete`` and ``admission.release``.

With one thread, the generator would stall inside ``predict_batch``
while the backlog built up unseen, and admission would never see the
overload.  Latency runs from each request's *scheduled* arrival to its
reply, so generator lateness counts against the system.

Offered load comes in three rungs: ``light`` and ``mid`` well below the
measured capacity and ``over`` above it.  The rates are fixed constants,
measured once (see ``bench/README.md``), never derived per run.  The rungs are played as short segments in turn, cycle after cycle,
and a metric is the median over its rung's segments: a burst of
interference from other tenants of the machine then spoils a few
segments of every rung instead of one whole rung.
"""

from __future__ import annotations

import itertools
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from bench import host
from bench.stats import latency_summary, median, percentile
from bench.trace import SpanRecorder

clock = time.perf_counter

#: Answers later than this after their scheduled arrival miss; requests
#: still queued past it are dropped by the dispatch thread.
DEADLINE_S = 0.050
MAX_BATCH = 8
MAX_WAIT_MS = 2.0
ADMISSION_CAPACITY = 32
#: Fleet constructions timed after each cycle of rungs; ``setup_s`` is
#: their median over the run.  One costs about 10 ms.
SETUPS_PER_CYCLE = 2
#: Length of one rung segment.
SEGMENT_S = 0.5
#: Untimed traffic at the mid rate after set-up, so first-request costs
#: (page faults, allocator growth) stay out of the segments.
WARMUP_S = 0.5
#: Dispatched batches replayed in process to time the engine sweep.
SWEEP_REPLAY_CAP = 2000
#: Lead time between scheduling a segment and its first arrival.
LEAD_S = 0.005
QUERY_POOL = 1024
#: Seed of the ``serve-heavy`` model's training data.
MODEL_SEED = 0
#: The arrival thread must win the interpreter lock back from the
#: dispatch thread within a fraction of a millisecond, or its own
#: lateness, not the system, sets the latency tail.
SWITCH_INTERVAL_S = 0.0002

#: Per-layer metrics these workloads measure (traced run); every other
#: per-layer metric belongs to an idle layer here and reads 0.
LAYERS = (
    "cpu_us_per_op", "goodput_rps.over", "p50_ms.light", "p99_ms.light", "p99_ms.mid",
    "loadgen.late_ms_p99",
    "admission.rejected_pct.over", "admission.expired_pct.over",
    "admission.refused_pct.light_mid",
    "batcher.mean_batch.light", "batcher.mean_batch.mid",
    "batcher.mean_batch.over", "batcher.wait_ms_p50.mid",
    "dispatch.queue_ms_p50.mid", "dispatch.queue_ms_p99.mid",
    "fleet.rtt_ms_p50.mid", "fleet.rtt_ms_p99.mid",
    "engine.sweep_ms_p50.mid", "fleet.transport_ms_p50.mid",
    "fleet.hot_bytes_per_req", "router.imbalance", "router.rebalances",
    "rescheduler.flips", "engine.convert_ms", "door.cpu_pct.mid",
    "worker.cpu_pct.mid", "formats.flops", "formats.bytes_computed",
    "formats.spmm_calls", "formats.spmm_columns", "formats.gbps_computed",
    "trace.overhead_pct",
)


@dataclass(frozen=True)
class ServeShape:
    name: str
    workers: int
    #: Offered load per rung, requests per second.
    rates: Dict[str, float]


SHAPES: Dict[str, ServeShape] = {
    "serve-heavy": ServeShape(
        "serve-heavy", 1, {"light": 500.0, "mid": 1000.0, "over": 5000.0}
    ),
    "serve-tenants": ServeShape(
        "serve-tenants", 2, {"light": 500.0, "mid": 1000.0, "over": 4500.0}
    ),
}


@dataclass
class Prepared:
    models: Dict[str, Any]
    pools: Dict[str, List[Any]]
    fleet_kwargs: Dict[str, Any]


def prepare(name: str, seed: int, smoke: bool) -> Prepared:
    """Build the served models and the query pools.

    The models are the deployed system, the same for every seed, so a
    seed changes the traffic, not the work one request costs; the seed
    draws the ``serve-tenants`` query pool and, in :func:`schedule`,
    every arrival time and query choice.
    """
    if name == "serve-heavy":
        from repro.data import load_dataset
        from repro.formats import CSRMatrix
        from repro.serve import ServedModel
        from repro.svm import SVC

        ds = load_dataset(
            "mnist", seed=MODEL_SEED, label_noise=0.05,
            m_override=200 if smoke else None,
        )
        train, test = ds.split(0.8, seed=MODEL_SEED)
        full = CSRMatrix.from_coo(ds.rows, ds.cols, ds.values, ds.shape)
        x_train = _take_rows(full, train)
        svc = SVC(
            "gaussian", C=1.0, tol=1e-3, gamma=0.5 / np.sqrt(ds.shape[1])
        ).fit(x_train, ds.y[train])
        model = ServedModel.from_svc(svc, "CSR")
        return Prepared(
            models={"mnist": model},
            pools={"mnist": [full.row(int(i)) for i in test]},
            fleet_kwargs={},
        )
    if name == "serve-tenants":
        from repro.serve import query_sampler
        from repro.serve.bench_fleet import (
            STRONG_BITWISE_FORMATS,
            flip_fleet_models,
        )

        models = flip_fleet_models(smoke=smoke)
        rng = np.random.default_rng(seed)
        n_features = next(iter(models.values())).n_features
        sample = query_sampler(n_features, 8)
        pool = [sample(rng) for _ in range(QUERY_POOL)]
        return Prepared(
            models=models,
            pools={key: pool for key in models},
            fleet_kwargs={
                "initial_formats": {key: "CSR" for key in models},
                "rescheduler": {"candidates": STRONG_BITWISE_FORMATS},
            },
        )
    raise ValueError(f"unknown serving workload {name!r}")


def _take_rows(matrix, idx):
    from repro.formats import CSRMatrix

    rows, cols, values = matrix.to_coo()
    lookup = np.full(matrix.shape[0], -1, dtype=np.int64)
    lookup[idx] = np.arange(len(idx))
    keep = lookup[rows] >= 0
    return CSRMatrix.from_coo(
        lookup[rows[keep]], cols[keep], values[keep], (len(idx), matrix.shape[1])
    )


def schedule(
    name: str, prep: Prepared, rate: float, seconds: float, seed: int
) -> List[Tuple[float, str, int]]:
    """``(offset_s, model, query index)`` arrivals of one rung, from the
    program's seeded load generators."""
    from repro.serve import TenantSpec, multi_tenant, open_loop

    keys = sorted(prep.models)
    pool = prep.pools[keys[0]]
    index = {id(v): i for i, v in enumerate(pool)}

    def sampler(rng):
        return pool[int(rng.integers(len(pool)))]

    n = int(rate * seconds * 1.3) + 16
    if name == "serve-heavy":
        wl = open_loop(n, rate, sampler, seed=seed)
    else:
        # Half the load each: a bursty tenant on alpha (a quarter of
        # every period at 4x its floor, mean 1.75x the floor) and a
        # diurnal one on beta.  Both periods divide SEGMENT_S, so every
        # segment sees the same traffic mix.
        wl = multi_tenant(
            [
                TenantSpec(
                    "t-burst", "alpha", n=n, rate_rps=rate / 2 / 1.75,
                    pattern="bursty", burst_factor=4.0,
                    period_s=SEGMENT_S / 2, duty=0.25,
                ),
                TenantSpec(
                    "t-tide", "beta", n=n, rate_rps=rate / 2,
                    pattern="diurnal", amplitude=0.5, period_s=SEGMENT_S,
                ),
            ],
            sampler,
            seed=seed,
        )
    return [
        (a.t, a.model or keys[0], index[id(a.vector)])
        for a in wl.arrivals
        if a.t <= seconds
    ]


class _Req:
    __slots__ = (
        "rid", "key", "qidx", "sched", "t_handle", "t_submit", "t_flush",
        "t_pick", "t_sent", "bid", "status", "shard", "latency", "label", "dec",
    )

    def __init__(self, rid: int, key: str, qidx: int, sched: float) -> None:
        self.rid = rid
        self.key = key
        self.qidx = qidx
        self.sched = sched
        self.t_handle = self.t_submit = self.t_flush = self.t_pick = self.t_sent = 0.0
        self.bid = -1
        self.status = "pending"
        self.shard = -1
        self.latency = 0.0
        self.label = None
        self.dec = None


@dataclass
class Segment:
    """One segment of one rung: its requests and what the fleet spent."""

    seconds: float
    reqs: List[_Req]
    drain_s: float
    door_cpu_s: float
    worker_cpu_s: float
    wall_s: float
    ops: Dict[str, int]
    #: ``(model, format, query indices, rtt seconds)`` per batch, traced.
    batches: List[Tuple[str, str, List[int], float]] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.reqs if r.status == "answered"]


class LoadRunner:
    """Plays segments of arrivals through a live fleet with two threads."""

    def __init__(self, fleet, prep: Prepared) -> None:
        from repro.serve import AdmissionController

        self.fleet = fleet
        self.prep = prep
        self.admission = AdmissionController(
            capacity=ADMISSION_CAPACITY, shed_at=1.0
        )
        self.rec: Optional[SpanRecorder] = None
        self.flips: List[Tuple[str, int, Any]] = []
        self.errors: List[str] = []
        self._q: "queue.Queue" = queue.Queue()
        self._bids = itertools.count()
        self._rid_base = 0
        self._reqs: List[_Req] = []
        self._batches: List[Tuple[str, str, List[int], float]] = []
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="bench-dispatch", daemon=True
        )
        self._thread.start()

    # -- dispatch thread -------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            item = self._q.get()
            try:
                if item is None:
                    return
                if item[0] == "rebalance":
                    self.fleet.maybe_rebalance(item[1], item[2])
                else:
                    self._serve(*item[1:])
            except Exception as exc:  # keep serving; the run reports it
                self.errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                self._q.task_done()

    def _serve(self, key: str, shard: int, batch, bid: int, t_flush: float) -> None:
        from repro.serve import FleetWorkerError

        reqs = self._reqs
        t_pick = clock()
        live = [r for r in batch if not r.expired(t_pick)]
        if len(live) < len(batch):
            for r in batch:
                if r.expired(t_pick):
                    reqs[r.req_id].status = "expired"
            self.admission.release(len(batch) - len(live))
            self.fleet.router.complete(shard, len(batch) - len(live))
        if not live:
            return
        ids = [r.req_id for r in live]
        t_sent = clock()
        try:
            got, labels, dec, fmt, event = self.fleet.predict_batch(
                key, shard, ids, [r.vector for r in live], t_sent, t_sent,
                [r.arrived_at for r in live],
            )
        except (FleetWorkerError, EOFError, OSError) as exc:
            got = None
            self.errors.append(f"{type(exc).__name__}: {exc}")
        t_reply = clock()
        if got is None or list(got) != ids:
            for rid in ids:
                reqs[rid].status = "errored"
            if got is not None:
                self.errors.append(f"batch {bid}: reply ids do not match")
        else:
            for j, rid in enumerate(ids):
                r = reqs[rid]
                r.status = "answered"
                r.latency = t_reply - r.sched
                r.shard = shard
                r.label = float(labels[j])
                r.dec = dec[j]
            if event is not None:
                self.flips.append((key, shard, event))
        self.admission.release(len(live))
        self.fleet.router.complete(shard, len(live))
        if self.rec is None or got is None:
            return
        # Only timestamps here: the spans are built after the segment,
        # so tracing takes little interpreter time from the arrival thread.
        self._batches.append((key, fmt, [reqs[i].qidx for i in ids], t_reply - t_sent))
        for rid in ids:
            r = reqs[rid]
            r.bid, r.t_flush, r.t_pick, r.t_sent = bid, t_flush, t_pick, t_sent

    def _record_spans(self, rec: SpanRecorder, rung: str, reqs: List[_Req]) -> None:
        """One span tree per answered request: scheduled arrival to reply,
        split at each hand-over between the layers."""
        for r in reqs:
            if r.status != "answered":
                continue
            gid = self._rid_base + r.rid
            t_reply = r.sched + r.latency
            root = rec.add("request", r.sched, t_reply, rid=gid, bid=r.bid, tag=rung)
            for name, a, b in (
                ("loadgen.late", r.sched, r.t_handle),
                ("door.admit", r.t_handle, r.t_submit),
                ("batcher.wait", r.t_submit, r.t_flush),
                ("dispatch.queue", r.t_flush, r.t_pick),
                ("dispatch.prep", r.t_pick, r.t_sent),
                ("fleet.rtt", r.t_sent, t_reply),
            ):
                rec.add(name, a, b, parent=root, rid=gid, bid=r.bid, tag=rung)

    # -- arrival thread --------------------------------------------------
    def _flush(self, key: str, shard: int, batch) -> None:
        self._q.put(("batch", key, shard, batch, next(self._bids), clock()))

    def run_segment(
        self,
        rung: str,
        arrivals: List[Tuple[float, str, int]],
        seconds: float,
        rec: Optional[SpanRecorder],
    ) -> Segment:
        """Play one segment's arrivals; returns once every request ended."""
        from repro.serve import MicroBatcher, Request, Verdict

        fleet = self.fleet
        pools = self.prep.pools
        pids = [s.process.pid for s in fleet.shards]
        self.rec = rec
        self._batches = []
        ops0 = _fleet_ops(fleet)
        batchers: Dict[Tuple[str, int], Any] = {}
        cpu_door0, cpu_work0 = host.self_cpu_s(), host.cpu_s(pids)
        base = clock() + LEAD_S
        reqs = [
            _Req(i, key, q, base + t) for i, (t, key, q) in enumerate(arrivals)
        ]
        self._reqs = reqs
        i, n = 0, len(reqs)
        while True:
            now = clock()
            for (key, shard), b in batchers.items():
                due = b.next_flush_at()
                if due is not None and due <= now:
                    batch = b.poll(now)
                    if batch:
                        self._flush(key, shard, batch)
            while i < n and reqs[i].sched <= now:
                r = reqs[i]
                r.t_handle = now
                i += 1
                if self.admission.admit() is Verdict.REJECTED:
                    r.status = "rejected"
                    continue
                shard, hotspot = fleet.router.dispatch(r.key)
                if hotspot is not None:
                    self._q.put(("rebalance", hotspot, now))
                b = batchers.get((r.key, shard))
                if b is None:
                    b = batchers[(r.key, shard)] = MicroBatcher(
                        max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS
                    )
                full = b.submit(
                    Request(
                        r.rid, pools[r.key][r.qidx], r.sched,
                        r.sched + DEADLINE_S,
                    ),
                    now,
                )
                if rec is not None:
                    r.t_submit = clock()
                if full:
                    self._flush(r.key, shard, full)
                now = clock()
            dues = [
                d for d in (b.next_flush_at() for b in batchers.values())
                if d is not None
            ]
            if i >= n and not dues:
                break
            wait = min(dues + ([reqs[i].sched] if i < n else [])) - clock()
            if wait > 0:
                time.sleep(wait)
        last = reqs[-1].sched if reqs else base
        self._q.join()
        t_end = clock()
        cpu_door1, cpu_work1 = host.self_cpu_s(), host.cpu_s(pids)
        ops1 = _fleet_ops(fleet)
        if rec is not None:
            self._record_spans(rec, rung, reqs)
        self._rid_base += n
        return Segment(
            seconds=seconds,
            reqs=reqs,
            drain_s=max(0.0, t_end - last),
            door_cpu_s=cpu_door1 - cpu_door0,
            worker_cpu_s=cpu_work1 - cpu_work0,
            wall_s=t_end - base,
            ops={k: ops1[k] - ops0.get(k, 0) for k in ops1},
            batches=self._batches,
        )

    def close(self) -> None:
        self._q.put(None)
        self._thread.join(timeout=30.0)
        if self._thread.is_alive():
            raise RuntimeError("dispatch thread did not stop")


def _fleet_ops(fleet) -> Dict[str, int]:
    """Summed OpCounter fields and hot-path transport of every worker."""
    snap = fleet.snapshot()
    out = dict(snap.metrics.counter.as_dict())
    for stats in snap.transport.values():
        for k in ("hot_requests", "hot_bytes_sent", "hot_bytes_received"):
            out[k] = out.get(k, 0) + stats[k]
    return out


def _warm_up(fleet, prep: Prepared) -> None:
    """One answered request on every replica of every model."""
    for key in sorted(prep.models):
        vec = prep.pools[key][0]
        for shard in fleet.table.replicas(key):
            now = clock()
            fleet.predict_batch(key, shard, [0], [vec], now, now, [now])


def _open_fleet(shape: ServeShape, prep: Prepared):
    from repro.serve import ServingFleet

    fleet = ServingFleet(
        prep.models, shape.workers, backend="process", **prep.fleet_kwargs
    )
    try:
        _warm_up(fleet, prep)
    except BaseException:
        fleet.close()
        raise
    return fleet


def reference_answers(prep: Prepared) -> Dict[str, Tuple[List[float], List[np.ndarray]]]:
    """Labels (``replay_unbatched``) and decision vectors
    (``decision_one``) of every pooled query, on a pinned in-process
    CSR engine per model."""
    from repro.serve import (
        InferenceEngine,
        TimedRequest,
        Workload,
        replay_unbatched,
    )

    out = {}
    for key, model in prep.models.items():
        pinned = InferenceEngine(model.clone())
        pool = prep.pools[key]
        ref = replay_unbatched(
            pinned,
            Workload("ref", [TimedRequest(i, 0.0, v) for i, v in enumerate(pool)]),
        )
        out[key] = (
            [ref[i] for i in range(len(pool))],
            [pinned.decision_one(v) for v in pool],
        )
    return out


def _replay_sweeps(prep: Prepared, batches) -> Tuple[List[float], List[float], float]:
    """Time dispatched batches again, in process, on an engine converted
    to the format each reply named.  Returns per-batch sweep and
    transport (rtt - sweep) seconds and the sweep time of all batches
    (estimated from the replayed sample)."""
    from repro.serve import InferenceEngine

    engines: Dict[Tuple[str, str], Any] = {}
    step = max(1, len(batches) // SWEEP_REPLAY_CAP)
    sweeps, transports = [], []
    for key, fmt, qidxs, rtt in batches[::step]:
        eng = engines.get((key, fmt))
        if eng is None:
            eng = engines[(key, fmt)] = InferenceEngine(prep.models[key].clone())
            eng.convert_to(fmt)
        vecs = [prep.pools[key][q] for q in qidxs]
        t0 = clock()
        eng.predict_with_decisions(vecs)
        dt = clock() - t0
        sweeps.append(dt)
        transports.append(rtt - dt)
    return sweeps, transports, sum(sweeps) * len(batches) / max(len(sweeps), 1)


def _replay_converts(prep: Prepared, flips) -> List[float]:
    """Seconds of ``convert_to`` for every observed format flip."""
    from repro.serve import InferenceEngine

    out = []
    for key, _shard, event in flips:
        eng = InferenceEngine(prep.models[key].clone())
        eng.convert_to(event.from_fmt)
        t0 = clock()
        eng.convert_to(event.to_fmt)
        out.append(clock() - t0)
    return out


def run(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, Any]:
    """One run of a serving workload; returns the raw result record."""
    shape = SHAPES[name]
    prep = prepare(name, seed, smoke)
    # In a traced run an untraced mid segment precedes each traced one,
    # so the tracing overhead is measured under the same conditions.
    rungs = ["light", "mid-ref", "mid", "over"] if traced else ["light", "mid", "over"]
    cycles = max(1, round(seconds / (len(rungs) * SEGMENT_S)))
    seg_s = seconds / (cycles * len(rungs))
    # Each rung's schedule is one continuous stream cut into segments,
    # so bursts and the diurnal swing keep their shape across segments.
    streams = {
        rung: schedule(
            name, prep, shape.rates[rung.split("-")[0]], cycles * seg_s,
            seed * 100 + k,
        )
        for k, rung in enumerate(rungs)
    }
    plans = [
        [
            (rung, [(t - c * seg_s, key, q) for t, key, q in streams[rung]
                    if c * seg_s <= t < (c + 1) * seg_s])
            for rung in rungs
        ]
        for c in range(cycles)
    ]
    warm = schedule(name, prep, shape.rates["mid"], WARMUP_S, seed * 100 + 99)

    # The door's peak covers set-up and serving, not the preparation above.
    host.reset_peak_rss()
    fleet = _open_fleet(shape, prep)
    rec = SpanRecorder() if traced else None
    segments: Dict[str, List[Segment]] = {rung: [] for rung in rungs}
    setups: List[float] = []
    door_peak = 0.0
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        load = LoadRunner(fleet, prep)
        try:
            load.run_segment("warm-up", warm, WARMUP_S, None)
            for cycle in plans:
                for rung, arrivals in cycle:
                    seg_rec = rec if rung != "mid-ref" else None
                    segments[rung].append(
                        load.run_segment(rung, arrivals, seg_s, seg_rec)
                    )
                # Set-ups are spread over the run, so their median samples
                # the machine over the whole run, not one moment of it.
                # The door's peak is read before them and reset after, so
                # it never holds a second fleet's memory.
                door_peak = max(door_peak, host.self_peak_rss_mb())
                for _ in range(SETUPS_PER_CYCLE):
                    t0 = clock()
                    extra = _open_fleet(shape, prep)
                    setups.append(clock() - t0)
                    extra.close()
                host.reset_peak_rss()
        finally:
            load.close()
            sys.setswitchinterval(switch)
        peak_rss = max(door_peak, host.self_peak_rss_mb()) + sum(
            host.proc_peak_rss_mb(s.process.pid) for s in fleet.shards
        )
        rebalances = len(fleet.rebalances)
    finally:
        fleet.close()

    reference = reference_answers(prep)
    wrong = 0
    for segs in segments.values():
        for seg in segs:
            for r in seg.reqs:
                if r.status != "answered":
                    continue
                labels, decs = reference[r.key]
                if r.label != labels[r.qidx] or not np.array_equal(r.dec, decs[r.qidx]):
                    r.status = "wrong"
                    wrong += 1

    record = summarise(shape, segments, setups, peak_rss, rebalances, load, prep, rec)
    record["correct"] = wrong == 0 and not load.errors
    record["checks"] = {"wrong_answers": wrong, "load_errors": load.errors[:10]}
    record["setups_s"] = setups
    record["recorder"] = rec
    return record


def _pct(values, q):
    return percentile(values, q) * 1e3 if values else 0.0


def summarise(shape, segments, setups, peak_rss, rebalances, load, prep, rec) -> Dict[str, Any]:
    """Turn segments into the run record: metrics, counts, validity."""

    def reqs(rung):
        return [r for seg in segments[rung] for r in seg.reqs]

    def lats(rung):
        return [x for seg in segments[rung] for x in seg.latencies()]

    def seg_median(rung, fn):
        vals = [fn(seg) for seg in segments[rung] if seg.latencies()]
        return median(vals) if vals else 0.0

    def seg_p50(seg):
        return _pct(seg.latencies(), 50)

    def cpu_per_req(seg):
        return 1e6 * (seg.door_cpu_s + seg.worker_cpu_s) / len(seg.latencies())

    def total(rung, key):
        return sum(seg.ops.get(key, 0) for seg in segments[rung])

    def mean_batch(rung):
        calls = total(rung, "spmm_calls")
        return total(rung, "spmm_columns") / calls if calls else 0.0

    mid_segs = segments["mid"]
    answered_mid = len(lats("mid"))
    e2e = {
        "setup_s": median(setups),
        "p50_ms": seg_median("mid", seg_p50),
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "setup_s": len(setups),
        "p50_ms": answered_mid,
        "peak_rss_mb": 1 + shape.workers,
    }
    per_shard = {s: 0 for s in range(shape.workers)}
    for segs in segments.values():
        for seg in segs:
            for r in seg.reqs:
                if r.status == "answered":
                    per_shard[r.shard] += 1
    # Lateness matters where latency is measured; on the overload rung
    # a late generator only trims load the system sheds anyway.
    late = [r.t_handle - r.sched for rung in ("light", "mid") for r in reqs(rung)]
    over = reqs("over")
    mid_wall = sum(s.wall_s for s in mid_segs)
    hot = total("mid", "hot_requests")
    per_req = max(answered_mid, 1)
    computed = total("mid", "bytes_read") + total("mid", "bytes_written")
    layer: Dict[str, float] = {
        "cpu_us_per_op": seg_median("mid", cpu_per_req),
        "goodput_rps.over": median(
            [sum(x <= DEADLINE_S for x in s.latencies()) / s.seconds for s in segments["over"]]
        ),
        "p50_ms.light": seg_median("light", seg_p50),
        "p99_ms.light": _pct(lats("light"), 99),
        "p99_ms.mid": _pct(lats("mid"), 99),
        "loadgen.late_ms_p99": _pct(late, 99),
        "admission.rejected_pct.over": 100.0 * sum(r.status == "rejected" for r in over) / max(len(over), 1),
        "admission.expired_pct.over": 100.0 * sum(r.status == "expired" for r in over) / max(len(over), 1),
        # A host stall longer than the admission queue covers refuses
        # requests below capacity too; they are counted here, not as
        # failed operations, so failure counts stay comparable.
        "admission.refused_pct.light_mid": 100.0 * sum(
            r.status in ("rejected", "expired") for rung in ("light", "mid") for r in reqs(rung)
        ) / max(len(reqs("light")) + len(reqs("mid")), 1),
        "batcher.mean_batch.light": mean_batch("light"),
        "batcher.mean_batch.mid": mean_batch("mid"),
        "batcher.mean_batch.over": mean_batch("over"),
        "router.imbalance": max(per_shard.values()) / max(min(per_shard.values()), 1),
        "router.rebalances": float(rebalances),
        "rescheduler.flips": float(len(load.flips)),
        "door.cpu_pct.mid": 100.0 * sum(s.door_cpu_s for s in mid_segs) / mid_wall,
        "worker.cpu_pct.mid": 100.0 * sum(s.worker_cpu_s for s in mid_segs) / mid_wall,
        "fleet.hot_bytes_per_req": (
            (total("mid", "hot_bytes_sent") + total("mid", "hot_bytes_received")) / hot
            if hot else 0.0
        ),
        "formats.flops": total("mid", "flops") / per_req,
        "formats.bytes_computed": computed / per_req,
        "formats.spmm_calls": total("mid", "spmm_calls") / per_req,
        "formats.spmm_columns": total("mid", "spmm_columns") / per_req,
    }
    trace_info: Dict[str, Any] = {}
    if rec is not None:
        answered = [r for r in reqs("mid") if r.status == "answered"]
        queue_s = [r.t_pick - r.t_flush for r in answered]
        batches = [b for seg in mid_segs for b in seg.batches]
        rtt_s = [b[3] for b in batches]
        sweeps, transports, sweep_total = _replay_sweeps(prep, batches)
        ref_p50 = seg_median("mid-ref", seg_p50)
        layer.update(
            {
                "batcher.wait_ms_p50.mid": _pct([r.t_flush - r.t_submit for r in answered], 50),
                "dispatch.queue_ms_p50.mid": _pct(queue_s, 50),
                "dispatch.queue_ms_p99.mid": _pct(queue_s, 99),
                "fleet.rtt_ms_p50.mid": _pct(rtt_s, 50),
                "fleet.rtt_ms_p99.mid": _pct(rtt_s, 99),
                "engine.sweep_ms_p50.mid": _pct(sweeps, 50),
                "fleet.transport_ms_p50.mid": _pct(transports, 50),
                "formats.gbps_computed": computed / sweep_total / 1e9 if sweep_total else 0.0,
                "engine.convert_ms": 1e3 * sum(_replay_converts(prep, load.flips)),
                "trace.overhead_pct": (
                    100.0 * (e2e["p50_ms"] / ref_p50 - 1.0) if ref_p50 else 0.0
                ),
            }
        )
        trace_info = {
            "coverage": rec.coverage(["request"]), "roots": "request", "table_tag": "mid",
        }

    rung_info = {}
    for rung in segments:
        rs = reqs(rung)
        rung_info[rung] = {
            "rate_rps": shape.rates[rung.split("-")[0]],
            "segments": len(segments[rung]),
            "seconds": sum(s.seconds for s in segments[rung]),
            "offered": len(rs),
            **{st: sum(r.status == st for r in rs)
               for st in ("answered", "rejected", "expired", "errored", "wrong")},
            "latency": latency_summary(lats(rung)),
            "segment_p50_ms": [seg_p50(s) for s in segments[rung]],
            "segment_cpu_us_per_req": [
                cpu_per_req(s) for s in segments[rung] if s.latencies()
            ],
            "drain_ms_max": 1e3 * max(s.drain_s for s in segments[rung]),
            "late_ms_p99": _pct([r.t_handle - r.sched for r in rs], 99),
        }
    flags = []
    if layer["loadgen.late_ms_p99"] > 2.0:
        flags.append(f"generator p99 lateness {layer['loadgen.late_ms_p99']:.2f} ms > 2 ms")
    for rung in ("light", "mid"):
        if rung_info[rung]["drain_ms_max"] > DEADLINE_S * 1e3:
            flags.append(f"{rung} backlog took {rung_info[rung]['drain_ms_max']:.1f} ms to drain")
    offered = [r for rung in ("light", "mid", "over") for r in reqs(rung)]
    return {
        "e2e": e2e,
        "samples": samples,
        "layer": layer,
        "attempted": len(offered),
        "failed": sum(r.status in ("errored", "wrong") for r in offered),
        "flags": flags,
        "rungs": rung_info,
        "trace": trace_info,
    }
