"""Fleet benchmark: multi-worker scaling, zero-copy transport, overload.

Three experiments, all on the deterministic virtual clock — no wall
time is read anywhere, so every number (including the throughput
scaling headline) is exact and CI-gateable:

1. **scaling** — one multi-tenant workload (bursty + diurnal tenants)
   served through :func:`~repro.serve.fleet.simulate_fleet` at 1 and
   4 workers.  Virtual makespan shrinks with the worker count because
   each shard is one virtual core; the headline is the 4-worker /
   1-worker throughput ratio (criterion >= 2.5x) and every label and
   decision value must be bitwise identical to a single-engine
   unbatched replay — across both worker counts and a re-scheduling
   replica run where replicas flip formats mid-stream.

2. **zero-copy** — the same request mix against models whose
   support-vector matrices differ ~8x in nnz.  Matrices cross the
   process boundary once, as shm segment names; the hot path carries
   only query vectors and answers, so measured hot bytes per request
   must not grow with nnz (criterion: max/min ratio <= 1.5).

3. **overload** — an open-loop burst at ~2x the fleet's service
   capacity against a small admission door.  The door must reject the
   overflow, keep in-flight requests at or under capacity (no
   unbounded queue), and hold the p99 latency of *admitted* requests
   under a fixed bound.

Run via ``repro bench fleet [--smoke]``; results land in
``BENCH_fleet.json`` and the suite's exit code gates on all three
criteria.
"""

from __future__ import annotations

import json
import platform
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.formats.convert import FORMAT_FAMILIES
from repro.serve.admission import AdmissionController
from repro.serve.bench import synthetic_model
from repro.serve.engine import InferenceEngine, ServedModel
from repro.serve.fleet import ServingFleet, simulate_fleet
from repro.serve.loadgen import (
    TenantSpec,
    Workload,
    multi_tenant,
    open_loop,
    query_sampler,
    replay_unbatched,
)

#: Acceptance threshold: 4-worker vs 1-worker virtual throughput.
HEADLINE_CRITERION = 2.5

#: Zero-copy acceptance: hot bytes/request may not spread more than
#: this across an ~8x nnz range.
ZERO_COPY_RATIO = 1.5

#: Overload acceptance: virtual p99 latency bound for admitted
#: requests while the door sheds ~half the offered load.
OVERLOAD_P99_MS = 25.0

#: The strict-bitwise serving family (``FORMAT_FAMILIES["bitwise"]``):
#: a flip between its formats is bitwise invisible on *any* row/query
#: overlap.  Replica re-schedulers in the bitwise experiments draw from
#: this family.
STRONG_BITWISE_FORMATS: Tuple[str, ...] = FORMAT_FAMILIES["bitwise"]

_N_FEATURES = 160


def fleet_models(*, smoke: bool = False) -> Dict[str, ServedModel]:
    """The two-tenant model pair every experiment serves."""
    scale = 1 if smoke else 2
    return {
        "alpha": synthetic_model(
            n_sv=220 * scale, n_features=_N_FEATURES, row_nnz=10, seed=11
        ),
        "beta": synthetic_model(
            n_sv=160 * scale, n_features=_N_FEATURES, row_nnz=14, seed=12
        ),
    }


def flip_fleet_models(*, smoke: bool = False) -> Dict[str, ServedModel]:
    """Heavy-tailed SV arenas: wide batches pull CSR into a sorted
    layout (the same crossover ``tests/serve/test_sell_flip.py`` pins),
    so the replica-divergence run reliably re-schedules mid-stream."""
    from repro.data.synthetic import powerlaw_rows_matrix
    from repro.formats.csr import CSRMatrix
    from repro.serve.engine import PairSlice
    from repro.svm.kernels import make_kernel

    scale = 1 if smoke else 2
    out: Dict[str, ServedModel] = {}
    for key, seed in (("alpha", 41), ("beta", 42)):
        rows, cols, vals, shape = powerlaw_rows_matrix(
            250 * scale, _N_FEATURES, alpha=1.5, min_nnz=4,
            max_nnz=80, seed=seed,
        )
        matrix = CSRMatrix.from_coo(rows, cols, vals, shape)
        rng = np.random.default_rng(seed + 1)
        out[key] = ServedModel(
            matrix,
            rng.standard_normal(shape[0]),
            [PairSlice(classes=(1.0, -1.0), lo=0, hi=shape[0], bias=0.1)],
            make_kernel("gaussian", gamma=0.2),
        )
    return out


def tenant_workload(*, smoke: bool = False, seed: int = 7) -> Workload:
    """Bursty + diurnal tenants, hot enough to saturate four shards.

    Aggregate arrival rate is far above one shard's service rate, so
    the 1-worker run is compute-bound and the 4-worker run stays
    compute-bound too — the regime where the scaling ratio reflects
    the shard count rather than the arrival process.
    """
    n = 400 if smoke else 1200
    sampler = query_sampler(_N_FEATURES, 8)
    return multi_tenant(
        [
            TenantSpec(
                "t-burst", "alpha", n=n, rate_rps=30_000.0,
                pattern="bursty", burst_factor=6.0, period_s=0.02,
            ),
            TenantSpec(
                "t-tide", "beta", n=2 * n // 3, rate_rps=18_000.0,
                pattern="diurnal", amplitude=0.7, period_s=0.05,
            ),
        ],
        sampler,
        seed=seed,
        name="fleet-multi-tenant",
    )


def _bitwise_vs_replay(
    models: Dict[str, ServedModel],
    workload: Workload,
    responses: Dict[int, float],
    decisions: Dict[int, np.ndarray],
) -> Tuple[bool, bool]:
    """Labels and decision values vs a single-engine unbatched replay."""
    labels_ok = True
    decisions_ok = True
    default_key = sorted(models)[0]
    for key, model in models.items():
        pinned = InferenceEngine(model.clone())
        sub = [
            r for r in workload.arrivals
            if (r.model or default_key) == key
        ]
        if not sub:
            continue
        reference = replay_unbatched(pinned, Workload("ref", sub))
        for req in sub:
            if req.req_id not in responses:
                continue
            if responses[req.req_id] != reference[req.req_id]:
                labels_ok = False
            if not np.array_equal(
                decisions[req.req_id], pinned.decision_one(req.vector)
            ):
                decisions_ok = False
    return labels_ok, decisions_ok


def run_scaling(
    *,
    smoke: bool = False,
    backend: str = "process",
    workers: Tuple[int, ...] = (1, 4),
) -> Dict:
    """Virtual throughput at each worker count, bitwise-checked."""
    models = fleet_models(smoke=smoke)
    workload = tenant_workload(smoke=smoke)
    runs: List[Dict] = []
    for n in workers:
        with ServingFleet(models, n, backend=backend) as fleet:
            report = simulate_fleet(fleet, workload)
        labels_ok, decisions_ok = _bitwise_vs_replay(
            models, workload, report.responses, report.decisions
        )
        runs.append(
            {
                "workers": n,
                "served": report.metrics.served,
                "virtual_makespan_s": report.metrics.elapsed,
                "throughput_rps": report.metrics.throughput,
                "mean_batch": report.metrics.mean_batch,
                "per_shard_served": {
                    str(s): c for s, c in report.per_shard_served.items()
                },
                "rebalances": len(report.rebalances),
                "labels_bitwise_identical": labels_ok,
                "decisions_bitwise_identical": decisions_ok,
            }
        )
    # Replica-divergence run: every replica re-schedules its own
    # layout under its own traffic slice; answers must not notice.
    # Heavy-tailed arenas + a CSR pin guarantee mid-stream flips, and
    # the strong-bitwise candidate family keeps them invisible.
    n_max = max(workers)
    flip_models = flip_fleet_models(smoke=smoke)
    with ServingFleet(
        flip_models,
        n_max,
        backend=backend,
        initial_formats={k: "CSR" for k in flip_models},
        rescheduler={
            "window": 16,
            "check_every": 4,
            "min_gain": 0.0,
            "candidates": STRONG_BITWISE_FORMATS,
        },
    ) as fleet:
        report = simulate_fleet(fleet, workload)
    labels_ok, decisions_ok = _bitwise_vs_replay(
        flip_models, workload, report.responses, report.decisions
    )
    resched = {
        "workers": n_max,
        "events": len(report.events),
        "format_history": [
            [t, key, shard, fmt]
            for t, key, shard, fmt in report.format_history
        ],
        "labels_bitwise_identical": labels_ok,
        "decisions_bitwise_identical": decisions_ok,
    }
    base = next(r for r in runs if r["workers"] == min(workers))
    top = next(r for r in runs if r["workers"] == n_max)
    speedup = (
        top["throughput_rps"] / base["throughput_rps"]
        if base["throughput_rps"] > 0
        else 0.0
    )
    bitwise = all(
        r["labels_bitwise_identical"] and r["decisions_bitwise_identical"]
        for r in runs
    ) and resched["labels_bitwise_identical"] and resched[
        "decisions_bitwise_identical"
    ]
    return {
        "runs": runs,
        "rescheduling_run": resched,
        "speedup": speedup,
        "bitwise_identical": bitwise,
    }


def run_zero_copy(
    *, smoke: bool = False, backend: str = "process"
) -> Dict:
    """Hot-path bytes/request across an ~8x nnz sweep.

    The model grows (rows and row nnz) while the request mix stays
    fixed; only the control plane (one attach per replica) may grow
    with the matrix.
    """
    n = 96 if smoke else 256
    sampler = query_sampler(_N_FEATURES, 8)
    points: List[Dict] = []
    for label, n_sv, row_nnz in (
        ("small", 150, 8),
        ("medium", 300, 16),
        ("large", 600, 32),
    ):
        model = synthetic_model(
            n_sv=n_sv, n_features=_N_FEATURES, row_nnz=row_nnz, seed=21
        )
        nnz = model.matrix.nnz
        workload = open_loop(
            n, 20_000.0, sampler, seed=5, name=f"zc-{label}"
        )
        with ServingFleet(
            {"m": model}, 2, backend=backend
        ) as fleet:
            report = simulate_fleet(fleet, workload)
            shared = sum(
                pub.shared_bytes for pub in fleet.publications.values()
            )
        hot_sent = hot_recv = hot_req = control = 0
        for stats in report.snapshot.transport.values():
            hot_sent += stats["hot_bytes_sent"]
            hot_recv += stats["hot_bytes_received"]
            hot_req += stats["hot_requests"]
            control += (
                stats["control_bytes_sent"]
                + stats["control_bytes_received"]
            )
        points.append(
            {
                "label": label,
                "nnz": int(nnz),
                "shared_bytes": int(shared),
                "served": report.metrics.served,
                "hot_requests": hot_req,
                "hot_bytes_per_request": (
                    (hot_sent + hot_recv) / hot_req if hot_req else 0.0
                ),
                "control_bytes": control,
            }
        )
    per_req = [p["hot_bytes_per_request"] for p in points]
    ratio = max(per_req) / min(per_req) if min(per_req) > 0 else float("inf")
    nnz_span = points[-1]["nnz"] / points[0]["nnz"]
    return {
        "points": points,
        "nnz_span": nnz_span,
        "bytes_ratio": ratio,
        "criterion": ZERO_COPY_RATIO,
        "pass": ratio <= ZERO_COPY_RATIO,
    }


def run_overload(
    *, smoke: bool = False, backend: str = "process"
) -> Dict:
    """2x-capacity burst against a small admission door.

    Offered load is roughly twice what two shards can serve in the
    arrival window, with a door capacity far below the backlog the
    excess would otherwise build.  Gates: the door rejects, in-flight
    never exceeds capacity, and admitted requests' p99 stays bounded.
    """
    n = 600 if smoke else 1500
    capacity = 32
    models = {
        "m": synthetic_model(
            n_sv=200, n_features=_N_FEATURES, row_nnz=10, seed=31
        )
    }
    sampler = query_sampler(_N_FEATURES, 8)
    # Two shards at full batches serve ~13.3k rps; offer ~2x that.
    workload = open_loop(
        n, 27_000.0, sampler, seed=9, name="fleet-overload"
    )
    door = AdmissionController(capacity=capacity, shed_at=1.0)
    with ServingFleet(models, 2, backend=backend) as fleet:
        report = simulate_fleet(fleet, workload, admission=door)
    snap = report.metrics.snapshot()
    lat = snap["latency"]
    rejected = report.metrics.rejected
    return {
        "offered": len(workload),
        "capacity": capacity,
        "served": report.metrics.served,
        "rejected": rejected,
        "expired": report.metrics.expired,
        "max_inflight": report.max_inflight,
        "admitted_p99_ms": lat["p99_ms"],
        "p99_criterion_ms": OVERLOAD_P99_MS,
        "pass": (
            rejected > 0
            and report.max_inflight <= capacity
            and lat["p99_ms"] <= OVERLOAD_P99_MS
        ),
    }


def run_suite(
    *,
    smoke: bool = False,
    backend: str = "process",
    samples: Optional[int] = None,
) -> Dict:
    """Run all three experiments; assemble ``BENCH_fleet.json``.

    ``samples`` is accepted for CLI uniformity but unused — every
    experiment is deterministic on the virtual clock, so one run *is*
    the distribution.
    """
    del samples
    scaling = run_scaling(smoke=smoke, backend=backend)
    zero_copy = run_zero_copy(smoke=smoke, backend=backend)
    overload = run_overload(smoke=smoke, backend=backend)
    headline_pass = (
        scaling["speedup"] >= HEADLINE_CRITERION
        and scaling["bitwise_identical"]
        and zero_copy["pass"]
        and overload["pass"]
    )
    return {
        "meta": {
            "suite": "fleet",
            "smoke": smoke,
            "backend": backend,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scaling": scaling,
        "zero_copy": zero_copy,
        "overload": overload,
        "headline": {
            "scaling_speedup": scaling["speedup"],
            "criterion": HEADLINE_CRITERION,
            "bitwise_identical": scaling["bitwise_identical"],
            "zero_copy_pass": zero_copy["pass"],
            "overload_pass": overload["pass"],
            "pass": headline_pass,
        },
    }


def write_report(payload: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_summary(payload: Dict) -> str:
    """Terminal summary: headline ratio, per-experiment outcomes."""
    lines = []
    head = payload["headline"]
    verdict = "PASS" if head["pass"] else "FAIL"
    lines.append(
        f"fleet scaling (virtual throughput, 4w / 1w): "
        f"{head['scaling_speedup']:.2f}x "
        f"(criterion {head['criterion']:.1f}x) [{verdict}]"
    )
    for r in payload["scaling"]["runs"]:
        lines.append(
            f"  workers={r['workers']}: {r['throughput_rps']:.0f} rps "
            f"over {r['virtual_makespan_s'] * 1e3:.1f} virtual ms, "
            f"mean batch {r['mean_batch']:.2f}, "
            f"{r['rebalances']} rebalance(s)"
        )
    resched = payload["scaling"]["rescheduling_run"]
    bits = (
        "bitwise identical"
        if head["bitwise_identical"]
        else "MISMATCH"
    )
    lines.append(
        f"  replica re-scheduling run: {resched['events']} format "
        f"flip(s); all answers {bits}"
    )
    zc = payload["zero_copy"]
    lines.append(
        f"zero-copy: hot bytes/request spread {zc['bytes_ratio']:.2f}x "
        f"over a {zc['nnz_span']:.1f}x nnz span "
        f"(criterion <= {zc['criterion']:.1f}x) "
        f"[{'PASS' if zc['pass'] else 'FAIL'}]"
    )
    for p in zc["points"]:
        lines.append(
            f"  {p['label']:<6} nnz={p['nnz']:<6} shm={p['shared_bytes']:>8} B "
            f"hot {p['hot_bytes_per_request']:.0f} B/req"
        )
    ov = payload["overload"]
    lines.append(
        f"overload: {ov['rejected']}/{ov['offered']} rejected at door, "
        f"max in-flight {ov['max_inflight']}/{ov['capacity']}, admitted "
        f"p99 {ov['admitted_p99_ms']:.2f} ms "
        f"(bound {ov['p99_criterion_ms']:.0f} ms) "
        f"[{'PASS' if ov['pass'] else 'FAIL'}]"
    )
    return "\n".join(lines)
