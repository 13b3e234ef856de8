"""Deterministic load generation: seeded workloads on a virtual clock.

Arrival times are drawn from a seeded RNG when the workload is built,
so a workload is a fixed, fully materialised schedule — no wall-clock
reading anywhere.  :func:`repro.serve.fleet.simulate_fleet` serves
them (it is the serving tier's one event loop); a given
``(workload, fleet, knobs)`` triple replays bit-for-bit, the property
the serving determinism tests and the re-schedule demo rely on.

Workload shapes:

* :func:`open_loop` — Poisson arrivals at a target rate; requests
  arrive whether or not the server keeps up (the shape that exposes
  queueing and shedding).
* :func:`closed_loop` — ``concurrency`` synthetic clients that each
  wait for their previous answer (modelled at a fixed virtual service
  time) plus a think time before issuing the next request; arrival
  times are precomputed deterministically from that model.
* :func:`phase_shift` — the re-scheduling demo: a phase of paced
  singles (effective batch width 1) followed by a phase of
  simultaneous bursts (width ``max_batch``), which moves the cost
  model's ``batch_k`` amortisation enough to flip the winning format
  mid-stream.
* :func:`bursty`, :func:`diurnal` and :func:`multi_tenant` — rate-
  modulated and merged per-tenant streams for the fleet.

:func:`replay_unbatched` is the reference every served session is
compared against: each request through the single-vector path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.formats.base import SparseVector
from repro.serve.engine import InferenceEngine

VectorSampler = Callable[[np.random.Generator], SparseVector]


def query_sampler(
    n_features: int, nnz: int, *, scale: float = 1.0
) -> VectorSampler:
    """A sampler drawing sparse query vectors with ``nnz`` non-zeros."""
    if not 0 < nnz <= n_features:
        raise ValueError("need 0 < nnz <= n_features")

    def sample(rng: np.random.Generator) -> SparseVector:
        idx = np.sort(
            rng.choice(n_features, size=nnz, replace=False)
        ).astype(np.int32)
        vals = rng.standard_normal(nnz) * scale
        return SparseVector(idx, vals, n_features)

    return sample


@dataclass(frozen=True)
class TimedRequest:
    """One workload arrival on the virtual clock.

    ``model`` and ``tenant`` are fleet-era annotations: the front door
    routes on ``model`` (``None`` means "the only model"), and
    ``tenant`` labels which synthetic client stream produced the
    arrival so hot-spot analyses can attribute load.  Single-engine
    code paths ignore both.
    """

    req_id: int
    t: float
    vector: SparseVector
    deadline: Optional[float] = None
    model: Optional[str] = None
    tenant: Optional[str] = None


@dataclass
class Workload:
    """A named, fully materialised arrival schedule (time-sorted)."""

    name: str
    arrivals: List[TimedRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)


def _deadline(t: float, deadline_ms: Optional[float]) -> Optional[float]:
    return None if deadline_ms is None else t + deadline_ms / 1e3


def open_loop(
    n: int,
    rate_rps: float,
    sampler: VectorSampler,
    *,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "open-loop",
) -> Workload:
    """Poisson arrivals: exponential interarrival gaps at ``rate_rps``."""
    if rate_rps <= 0.0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    t = 0.0
    arrivals = []
    for i in range(n):
        t += float(rng.exponential(1.0 / rate_rps))
        arrivals.append(
            TimedRequest(i, t, sampler(rng), _deadline(t, deadline_ms))
        )
    return Workload(name=name, arrivals=arrivals)


def closed_loop(
    n: int,
    concurrency: int,
    sampler: VectorSampler,
    *,
    service_ms: float = 1.0,
    think_ms: float = 0.0,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "closed-loop",
) -> Workload:
    """``concurrency`` clients, each issuing after its previous answer.

    Completion is modelled at a fixed virtual ``service_ms`` so the
    whole schedule is precomputed and deterministic; the simulation
    then serves it like any other workload.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if service_ms < 0.0 or think_ms < 0.0:
        raise ValueError("service_ms and think_ms must be >= 0")
    rng = np.random.default_rng(seed)
    next_issue = [0.0] * concurrency
    arrivals = []
    for i in range(n):
        client = int(np.argmin(next_issue))
        t = next_issue[client]
        arrivals.append(
            TimedRequest(i, t, sampler(rng), _deadline(t, deadline_ms))
        )
        next_issue[client] = t + (service_ms + think_ms) / 1e3
    arrivals.sort(key=lambda r: (r.t, r.req_id))
    return Workload(name=name, arrivals=arrivals)


def _modulated_open_loop(
    n: int,
    rate_fn: Callable[[float], float],
    sampler: VectorSampler,
    *,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "modulated",
    model: Optional[str] = None,
    tenant: Optional[str] = None,
) -> Workload:
    """Open-loop arrivals whose rate varies over virtual time.

    Each gap is exponential at the rate *in force when it starts*
    (piecewise-stationary approximation of a non-homogeneous Poisson
    process) — exact enough for load shaping, and fully deterministic
    from the seed, which is what the fleet bench gates on.
    """
    rng = np.random.default_rng(seed)
    t = 0.0
    arrivals = []
    for i in range(n):
        rate = float(rate_fn(t))
        if rate <= 0.0:
            raise ValueError(f"rate_fn({t}) = {rate}; rates must stay > 0")
        t += float(rng.exponential(1.0 / rate))
        arrivals.append(
            TimedRequest(
                i, t, sampler(rng), _deadline(t, deadline_ms),
                model=model, tenant=tenant,
            )
        )
    return Workload(name=name, arrivals=arrivals)


def bursty(
    n: int,
    base_rps: float,
    sampler: VectorSampler,
    *,
    burst_factor: float = 8.0,
    period_s: float = 1.0,
    duty: float = 0.25,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "bursty",
    model: Optional[str] = None,
    tenant: Optional[str] = None,
) -> Workload:
    """Square-wave rate modulation: quiet floor, periodic bursts.

    The first ``duty`` fraction of every ``period_s`` window runs at
    ``base_rps * burst_factor``, the rest at ``base_rps`` — the
    classic flash-crowd shape that concentrates arrivals and creates
    the hot shards the rebalancer must detect.
    """
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")

    def rate(t: float) -> float:
        phase = (t % period_s) / period_s
        return base_rps * (burst_factor if phase < duty else 1.0)

    return _modulated_open_loop(
        n, rate, sampler, seed=seed, deadline_ms=deadline_ms,
        name=name, model=model, tenant=tenant,
    )


def diurnal(
    n: int,
    base_rps: float,
    sampler: VectorSampler,
    *,
    amplitude: float = 0.8,
    period_s: float = 4.0,
    phase: float = 0.0,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "diurnal",
    model: Optional[str] = None,
    tenant: Optional[str] = None,
) -> Workload:
    """Sinusoidal rate modulation (a compressed day-night cycle).

    ``phase`` offsets the cycle so different tenants peak at different
    virtual hours — staggered peaks are what shift the hot spot from
    one shard to another mid-run.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")

    def rate(t: float) -> float:
        return base_rps * (
            1.0 + amplitude * np.sin(2.0 * np.pi * (t / period_s + phase))
        )

    return _modulated_open_loop(
        n, rate, sampler, seed=seed, deadline_ms=deadline_ms,
        name=name, model=model, tenant=tenant,
    )


@dataclass(frozen=True)
class TenantSpec:
    """One synthetic client population in a multi-tenant workload.

    ``pattern`` picks the arrival shape (``steady`` | ``bursty`` |
    ``diurnal``); ``model`` names which served model this tenant
    queries, so a mix of specs exercises routing and per-model hot
    spots.  ``n`` and ``rate_rps`` size the stream; the remaining
    knobs feed the underlying pattern generator.
    """

    name: str
    model: str
    n: int
    rate_rps: float
    pattern: str = "steady"
    burst_factor: float = 8.0
    amplitude: float = 0.8
    period_s: float = 1.0
    duty: float = 0.25
    phase: float = 0.0
    deadline_ms: Optional[float] = None


def multi_tenant(
    tenants: List[TenantSpec],
    sampler: VectorSampler,
    *,
    seed: int = 0,
    name: str = "multi-tenant",
) -> Workload:
    """Merge per-tenant arrival streams into one routed workload.

    Every tenant gets an independent substream seeded from ``seed``
    and its position (so adding a tenant never perturbs the others),
    the streams are merged in timestamp order with ties broken by
    tenant position, and request ids are reassigned to the merged
    order — ids are unique across the fleet, not per tenant.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    streams: List[List[TimedRequest]] = []
    for idx, spec in enumerate(tenants):
        sub_seed = seed * 1000 + idx
        common = dict(
            seed=sub_seed, deadline_ms=spec.deadline_ms,
            name=spec.name, model=spec.model, tenant=spec.name,
        )
        if spec.pattern == "steady":
            wl = _modulated_open_loop(
                spec.n, lambda t: spec.rate_rps, sampler, **common
            )
        elif spec.pattern == "bursty":
            wl = bursty(
                spec.n, spec.rate_rps, sampler,
                burst_factor=spec.burst_factor, period_s=spec.period_s,
                duty=spec.duty, **common,
            )
        elif spec.pattern == "diurnal":
            wl = diurnal(
                spec.n, spec.rate_rps, sampler,
                amplitude=spec.amplitude, period_s=spec.period_s,
                phase=spec.phase, **common,
            )
        else:
            raise ValueError(
                f"unknown arrival pattern {spec.pattern!r}; expected "
                f"steady, bursty or diurnal"
            )
        streams.append(wl.arrivals)
    merged: List[Tuple[float, int, int, TimedRequest]] = []
    for idx, stream in enumerate(streams):
        for req in stream:
            merged.append((req.t, idx, req.req_id, req))
    merged.sort(key=lambda item: item[:3])
    arrivals = [
        TimedRequest(
            rid, req.t, req.vector, req.deadline,
            model=req.model, tenant=req.tenant,
        )
        for rid, (_, _, _, req) in enumerate(merged)
    ]
    return Workload(name=name, arrivals=arrivals)


def phase_shift(
    sampler: VectorSampler,
    *,
    singles: int = 64,
    single_gap_ms: float = 5.0,
    bursts: int = 24,
    burst_size: int = 8,
    burst_gap_ms: float = 5.0,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    name: str = "phase-shift",
) -> Workload:
    """Paced singles, then simultaneous bursts — the batch-width drift.

    Phase one's gaps exceed any sane ``max_wait_ms``, so every batch
    serves one request (effective ``k`` = 1).  Phase two drops
    ``burst_size`` requests on identical timestamps, so the batcher
    coalesces whole bursts (effective ``k`` = ``burst_size``) and the
    re-scheduler sees the amortisation regime change.
    """
    rng = np.random.default_rng(seed)
    arrivals = []
    rid = 0
    t = 0.0
    for _ in range(singles):
        arrivals.append(
            TimedRequest(rid, t, sampler(rng), _deadline(t, deadline_ms))
        )
        rid += 1
        t += single_gap_ms / 1e3
    for _ in range(bursts):
        for _ in range(burst_size):
            arrivals.append(
                TimedRequest(rid, t, sampler(rng), _deadline(t, deadline_ms))
            )
            rid += 1
        t += burst_gap_ms / 1e3
    return Workload(name=name, arrivals=arrivals)


def replay_unbatched(
    engine: InferenceEngine, workload: Workload
) -> Dict[int, float]:
    """Reference answers: every request through the single-vector path.

    Used by the determinism tests and the re-schedule demo to assert
    micro-batched (and mid-stream re-scheduled) serving is bitwise
    identical to unbatched serving.
    """
    return {
        req.req_id: engine.predict_one(req.vector)
        for req in workload.arrivals
    }
