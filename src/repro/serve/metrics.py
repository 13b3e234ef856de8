"""Serving metrics: latency histograms, throughput, batch-size mix.

Everything here is deterministic given the numbers recorded into it —
the serving stack injects (virtual or monotonic) timestamps; this
module never reads a clock itself, which is what keeps the loadgen
simulations and the determinism property tests exactly replayable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import (
    SUMMARY_PERCENTILES,
    Histogram,
    MetricsRegistry,
    opcounter_view,
)
from repro.perf.counters import OpCounter

#: Percentiles every latency summary reports (the shared histogram
#: primitive's summary percentiles).
PERCENTILES = SUMMARY_PERCENTILES


@dataclass
class LatencySummary:
    """Percentile view over a set of recorded latencies (seconds)."""

    count: int
    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "mean_ms": self.mean * 1e3,
            "max_ms": self.max * 1e3,
        }


def summarise_latencies(samples: List[float]) -> LatencySummary:
    """Percentile summary of a latency sample list.

    Delegates to the :class:`~repro.obs.metrics.Histogram` primitive —
    the repo's one quantile implementation — which uses the ``lower``
    interpolation so reported percentiles are actual observed samples
    (exactly reproducible across numpy versions) and is NaN-free on
    the empty and one-sample windows by construction.
    """
    hist = Histogram("latency_seconds")
    hist.observe_many(samples)
    s = hist.summary()
    return LatencySummary(
        count=int(s["count"]),
        p50=s["p50"],
        p95=s["p95"],
        p99=s["p99"],
        mean=s["mean"],
        max=s["max"],
    )


@dataclass
class ServeMetrics:
    """Rolling counters and samples for one serving session.

    ``record_batch`` is the single write point for served work; the
    admission controller reports rejected / expired / degraded requests
    through their own hooks.  ``snapshot()`` freezes everything into a
    plain dict (JSON-ready, used by the bench payload and the CLI).
    """

    counter: OpCounter = field(default_factory=OpCounter)
    latencies: List[float] = field(default_factory=list)
    batch_sizes: Counter = field(default_factory=Counter)
    served: int = 0
    batches: int = 0
    rejected: int = 0
    expired: int = 0
    degraded: int = 0
    reschedules: int = 0
    first_t: Optional[float] = None
    last_t: Optional[float] = None

    # -- write side ------------------------------------------------------
    def record_batch(
        self, size: int, started_at: float, finished_at: float,
        queued_at: Optional[List[float]] = None,
    ) -> None:
        """One served SpMM batch of ``size`` requests.

        ``queued_at`` (one entry per request, same clock as the other
        timestamps) yields per-request latencies *including* the
        coalescing wait; without it the batch service time is recorded
        once per request.
        """
        if size < 1:
            raise ValueError("batch size must be >= 1")
        self.batches += 1
        self.served += size
        self.batch_sizes[int(size)] += 1
        if queued_at is not None:
            self.latencies.extend(finished_at - q for q in queued_at)
        else:
            self.latencies.extend([finished_at - started_at] * size)
        if self.first_t is None or started_at < self.first_t:
            self.first_t = started_at
        if self.last_t is None or finished_at > self.last_t:
            self.last_t = finished_at

    def record_single(self, arrived_at: float, finished_at: float) -> None:
        """One request served outside the batcher (degraded path).

        Counts toward served totals and latency but not the batch
        histogram — the effective-``k`` statistics describe only what
        the SpMM path achieved.
        """
        self.served += 1
        self.latencies.append(finished_at - arrived_at)
        if self.first_t is None or arrived_at < self.first_t:
            self.first_t = arrived_at
        if self.last_t is None or finished_at > self.last_t:
            self.last_t = finished_at

    def record_rejected(self, n: int = 1) -> None:
        self.rejected += n

    def record_expired(self, n: int = 1) -> None:
        self.expired += n

    def record_degraded(self, n: int = 1) -> None:
        """Requests served through the single-vector shed path."""
        self.degraded += n

    def record_reschedule(self) -> None:
        self.reschedules += 1

    # -- cross-process transport and merge -------------------------------
    def state(self) -> Dict:
        """Plain picklable state (no locks, no live objects).

        The fleet's workers ship this across the process boundary; the
        front door rebuilds with :meth:`from_state` and folds shards
        together with :meth:`merge`.
        """
        return {
            "ops": self.counter.as_dict(),
            "latencies": list(self.latencies),
            "batch_sizes": {int(k): int(v) for k, v in self.batch_sizes.items()},
            "served": self.served,
            "batches": self.batches,
            "rejected": self.rejected,
            "expired": self.expired,
            "degraded": self.degraded,
            "reschedules": self.reschedules,
            "first_t": self.first_t,
            "last_t": self.last_t,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "ServeMetrics":
        """Rebuild a session from :meth:`state` output."""
        m = cls()
        for name, value in state["ops"].items():
            setattr(m.counter, name, value)
        m.latencies = list(state["latencies"])
        m.batch_sizes = Counter(
            {int(k): int(v) for k, v in state["batch_sizes"].items()}
        )
        for name in (
            "served", "batches", "rejected", "expired", "degraded",
            "reschedules", "first_t", "last_t",
        ):
            setattr(m, name, state[name])
        return m

    def merge(self, other: "ServeMetrics") -> None:
        """Fold another session's numbers in.

        Latencies merge as the *union of samples*, so the fleet-wide
        p50/p95/p99 computed afterwards are exactly the percentiles a
        single process observing every request would report (the
        ``lower``-method percentile is a selected sample and order-
        insensitive).  Counts sum; the active window is the envelope
        ``[min first_t, max last_t]``.  Sums of floats (mean latency,
        throughput) are association-dependent, so those are *nearly*
        — not bitwise — equal across merge orders; the regression test
        pins percentiles exactly and means to tolerance.
        """
        self.counter.merge(other.counter)
        self.latencies.extend(other.latencies)
        self.batch_sizes.update(other.batch_sizes)
        self.served += other.served
        self.batches += other.batches
        self.rejected += other.rejected
        self.expired += other.expired
        self.degraded += other.degraded
        self.reschedules += other.reschedules
        if other.first_t is not None and (
            self.first_t is None or other.first_t < self.first_t
        ):
            self.first_t = other.first_t
        if other.last_t is not None and (
            self.last_t is None or other.last_t > self.last_t
        ):
            self.last_t = other.last_t

    # -- read side -------------------------------------------------------
    @property
    def elapsed(self) -> float:
        if self.first_t is None or self.last_t is None:
            return 0.0
        return max(self.last_t - self.first_t, 0.0)

    @property
    def throughput(self) -> float:
        """Served requests per second of active serving time."""
        el = self.elapsed
        return self.served / el if el > 0.0 else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean SpMM batch width: columns swept per batch.  Degraded
        single-vector answers count toward ``served`` but never formed
        a batch, so the width comes from the batch histogram."""
        if not self.batches:
            return 0.0
        return sum(k * n for k, n in self.batch_sizes.items()) / self.batches

    def batch_histogram(self) -> Dict[int, int]:
        return dict(sorted(self.batch_sizes.items()))

    def registry_view(
        self, registry: MetricsRegistry, prefix: str = "repro_serve"
    ) -> None:
        """Expose this session as live views in a metrics registry.

        Session totals become callback gauges (collection reads the
        live value — the registry is a view over this store, not a
        copy), the latency samples populate a shared histogram, and
        the session's :class:`~repro.perf.counters.OpCounter` fields
        are registered through :func:`~repro.obs.metrics.
        opcounter_view`.  Intended to be called once per session;
        re-registering just refreshes the callbacks.
        """
        for name in (
            "served", "batches", "rejected", "expired", "degraded",
            "reschedules",
        ):
            registry.gauge(
                f"{prefix}.{name}",
                help=f"ServeMetrics field {name}",
                fn=(lambda n=name: getattr(self, n)),
            )
        registry.gauge(
            f"{prefix}.throughput_rps",
            help="served requests per second of active serving time",
            fn=lambda: self.throughput,
        )
        registry.gauge(
            f"{prefix}.mean_batch",
            help="mean served batch width",
            fn=lambda: self.mean_batch,
        )
        hist = registry.histogram(
            f"{prefix}.latency_seconds",
            help="per-request serving latency (coalescing wait included)",
        )
        hist.samples = self.latencies  # live view: same list object
        opcounter_view(registry, self.counter, prefix=f"{prefix}.ops")

    def snapshot(self) -> Dict:
        lat = summarise_latencies(self.latencies)
        return {
            "served": self.served,
            "batches": self.batches,
            "rejected": self.rejected,
            "expired": self.expired,
            "degraded": self.degraded,
            "reschedules": self.reschedules,
            "mean_batch": self.mean_batch,
            "batch_histogram": {
                str(k): v for k, v in self.batch_histogram().items()
            },
            "elapsed_s": self.elapsed,
            "throughput_rps": self.throughput,
            "latency": lat.as_dict(),
            "ops": {
                "flops": self.counter.flops,
                "bytes_total": self.counter.bytes_total,
                "spmm_calls": self.counter.spmm_calls,
                "spmm_columns": self.counter.spmm_columns,
            },
        }
