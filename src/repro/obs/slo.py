"""Declarative SLOs with multi-window burn-rate alerting.

The fleet's behaviour is summarised by four event streams the door
already produces — request latency, deadline misses, admission
rejections, and per-shard dispatch backlog.  An :class:`SLOSpec`
declares an objective over one stream ("99 % of requests under
50 ms"); the :class:`SLOMonitor` consumes observations, keeps each
stream in a rolling window, and alerts on the **burn rate** — how
fast the error budget is being spent — evaluated on two windows at
once (the Google SRE workbook's multi-window pattern): the long
window proves the problem is sustained, the short one proves it is
*still happening*, so a breach both fires fast and clears fast.

A breach emits a tracer instant event, a flight-recorder entry, and
(optionally) a full flight dump — the deterministic SLO-breach →
flight-dump path ``tests/obs/test_slo.py`` checks.  Burn rates
land in a metrics registry as gauges for scraping.

Everything is clock-agnostic: observations carry their own timestamps
(virtual or wall), so the monitor works identically under the
virtual clock of :func:`~repro.serve.fleet.simulate_fleet` (the
serving tier's one event loop) and a live session.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.flight import FlightRecorder, flight_recorder
from repro.obs.trace import Tracer, get_tracer

#: The event streams a spec can bind to.
SLO_KINDS = ("latency", "deadline", "rejection", "saturation")


@dataclass(frozen=True)
class SLOSpec:
    """One objective over one event stream.

    ``objective`` is the target good-event fraction (0.99 = "99 % of
    events good"); its complement is the error budget the burn rate
    is measured against.  ``threshold_ms`` is the goodness bound for
    the value-carrying kinds (latency: request latency, saturation:
    dispatch backlog); the deadline/rejection kinds are already
    boolean.  A breach requires the burn rate to exceed
    ``burn_factor`` on *both* windows, with at least ``min_events``
    events in the long window (so a single early bad event cannot
    page).
    """

    name: str
    kind: str
    objective: float = 0.99
    threshold_ms: float = 50.0
    long_window_s: float = 1.0
    short_window_s: float = 0.25
    burn_factor: float = 2.0
    min_events: int = 16

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; "
                f"expected one of {SLO_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.short_window_s > self.long_window_s:
            raise ValueError("short window must be <= long window")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def bad(self, value: float) -> bool:
        """Is one observed value a bad event under this spec?"""
        if self.kind in ("latency", "saturation"):
            return value > self.threshold_ms
        return value >= 0.5  # deadline / rejection: 1.0 = bad


@dataclass(frozen=True)
class SLOStatus:
    """One spec's evaluation at a point in time."""

    name: str
    kind: str
    at: float
    events_long: int
    bad_long: int
    burn_long: float
    burn_short: float
    breached: bool


@dataclass(frozen=True)
class SLOBreach:
    """A fired alert (one per breach episode, hysteresis re-armed)."""

    at: float
    name: str
    kind: str
    burn_long: float
    burn_short: float


def default_slos(
    *,
    latency_ms: float = 50.0,
    saturation_ms: float = 20.0,
) -> Tuple[SLOSpec, ...]:
    """The serving tier's stock objectives (tunable thresholds)."""
    return (
        SLOSpec(
            "latency_p99", "latency",
            objective=0.99, threshold_ms=latency_ms,
        ),
        SLOSpec("deadline_miss", "deadline", objective=0.99),
        SLOSpec("rejection", "rejection", objective=0.95),
        SLOSpec(
            "shard_saturation", "saturation",
            objective=0.90, threshold_ms=saturation_ms,
        ),
    )


class SLOMonitor:
    """Consumes door observations; fires on sustained budget burn.

    One monitor serves one door thread (the DES loop or a live
    session loop); observations carry their own timestamps so the
    monitor never reads a clock.  ``evaluate`` is cheap but not free,
    so observations self-evaluate every ``check_every`` events —
    call :meth:`evaluate` once more at session end for the final
    statuses.

    On breach: a ``slo.breach`` tracer instant event, a flight-
    recorder entry, burn-rate gauges in ``registry``, and — when
    ``dump_path`` is set — a full flight dump to that path.  Each
    spec re-arms only after its long-window burn falls back under the
    factor, so a sustained breach fires once, not once per batch.
    """

    def __init__(
        self,
        specs: Optional[Sequence[SLOSpec]] = None,
        *,
        tracer: Optional[Tracer] = None,
        flight: Optional[FlightRecorder] = None,
        registry: Any = None,
        check_every: int = 64,
        dump_path: Any = None,
        max_events: int = 65536,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.specs: Tuple[SLOSpec, ...] = tuple(
            specs if specs is not None else default_slos()
        )
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("spec names must be unique")
        self._tracer = tracer
        self._flight = flight
        self._registry = registry
        self._check_every = check_every
        self._dump_path = dump_path
        # One stream per kind, shared by every spec of that kind:
        # (t, value) where value is ms for latency/saturation and
        # 0.0/1.0 for the boolean kinds.
        self._streams: Dict[str, Deque[Tuple[float, float]]] = {
            kind: deque(maxlen=max_events) for kind in SLO_KINDS
        }
        self._horizon: Dict[str, float] = {
            kind: max(
                [s.long_window_s for s in self.specs if s.kind == kind],
                default=0.0,
            )
            for kind in SLO_KINDS
        }
        self._armed: Dict[str, bool] = {s.name: True for s in self.specs}
        self.breaches: List[SLOBreach] = []
        self.last_statuses: List[SLOStatus] = []
        self._since_eval = 0
        self._last_t = 0.0

    # -- observation ----------------------------------------------------
    def observe_latency(self, t: float, latency_s: float) -> None:
        self._observe("latency", t, latency_s * 1e3)

    def observe_deadline(self, t: float, missed: bool) -> None:
        self._observe("deadline", t, 1.0 if missed else 0.0)

    def observe_admission(self, t: float, rejected: bool) -> None:
        self._observe("rejection", t, 1.0 if rejected else 0.0)

    def observe_shard(
        self, t: float, shard: int, backlog_s: float
    ) -> None:
        """One dispatch's queue delay on ``shard`` (the saturation
        signal: how far behind the shard's virtual core is running)."""
        self._observe("saturation", t, backlog_s * 1e3)
        if self._registry is not None:
            self._registry.gauge(
                f"repro_slo.shard{shard}.backlog_ms",
                "dispatch backlog at the last routed batch",
            ).set(backlog_s * 1e3)

    def _observe(self, kind: str, t: float, value: float) -> None:
        stream = self._streams[kind]
        stream.append((t, value))
        horizon = self._horizon[kind]
        while stream and t - stream[0][0] > horizon:
            stream.popleft()
        self._last_t = max(self._last_t, t)
        self._since_eval += 1
        if self._since_eval >= self._check_every:
            self.evaluate(self._last_t)

    # -- evaluation ------------------------------------------------------
    def evaluate(self, t: Optional[float] = None) -> List[SLOStatus]:
        """Burn rates for every spec at time ``t`` (default: latest)."""
        at = t if t is not None else self._last_t
        self._since_eval = 0
        statuses: List[SLOStatus] = []
        for spec in self.specs:
            stream = self._streams[spec.kind]
            n_long = bad_long = n_short = bad_short = 0
            for ts, value in reversed(stream):
                age = at - ts
                if age > spec.long_window_s:
                    break
                bad = spec.bad(value)
                n_long += 1
                bad_long += bad
                if age <= spec.short_window_s:
                    n_short += 1
                    bad_short += bad
            burn_long = (
                (bad_long / n_long) / spec.error_budget if n_long else 0.0
            )
            burn_short = (
                (bad_short / n_short) / spec.error_budget
                if n_short
                else 0.0
            )
            breached = (
                n_long >= spec.min_events
                and burn_long >= spec.burn_factor
                and burn_short >= spec.burn_factor
            )
            status = SLOStatus(
                name=spec.name,
                kind=spec.kind,
                at=at,
                events_long=n_long,
                bad_long=bad_long,
                burn_long=burn_long,
                burn_short=burn_short,
                breached=breached,
            )
            statuses.append(status)
            if breached and self._armed[spec.name]:
                self._armed[spec.name] = False
                self._fire(spec, status)
            elif not breached and burn_long < spec.burn_factor:
                self._armed[spec.name] = True
            if self._registry is not None:
                self._registry.gauge(
                    f"repro_slo.{spec.name}.burn_long",
                    "long-window error-budget burn rate",
                ).set(burn_long)
                self._registry.gauge(
                    f"repro_slo.{spec.name}.burn_short",
                    "short-window error-budget burn rate",
                ).set(burn_short)
        self.last_statuses = statuses
        return statuses

    def _fire(self, spec: SLOSpec, status: SLOStatus) -> None:
        self.breaches.append(
            SLOBreach(
                at=status.at,
                name=spec.name,
                kind=spec.kind,
                burn_long=status.burn_long,
                burn_short=status.burn_short,
            )
        )
        tracer = self._tracer if self._tracer is not None else get_tracer()
        if tracer.enabled:
            tracer.instant(
                "slo.breach",
                {
                    "slo": spec.name,
                    "kind": spec.kind,
                    "burn_long": status.burn_long,
                    "burn_short": status.burn_short,
                },
            )
        flight = (
            self._flight if self._flight is not None else flight_recorder()
        )
        if flight.enabled:
            flight.record(
                "slo_breach",
                slo=spec.name,
                slo_kind=spec.kind,
                at=status.at,
                burn_long=status.burn_long,
                burn_short=status.burn_short,
            )
        if self._dump_path is not None:
            flight.dump(
                self._dump_path,
                reason=f"slo_breach:{spec.name}",
                tracer=tracer,
            )

    # -- reporting -------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        """JSON-ready statuses + breach history."""
        return {
            "specs": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "objective": s.objective,
                    "threshold_ms": s.threshold_ms,
                    "long_window_s": s.long_window_s,
                    "short_window_s": s.short_window_s,
                    "burn_factor": s.burn_factor,
                }
                for s in self.specs
            ],
            "statuses": [
                {
                    "name": st.name,
                    "kind": st.kind,
                    "at": st.at,
                    "events_long": st.events_long,
                    "bad_long": st.bad_long,
                    "burn_long": st.burn_long,
                    "burn_short": st.burn_short,
                    "breached": st.breached,
                }
                for st in self.last_statuses
            ],
            "breaches": [
                {
                    "at": b.at,
                    "name": b.name,
                    "kind": b.kind,
                    "burn_long": b.burn_long,
                    "burn_short": b.burn_short,
                }
                for b in self.breaches
            ],
        }


def render_slo(monitor: SLOMonitor) -> str:
    """Terminal table of the monitor's last evaluation + breach log."""
    lines = [
        f"{'slo':18s} {'kind':10s} {'events':>7s} {'bad':>5s} "
        f"{'burn(long)':>10s} {'burn(short)':>11s}  state"
    ]
    for st in monitor.last_statuses:
        lines.append(
            f"{st.name:18s} {st.kind:10s} {st.events_long:7d} "
            f"{st.bad_long:5d} {st.burn_long:10.2f} "
            f"{st.burn_short:11.2f}  "
            + ("BREACHED" if st.breached else "ok")
        )
    if monitor.breaches:
        lines.append("")
        lines.append(f"breaches    : {len(monitor.breaches)}")
        for b in monitor.breaches:
            lines.append(
                f"  [{b.at:.6f}] {b.name} burn "
                f"{b.burn_long:.1f}x/{b.burn_short:.1f}x "
                f"(long/short) over budget"
            )
    else:
        lines.append("")
        lines.append("breaches    : none")
    return "\n".join(lines)
