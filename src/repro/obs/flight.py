"""Flight recorder: an always-on ring of recent events, dumped on fault.

Production incidents are observed *after* the fact; by the time
anyone attaches a tracer the interesting window is gone.  The flight
recorder closes that gap the way avionics do: a small bounded ring of
recent happenings (rebalances, SLO breaches, worker errors) is kept
continuously, costs one predicate per call when disabled (the same
free-when-disabled discipline as the span tracer and the race
sanitizer; the cost is gated by ``repro bench obs``), and the whole
ring — plus the tracer's recent spans and a metrics snapshot — is
written to JSONL when something goes wrong:

* a worker process crash (``fleet_worker_main`` dumps before dying),
* ``SIGUSR1`` (``install_signal_dump``; poke a live process for its
  recent history),
* an SLO breach (:class:`~repro.obs.slo.SLOMonitor` with a
  ``dump_path``).

Enable with ``REPRO_FLIGHT=1`` (read at import, so fleet workers
inherit it through the environment), ``enable_flight()``, or the
fleet's ``trace_on`` control verb.  ``REPRO_FLIGHT_DIR`` picks where
default-named dumps land; ``repro obs dump FILE`` renders one.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.obs.trace import SpanRecord, Tracer, get_tracer

#: Dump-format version stamped into every header line.
FLIGHT_VERSION = 1

#: Per-process sequence for default dump filenames (a crash and a
#: signal dump in one process must not clobber each other).
_DUMP_SEQ = itertools.count(1)


class FlightRecorder:
    """A bounded ring of recent events, free when disabled.

    ``record()`` on a disabled recorder is a single attribute check —
    it never touches the clock, the lock, or the ring — so call sites
    stay permanently in place on hot paths, guarded exactly like span
    attributes: ``if flight.enabled: flight.record(...)``.
    """

    def __init__(
        self,
        *,
        capacity: int = 512,
        enabled: bool = False,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = bool(enabled)
        self._clock = clock
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    # -- recording -------------------------------------------------------
    def record(self, kind: str, **data: Any) -> None:
        """Append one event (kind + JSON-scalar payload) to the ring."""
        if not self.enabled:
            return
        entry = {"t": self._clock(), "kind": kind}
        entry.update(data)
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(entry)

    # -- control ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    # -- reading ---------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- dumping ---------------------------------------------------------
    def dump(
        self,
        path: Union[str, Path, None] = None,
        *,
        reason: str = "manual",
        tracer: Optional[Tracer] = None,
        registry: Any = None,
        span_tail: int = 256,
    ) -> Path:
        """Write the ring + recent spans + metrics snapshot as JSONL.

        Works whatever the enabled state (a disabled recorder dumps an
        empty ring — the header still records the reason and pid).
        Line shapes: a header object first, then ``{"event": ...}``,
        ``{"span": ...}`` and one ``{"metrics": ...}`` line; see
        :func:`read_flight_dump` for the inverse.
        """
        from repro.obs.metrics import get_registry

        tracer = tracer if tracer is not None else get_tracer()
        registry = registry if registry is not None else get_registry()
        if path is None:
            base = Path(os.environ.get("REPRO_FLIGHT_DIR", "."))
            path = base / (
                f"flight-{os.getpid()}-{next(_DUMP_SEQ)}.jsonl"
            )
        path = Path(path)
        with self._lock:
            events = list(self._ring)
            events_dropped = self.dropped
        spans = tracer.spans()[-span_tail:] if span_tail > 0 else []
        lines = [
            json.dumps(
                {
                    "flight": FLIGHT_VERSION,
                    "pid": os.getpid(),
                    "reason": reason,
                    "at": self._clock(),
                    "n_events": len(events),
                    "events_dropped": events_dropped,
                    "n_spans": len(spans),
                    "tracer_dropped": tracer.dropped,
                },
                sort_keys=True,
            )
        ]
        lines.extend(
            json.dumps({"event": e}, sort_keys=True) for e in events
        )
        lines.extend(
            json.dumps({"span": s.as_dict()}, sort_keys=True)
            for s in spans
        )
        lines.append(
            json.dumps({"metrics": registry.as_dict()}, sort_keys=True)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return path


def read_flight_dump(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a dump back into ``{header, events, spans, metrics}``."""
    header: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if "flight" in d:
            header = d
        elif "event" in d:
            events.append(d["event"])
        elif "span" in d:
            spans.append(d["span"])
        elif "metrics" in d:
            metrics = d["metrics"]
    if not header:
        raise ValueError(f"{path}: not a flight-recorder dump")
    return {
        "header": header,
        "events": events,
        "spans": spans,
        "metrics": metrics,
    }


def render_flight(dump: Dict[str, Any]) -> str:
    """Human-readable rendering of a parsed dump."""
    h = dump["header"]
    lines = [
        f"flight dump : pid {h.get('pid')} — {h.get('reason')} "
        f"(format v{h.get('flight')})",
        f"  events    : {h.get('n_events')} recorded, "
        f"{h.get('events_dropped')} dropped from the ring",
        f"  spans     : {h.get('n_spans')} recent "
        f"({h.get('tracer_dropped')} dropped from the tracer ring)",
    ]
    for e in dump["events"]:
        extra = ", ".join(
            f"{k}={v}" for k, v in sorted(e.items())
            if k not in ("t", "kind")
        )
        lines.append(
            f"    [{e.get('t', 0.0):.6f}] {e.get('kind')}"
            + (f"  {extra}" if extra else "")
        )
    for d in dump["spans"][-10:]:
        s = SpanRecord.from_dict(d)
        lines.append(
            f"    span {s.name} [{s.start:.6f}..{s.end:.6f}]"
        )
    if len(dump["spans"]) > 10:
        lines.append(
            f"    ... ({len(dump['spans']) - 10} earlier spans in file)"
        )
    if dump["metrics"]:
        lines.append(f"  metrics   : {len(dump['metrics'])} series")
    return "\n".join(lines)


# -- the process-wide recorder -------------------------------------------

_GLOBAL = FlightRecorder(
    enabled=os.environ.get("REPRO_FLIGHT", "") == "1"
)


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _GLOBAL


def enable_flight() -> FlightRecorder:
    _GLOBAL.enable()
    return _GLOBAL


def disable_flight() -> FlightRecorder:
    _GLOBAL.disable()
    return _GLOBAL


def install_signal_dump(
    signum: int = signal.SIGUSR1,
    recorder: Optional[FlightRecorder] = None,
) -> bool:
    """Dump the recorder when ``signum`` arrives (default SIGUSR1).

    Returns ``False`` where handlers cannot be installed (non-main
    thread, exotic platforms) instead of raising — the recorder is a
    best-effort safety net, never a crash source of its own.
    """
    rec = recorder if recorder is not None else _GLOBAL

    def _handler(_signum: int, _frame: Any) -> None:
        rec.dump(reason=f"signal {_signum}")

    try:
        signal.signal(signum, _handler)
    except (ValueError, OSError, AttributeError):
        return False
    return True
