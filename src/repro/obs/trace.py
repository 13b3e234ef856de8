"""Span-based tracing: the shared event model for train/schedule/serve.

A *span* is one named, timed region of work — an SMO iteration, a
format conversion, a scheduler decision, a serve batch flush.  Spans
nest: each carries the id of the span that was open when it started,
propagated through a :mod:`contextvars` variable so nesting survives
``yield`` and callback boundaries without any explicit plumbing.

The tracer is built around one hard constraint: **instrumentation must
be free when disabled**.  ``Tracer.span()`` on a disabled tracer
returns a process-wide no-op singleton — no object is allocated, no
clock is read, no context variable is touched — so hot paths can keep
their spans permanently in place.  The ``repro bench obs`` gate and
the RDL008 lint rule together enforce the discipline at the call sites:
span names are constant strings, and attribute computation sits behind
an ``if tracer.enabled`` guard.

Enable with ``REPRO_TRACE=1`` in the environment (read at import), the
``--trace`` CLI flags, or :func:`enable_tracing` at runtime.  Finished
spans accumulate in a bounded ring buffer (oldest dropped first) and
are exported through :mod:`repro.obs.export`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

#: Id of the currently open span (``None`` at the root).  One variable
#: for the whole process: spans from different tracers still nest
#: correctly because records stay per-tracer.
_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Span-attribute keys that carry a cross-process parent link.  A
#: worker records them (under the ``tracer.enabled`` guard) from the
#: :class:`TraceContext` the front door shipped with the request;
#: :func:`repro.obs.collect.merge_fleet_trace` resolves them back into
#: real ``parent_id`` links when the rings are merged.
CTX_TRACE_ID = "ctx.trace_id"
CTX_PARENT_SPAN = "ctx.parent_span"
CTX_PARENT_LANE = "ctx.parent_lane"

#: Attribute marking a zero-duration marker span recorded by
#: :meth:`Tracer.instant` (exported as a chrome ``"i"`` instant event).
INSTANT_ATTR = "instant"

#: Lane number of the front-door process in a merged fleet trace;
#: worker ``w`` occupies lane ``w + 1``.
DOOR_LANE = 0

#: Process-wide trace-id allocator (cheap; ids only need to be unique
#: within the door process that stamps them onto outgoing requests).
_TRACE_IDS = itertools.count(1)


def new_trace_id() -> int:
    """A fresh trace id for one cross-process request."""
    return next(_TRACE_IDS)


@dataclass(frozen=True)
class TraceContext:
    """A span's identity, shipped across a process boundary.

    The front door opens a request span, wraps its id in a context and
    appends it to the wire message; the worker stamps the triplet onto
    its own spans as ``ctx.*`` attributes.  The context is deliberately
    tiny and picklable — three ints — so carrying it on the hot path
    costs a few bytes per *batch*, not per row.
    """

    trace_id: int
    span_id: int
    lane: int = DOOR_LANE


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``attrs`` is a sorted tuple of ``(key, value)`` pairs rather than a
    dict so records are hashable, order-canonical, and compare equal
    after a JSON round-trip (values must be JSON scalars).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {k: v for k, v in self.attrs},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(d["span_id"]),
            parent_id=(
                None if d.get("parent_id") is None else int(d["parent_id"])
            ),
            name=str(d["name"]),
            start=float(d["start"]),
            end=float(d["end"]),
            attrs=tuple(sorted(d.get("attrs", {}).items())),
        )


class _NoopSpan:
    """The shared disabled-mode span: every method is a no-op.

    A single instance serves every disabled ``span()`` call — the
    identity check ``tracer.span(n) is tracer.span(n)`` is the
    deterministic criterion the overhead gate builds on.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        """Discard an attribute (disabled mode)."""


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """An open span on an enabled tracer (context-manager protocol)."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start",
                 "_attrs", "_token")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(tracer._ids)
        self._attrs: Dict[str, Any] = {}
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-scalar values round-trip exactly)."""
        self._attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self.parent_id = _CURRENT.get()
        self._token = _CURRENT.set(self.span_id)
        self.start = self._tracer._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = self._tracer._clock()
        if self._token is not None:
            _CURRENT.reset(self._token)
        self._tracer._record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self.start,
                end=end,
                attrs=tuple(sorted(self._attrs.items())),
            )
        )
        return False


class Tracer:
    """Collects spans into a bounded, thread-safe ring buffer.

    Parameters
    ----------
    enabled:
        Initial state.  Disabled tracers hand out :data:`NOOP_SPAN`
        and never touch the clock or the buffer.
    max_spans:
        Ring-buffer capacity; the oldest finished spans are dropped
        once full (keeps ``REPRO_TRACE=1`` runs memory-bounded).
    clock:
        Injection point for deterministic tests; defaults to
        :func:`time.perf_counter`.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        max_spans: int = 65536,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.enabled = bool(enabled)
        self._clock = clock
        self._ids = itertools.count(1)
        self._spans: Deque[SpanRecord] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self.dropped = 0

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        """Open a span; usable as ``with tracer.span("x") as sp:``.

        Disabled mode returns the shared no-op singleton: zero
        allocation, zero clock reads.  Call sites therefore compute
        attributes only under ``if tracer.enabled:`` (enforced by lint
        rule RDL008 in the hot-path packages).
        """
        if not self.enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(record)

    def instant(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record a zero-duration marker (SLO breach, hot-spot, ...).

        Free when disabled — but call sites that build an ``attrs``
        dict should still sit behind ``if tracer.enabled:`` so the
        dict is never allocated on a disabled tracer.  The marker
        carries :data:`INSTANT_ATTR` so exporters emit a chrome
        instant event (``ph: "i"``) instead of a complete one.
        """
        if not self.enabled:
            return
        t = self._clock()
        merged: Dict[str, Any] = {INSTANT_ATTR: True}
        if attrs:
            merged.update(attrs)
        self._record(
            SpanRecord(
                span_id=next(self._ids),
                parent_id=_CURRENT.get(),
                name=name,
                start=t,
                end=t,
                attrs=tuple(sorted(merged.items())),
            )
        )

    def now(self) -> float:
        """One reading of this tracer's clock (the collect handshake)."""
        return self._clock()

    # -- control ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- reading ---------------------------------------------------------
    def spans(self) -> List[SpanRecord]:
        """Snapshot of the finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# -- span trees ----------------------------------------------------------


@dataclass
class SpanNode:
    """One span with its children, for tree-shaped inspection."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.record.name,
            "span_id": self.record.span_id,
            "attrs": {k: v for k, v in self.record.attrs},
            "children": [c.as_dict() for c in self.children],
        }


def span_tree(records: List[SpanRecord]) -> List[SpanNode]:
    """Build the forest of spans from a flat record list.

    Children are ordered by start time (ties broken by span id, which
    is allocation order).  Spans whose parent is missing — dropped by
    the ring buffer, or recorded by another tracer — become roots, so
    the tree is total over the input.
    """
    nodes = {r.span_id: SpanNode(r) for r in records}
    roots: List[SpanNode] = []
    for r in sorted(records, key=lambda r: (r.start, r.span_id)):
        node = nodes[r.span_id]
        parent = (
            nodes.get(r.parent_id) if r.parent_id is not None else None
        )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


# -- the process-wide tracer ---------------------------------------------

_GLOBAL = Tracer(enabled=os.environ.get("REPRO_TRACE", "") == "1")


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented call site reports to."""
    return _GLOBAL


def trace_enabled() -> bool:
    return _GLOBAL.enabled


def enable_tracing() -> Tracer:
    """Turn the global tracer on (the ``--trace`` flags call this)."""
    _GLOBAL.enable()
    return _GLOBAL


def disable_tracing() -> Tracer:
    _GLOBAL.disable()
    return _GLOBAL
