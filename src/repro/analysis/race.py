"""Runtime lockset sanitizer: ``REPRO_RACE=1`` (the dynamic half of RDL009).

The static rules (RDL009–RDL012) prove lock *discipline* from source;
this module checks the same property at runtime, the way
``REPRO_SANITIZE=1`` checks format invariants and ``REPRO_TRACE=1``
records spans.  The algorithm is a simplified Eraser-style lockset
check:

* :func:`make_lock` hands out :class:`TrackedLock` wrappers (plain
  ``threading.Lock`` objects when the sanitizer is off) that maintain a
  per-thread set of currently held locks.
* :func:`track_shared` registers named attributes of an object for
  monitoring.  Tracked attributes become data descriptors, so every
  read and write records an ``(thread, lockset, read/write)`` event —
  call sites need no instrumentation at all.
* Two accesses to the same field from different threads, at least one
  of them a write, holding **disjoint** locksets, are a potential data
  race and produce a :class:`RaceReport` in a bounded buffer.

Zero-cost-when-disabled contract (the same bargain the tracer makes;
the cost is gated by ``repro bench obs``): with ``REPRO_RACE`` unset,
:func:`make_lock` returns an ordinary ``threading.Lock`` and
:func:`track_shared` returns its argument untouched — no wrapper
types, no descriptors, nothing on any hot path.

Locks created *before* a sanitizer is enabled are plain locks and
invisible to it; the env var is therefore read once at import, matching
the tracer's process-level switch.  Tests that need a live sanitizer
without the env var construct a private :class:`RaceSanitizer` and call
its ``make_lock``/``track`` methods directly.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Tuple,
    Type,
)


def race_enabled() -> bool:
    """Whether ``REPRO_RACE`` asks for the lockset sanitizer.

    Mirrors :func:`repro.analysis.sanitize.sanitize_enabled`: empty,
    ``0``, ``false``, ``no`` and ``off`` (any case) mean disabled;
    anything else enables.
    """
    flag = os.environ.get("REPRO_RACE", "")
    return flag.strip().lower() not in ("", "0", "false", "no", "off")


class RaceError(AssertionError):
    """Raised by :func:`assert_race_clean` when reports are pending."""


@dataclass(frozen=True)
class Access:
    """One recorded read or write of a tracked field."""

    field: str
    thread_id: int
    thread_name: str
    write: bool
    lockset: FrozenSet[int]
    lock_names: Tuple[str, ...]

    def render(self) -> str:
        kind = "write" if self.write else "read"
        held = ", ".join(self.lock_names) if self.lock_names else "no locks"
        return f"{kind} by {self.thread_name!r} holding {{{held}}}"


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting accesses to one field under disjoint locksets."""

    field: str
    first: Access
    second: Access

    def render(self) -> str:
        return (
            f"data race on {self.field}: {self.first.render()} vs "
            f"{self.second.render()}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "field": self.field,
            "first": self.first.render(),
            "second": self.second.render(),
        }


class TrackedLock:
    """A ``threading.Lock`` that maintains the holder's lockset.

    API-compatible with the subset of ``threading.Lock`` the repo uses
    (context manager, ``acquire``/``release``, ``locked``), so modules
    can swap it in via :func:`make_lock` without any other change.
    """

    __slots__ = ("name", "_lock", "_sanitizer")

    def __init__(self, name: str, sanitizer: "RaceSanitizer") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._sanitizer._push(self)
        return ok

    def release(self) -> None:
        # Drop from the holder's lockset first: the set is thread-local,
        # so the order only matters for *this* thread's later events.
        self._sanitizer._pop(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


class RaceSanitizer:
    """Records tracked-field accesses and flags disjoint-lockset pairs.

    Parameters
    ----------
    enabled:
        Off by default; the module-level instance reads ``REPRO_RACE``.
    history:
        Accesses remembered per field (the comparison window).  Small
        on purpose: a race needs two *temporally close* conflicting
        accesses, and a bounded window keeps long runs memory-flat.
    max_reports:
        Ring-buffer capacity for findings; one report per field is
        kept (the first), so this bounds distinct racy fields.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        history: int = 64,
        max_reports: int = 256,
    ) -> None:
        if history < 2:
            raise ValueError("history must be >= 2")
        if max_reports < 1:
            raise ValueError("max_reports must be >= 1")
        self.enabled = bool(enabled)
        self.history = history
        self._tls = threading.local()
        # A plain lock on purpose: the sanitizer's own bookkeeping must
        # never feed back into the locksets it is checking.
        self._guard = threading.Lock()
        self._events: Dict[Tuple[int, str], Deque[Access]] = {}
        self._labels_reported: set = set()
        self._reports: Deque[RaceReport] = deque(maxlen=max_reports)
        self._tracked_classes: Dict[Tuple[type, Tuple[str, ...]], type] = {}

    # -- lockset maintenance ----------------------------------------------
    def _locks(self) -> List[TrackedLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def _push(self, lock: TrackedLock) -> None:
        self._locks().append(lock)

    def _pop(self, lock: TrackedLock) -> None:
        held = self._locks()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def current_lockset(self) -> Tuple[str, ...]:
        """Names of the tracked locks the calling thread holds."""
        return tuple(lk.name for lk in self._locks())

    # -- lock / field registration ----------------------------------------
    def make_lock(self, name: str):
        """A lock participating in lockset tracking (plain when off)."""
        if not self.enabled:
            return threading.Lock()
        return TrackedLock(name, self)

    def track(self, obj: Any, fields: Iterable[str]) -> Any:
        """Monitor ``fields`` of ``obj``; returns ``obj`` (no-op when off).

        Enabled mode swaps the instance's class for a cached subclass
        whose tracked fields are data descriptors recording every
        read/write.  Existing values stay in the instance ``__dict__``
        (the descriptors read and write it directly), so behaviour is
        unchanged apart from the recording.
        """
        if not self.enabled:
            return obj
        names = tuple(sorted(set(fields)))
        cls = type(obj)
        if getattr(cls, "_repro_race_base", None) is not None:
            cls = cls._repro_race_base  # re-track: extend from the base
            names = tuple(sorted(set(names) | set(cls_tracked(type(obj)))))
        key = (cls, names)
        with self._guard:
            tracked = self._tracked_classes.get(key)
            if tracked is None:
                ns: Dict[str, Any] = {
                    "_repro_race_base": cls,
                    "_repro_race_fields": names,
                }
                for name in names:
                    ns[name] = self._descriptor(cls, name)
                tracked = type(cls.__name__, (cls,), ns)
                self._tracked_classes[key] = tracked
        obj.__class__ = tracked
        return obj

    def _descriptor(self, cls: type, name: str) -> property:
        label = f"{cls.__name__}.{name}"
        sanitizer = self

        def fget(instance: Any) -> Any:
            sanitizer._note(instance, name, label, write=False)
            try:
                return instance.__dict__[name]
            except KeyError:
                raise AttributeError(label) from None

        def fset(instance: Any, value: Any) -> None:
            sanitizer._note(instance, name, label, write=True)
            instance.__dict__[name] = value

        def fdel(instance: Any) -> None:
            sanitizer._note(instance, name, label, write=True)
            del instance.__dict__[name]

        return property(fget, fset, fdel)

    # -- event recording ---------------------------------------------------
    def _note(self, instance: Any, field: str, label: str, write: bool) -> None:
        held = self._locks()
        acc = Access(
            field=label,
            thread_id=threading.get_ident(),
            thread_name=threading.current_thread().name,
            write=write,
            lockset=frozenset(id(lk) for lk in held),
            lock_names=tuple(lk.name for lk in held),
        )
        key = (id(instance), field)
        with self._guard:
            window = self._events.get(key)
            if window is None:
                window = deque(maxlen=self.history)
                self._events[key] = window
            if label not in self._labels_reported:
                for prior in window:
                    if (
                        prior.thread_id != acc.thread_id
                        and (prior.write or acc.write)
                        and not (prior.lockset & acc.lockset)
                    ):
                        self._labels_reported.add(label)
                        self._reports.append(
                            RaceReport(field=label, first=prior, second=acc)
                        )
                        break
            window.append(acc)

    # -- reading -----------------------------------------------------------
    def reports(self) -> List[RaceReport]:
        with self._guard:
            return list(self._reports)

    def clear(self) -> None:
        with self._guard:
            self._events.clear()
            self._labels_reported.clear()
            self._reports.clear()

    def assert_clean(self) -> None:
        reports = self.reports()
        if reports:
            raise RaceError(
                "lockset sanitizer found potential data races:\n"
                + "\n".join(f"  {r.render()}" for r in reports)
            )


def cls_tracked(cls: Type) -> Tuple[str, ...]:
    """Fields tracked on a (possibly wrapped) class; empty when none."""
    return tuple(getattr(cls, "_repro_race_fields", ()))


# -- block-partition runtime check ----------------------------------------


def check_disjoint_blocks(blocks: Sequence[Tuple[int, int]], m: int) -> None:
    """Assert a block partition is disjoint and within ``[0, m)``.

    The parallel kernel is race-free *by construction* because every
    closure writes only its own ``[s:e]`` output slice; this is the
    runtime check of that construction (descriptors cannot see NumPy
    element writes).  Called by ``repro.parallel.kernels`` only when the
    sanitizer is enabled.
    """
    prev_end = 0
    for s, e in blocks:
        if not 0 <= s <= e <= m:
            raise RaceError(
                f"block [{s}, {e}) escapes the output range [0, {m})"
            )
        if s < prev_end:
            raise RaceError(
                f"block [{s}, {e}) overlaps the previous block "
                f"(ends at {prev_end}); workers would write shared slices"
            )
        prev_end = e


# -- the process-wide sanitizer --------------------------------------------

_GLOBAL = RaceSanitizer(enabled=race_enabled())


def get_race_sanitizer() -> RaceSanitizer:
    """The process-wide sanitizer (enabled iff ``REPRO_RACE`` was set)."""
    return _GLOBAL


def make_lock(name: str):
    """A lock from the global sanitizer: tracked when on, plain when off."""
    return _GLOBAL.make_lock(name)


def track_shared(obj: Any, fields: Iterable[str]) -> Any:
    """Register ``obj.fields`` with the global sanitizer (no-op when off)."""
    return _GLOBAL.track(obj, fields)


def race_reports() -> List[RaceReport]:
    """Findings accumulated by the global sanitizer."""
    return _GLOBAL.reports()


def clear_race_reports() -> None:
    _GLOBAL.clear()


def assert_race_clean() -> None:
    """Raise :class:`RaceError` if the global sanitizer saw a race."""
    _GLOBAL.assert_clean()
