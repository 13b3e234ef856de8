"""Micro-batching: coalesce queued requests into one SpMM sweep.

The core trade the paper's ``batch_k`` knob models: a blocked kernel
sweep over ``k`` query vectors traverses the support-vector matrix's
index structure once instead of ``k`` times, so serving throughput
rises with batch width — at the cost of the wait spent coalescing.
:class:`MicroBatcher` bounds that wait two ways: a batch flushes as
soon as it holds ``max_batch`` requests, or when the *oldest* request
in it has waited ``max_wait_ms``.

The batcher is clock-agnostic: callers pass ``now`` into ``submit`` /
``poll``, so the same code runs under the load generator's virtual
clock (deterministic tests) and a monotonic clock (live serving).  It
is lock-protected for concurrent submitters; flushing hands back a
plain list of requests — executing the SpMM is the engine's job.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.race import make_lock, track_shared

from repro.serve.admission import Request


class MicroBatcher:
    """Size- and deadline-bounded request coalescing.

    Parameters
    ----------
    max_batch:
        Flush as soon as this many requests are pending.  This is the
        upper bound on the SpMM width ``k`` the engine sees.
    max_wait_ms:
        Flush once the oldest pending request has waited this long,
        whatever the batch size — the latency ceiling micro-batching
        adds.  ``0`` degenerates to immediate per-request flushing.
    """

    def __init__(self, max_batch: int = 8, max_wait_ms: float = 2.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0.0:
            raise ValueError("max_wait_ms must be >= 0")
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1e3
        self._pending: List[Request] = []
        self._oldest_at: Optional[float] = None
        self._lock = make_lock("serve.batcher")
        track_shared(self, ("_pending", "_oldest_at"))

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def submit(self, req: Request, now: float) -> Optional[List[Request]]:
        """Queue a request; returns a full batch if this one filled it."""
        with self._lock:
            if not self._pending:
                self._oldest_at = now
            self._pending.append(req)
            if len(self._pending) >= self.max_batch:
                return self._drain()
            return None

    def poll(self, now: float) -> Optional[List[Request]]:
        """Flush if the oldest pending request has hit ``max_wait_ms``.

        The deadline is ``oldest + max_wait`` — the *same expression*
        :meth:`next_flush_at` returns, not the algebraically equal
        ``now - oldest >= max_wait``: under floating point the two can
        disagree at the deadline itself, and an event loop stepping to
        ``next_flush_at()`` would then poll without flushing, forever.
        """
        with self._lock:
            if (
                self._pending
                and self._oldest_at is not None
                and now >= self._oldest_at + self.max_wait
            ):
                return self._drain()
            return None

    def next_flush_at(self) -> Optional[float]:
        """Timestamp when ``poll`` would next flush; ``None`` if empty.

        :func:`~repro.serve.fleet.simulate_fleet` uses this to
        interleave batch deadlines with arrivals in virtual-time order.
        """
        with self._lock:
            if self._oldest_at is None:
                return None
            return self._oldest_at + self.max_wait

    def _drain(self) -> List[Request]:
        # Caller holds the lock.
        batch = self._pending
        self._pending = []
        self._oldest_at = None
        return batch
