"""Runtime layout re-scheduling driven by the observed batch mix.

The paper schedules a layout *before* a training run from the dataset
profile.  At serving time one more input appears that the profile
cannot see: the **effective batch width** the micro-batcher actually
achieves, which moves the cost model's amortisation term (``batch_k``)
and with it the winning format.  :class:`FormatRescheduler` closes the
loop — it keeps a rolling histogram of served batch sizes, periodically
re-invokes the :class:`~repro.core.scheduler.LayoutScheduler` at the
observed effective ``batch_k``, and tells the engine to convert when
the winner changed by enough to matter.

The rescheduler is policy only: *when* to re-decide (check cadence),
*at what width* (the histogram) and *whether the win is worth a swap*
(``min_gain`` hysteresis).  *What* format wins is one profile-level
:meth:`~repro.core.scheduler.LayoutScheduler.decide_profile` call —
the same decision-cache / strategy path every training-time decision
takes — and the hysteresis reads its costs from the returned decision.
Candidates default to :data:`~repro.serve.engine.EXACT_SERVE_FORMATS`
so a swap can never perturb predictions; the matrix profile is
format-invariant and cached once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, List, Optional, Tuple

from repro.analysis.race import make_lock, track_shared
from repro.core.scheduler import LayoutScheduler
from repro.features.extract import extract_profile
from repro.formats.base import MatrixFormat
from repro.obs.audit import audit_log
from repro.obs.trace import get_tracer
from repro.serve.engine import EXACT_SERVE_FORMATS


@dataclass(frozen=True)
class RescheduleEvent:
    """Audit record of one runtime format change."""

    batch_seq: int
    effective_k: int
    from_fmt: str
    to_fmt: str
    reason: str


class BatchSizeHistogram:
    """Rolling window of served batch widths.

    ``effective_k`` is the *column-weighted* mean — ``sum(k^2) /
    sum(k)`` — because a request in a width-8 batch experiences width-8
    amortisation: weighting by batches would let a stream of stray
    singles mask a bulk-batched majority of the traffic.
    """

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._sizes: Deque[int] = deque(maxlen=window)

    def observe(self, k: int) -> None:
        if k < 1:
            raise ValueError("batch size must be >= 1")
        self._sizes.append(int(k))

    def __len__(self) -> int:
        return len(self._sizes)

    def effective_k(self) -> int:
        if not self._sizes:
            return 1
        total = sum(self._sizes)
        weighted = sum(k * k for k in self._sizes)
        return max(1, round(weighted / total))


class FormatRescheduler:
    """Policy: when and to what the engine's matrix is converted.

    Parameters
    ----------
    window:
        Batch-size observations kept in the rolling histogram.
    check_every:
        Re-decide cadence, in served batches.  Deciding is cheap (a
        cached cost-model rank) but there is no reason to run it per
        batch.
    min_gain:
        Hysteresis: convert only if the model predicts the new format
        is at least this fraction faster than staying put (e.g. ``0.05``
        = 5 %).  Keeps the engine from thrashing between two formats
        whose costs straddle the crossover.
    candidates:
        Formats the runtime decision may pick.  Defaults to the
        exact serving family; callers who do not need bitwise
        stability across swaps may widen it.
    scheduler:
        The scheduler that decides (default: the cost strategy over
        ``candidates``).  It decides from the profile alone, so it
        must not need a probe (see
        :meth:`~repro.core.scheduler.LayoutScheduler.decide_profile`).
    """

    def __init__(
        self,
        *,
        window: int = 64,
        check_every: int = 16,
        min_gain: float = 0.05,
        candidates: Tuple[str, ...] = EXACT_SERVE_FORMATS,
        scheduler: Optional[LayoutScheduler] = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if min_gain < 0.0:
            raise ValueError("min_gain must be >= 0")
        self.hist = BatchSizeHistogram(window)
        self.check_every = check_every
        self.min_gain = min_gain
        self.scheduler = scheduler or LayoutScheduler(
            "cost", candidates=candidates
        )
        self.events: List[RescheduleEvent] = []
        self._batches_seen = 0
        self._profile = None
        self._last_k: Optional[int] = None
        self._lock = make_lock("serve.rescheduler")
        track_shared(
            self, ("_batches_seen", "_profile", "_last_k", "events")
        )

    def initial_format(self, matrix: MatrixFormat) -> str:
        """The format to start serving in.

        Decided at ``batch_k=1``: the traffic's width is unknown until
        the histogram has seen ``check_every`` batches.  The warm-up is
        not a runtime decision and leaves no audit record; only flips
        do.
        """
        with self._lock:
            self._profile = extract_profile(matrix)
            return self.scheduler.decide_profile(
                self._profile, batch_k=1
            ).fmt

    # -- the runtime loop ------------------------------------------------
    def after_batch(
        self, batch_size: int, matrix: MatrixFormat
    ) -> Optional[RescheduleEvent]:
        """Observe one served batch; maybe decide a new format.

        Returns the event to apply (caller converts the engine and
        records the metric) or ``None``.  The histogram, profile and
        decision state live under an internal policy lock, so multiple
        serving threads can share one rescheduler.
        """
        with self._lock:
            return self._after_batch_locked(batch_size, matrix)

    def _after_batch_locked(
        self, batch_size: int, matrix: MatrixFormat
    ) -> Optional[RescheduleEvent]:
        self.hist.observe(batch_size)
        self._batches_seen += 1
        if self._batches_seen % self.check_every != 0:
            return None
        eff = self.hist.effective_k()
        if eff == self._last_k:
            return None  # batch mix unchanged; ranking cannot move
        self._last_k = eff
        tracer = get_tracer()
        with tracer.span("serve.reschedule") as sp:
            if self._profile is None:
                self._profile = extract_profile(matrix)
            decision = self.scheduler.decide_profile(
                self._profile, batch_k=eff
            )
            winner = decision.fmt
            if tracer.enabled:
                sp.set("effective_k", eff)
                sp.set("from", matrix.name)
                sp.set("winner", winner)
            if winner == matrix.name:
                return None
            cost = decision.predicted
            current, best = cost.get(matrix.name), cost.get(winner)
            priced = current is not None and best is not None
            if priced and current < best * (1.0 + self.min_gain):
                return None  # inside the hysteresis band; no swap
            event = RescheduleEvent(
                batch_seq=self._batches_seen,
                effective_k=eff,
                from_fmt=matrix.name,
                to_fmt=winner,
                reason=(
                    f"effective batch_k={eff}: model cost "
                    f"{best:.3g} ({winner}) vs "
                    f"{current:.3g} ({matrix.name})"
                    if priced
                    else f"effective batch_k={eff}: {winner} ranked first"
                ),
            )
            self.events.append(event)
            # Every runtime flip lands in the process audit log with
            # the same regret inputs as a training-time decision —
            # `repro obs report` shows them under source="serve".
            audit_log().record(
                replace(decision, reason=event.reason).record("serve")
            )
            return event
