"""The layout scheduler facade.

Combines the three decision mechanisms into one entry point:

========  =============================================================
Strategy  Behaviour
========  =============================================================
rules     decision list only (microseconds, fully predictable)
cost      analytic cost model only (microseconds, machine-calibrated)
probe     measure every format on a row sample (milliseconds, exact)
hybrid    probe decides between the model's two cheapest formats;
          a pick the model is sure of (see ``BAND``) stands unprobed
========  =============================================================

Every decision, training-time or serving-time, is made by one method
(:meth:`LayoutScheduler._decide`): the in-memory :class:`DecisionCache`
answers for a profile it has seen, otherwise the configured strategy
decides from the matrix's own profile (and, for probe and hybrid, its
own rows).  The returned :class:`Decision` carries the model's
per-format costs (and any measured ones) for the audit record and for
callers' own policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.race import make_lock, track_shared

from repro.core.autotune import AutoTuner
from repro.core.cost_model import ArchCalibration, CostModel
from repro.core.rules import rule_based_choice
from repro.features.extract import profile_from_coo
from repro.features.profile import DatasetProfile
from repro.formats.base import FORMAT_NAMES, MatrixFormat
from repro.formats.convert import convert, format_class
from repro.obs.audit import DecisionRecord, audit_log, current_dataset
from repro.obs.trace import get_tracer

STRATEGIES = ("rules", "cost", "probe", "hybrid")

#: The hybrid skips its probe when the model's runner-up is predicted to
#: cost at least this many times its pick.  Measured against a 5-repeat
#: probe (docs/scheduling.md): the probe overturned the model at
#: margins up to 1.84, and confirmed every pick at the dense margin of
#: 2.57 by 5.8-12.7x.
BAND = 2.2

CooTriples = Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]


@dataclass(frozen=True)
class Decision:
    """A scheduling decision with its audit trail."""

    fmt: str
    strategy: str
    reason: str
    profile: DatasetProfile
    cached: bool = False
    #: Provenance of the chosen format: "analytic" (cost model / rules
    #: / decision cache) or "probe" (measured on the spot).
    source: str = "analytic"
    #: Kernel-row block width the decision was made for.
    batch_k: int = 1
    #: Model cost per candidate, cheapest first.
    predicted: Dict[str, float] = field(default_factory=dict, compare=False)
    #: Probe seconds per format, when the strategy measured.
    measured: Dict[str, float] = field(default_factory=dict, compare=False)

    def record(self, source: str) -> DecisionRecord:
        """The audit record of this decision (``source`` is "schedule"
        for training-time decisions, "serve" for runtime ones)."""
        return DecisionRecord(
            source=source,
            dataset=current_dataset(),
            strategy=self.strategy,
            batch_k=self.batch_k,
            chosen=self.fmt,
            reason=self.reason,
            cached=self.cached,
            features=self.profile.as_dict(),
            predicted=dict(self.predicted),
            measured=dict(self.measured),
            decision_source=self.source,
        )


def _quantise(x: float) -> float:
    """Round to ~1.5 significant figures for cache keying: two matrices
    whose statistics agree this coarsely get the same decision."""
    if x == 0.0:
        return 0.0
    import math

    exp = math.floor(math.log10(abs(x)))
    return round(x / 10**exp, 1) * 10**exp


class DecisionCache:
    """Profile-keyed memo of past decisions.

    The key also carries the ``batch_k`` and the deciding scheduler's
    ``scope`` (its strategy and candidate tuple): the same profile can
    legitimately map to different formats for single-vector and
    blocked sweeps, for different strategies and for different
    candidate sets, so schedulers of any configuration can share one
    cache without handing each other formats outside their candidates.

    Thread-safe: the serving layer shares one scheduler (and hence one
    cache) across concurrent request threads, so the read-check-evict
    sequence in :meth:`put` must be atomic — without the lock, two
    threads can both observe a full store and both evict, and on a
    one-entry cache the second ``next(iter(...))`` raises
    ``StopIteration`` on the emptied dict.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._store: Dict[Tuple, str] = {}
        self._lock = make_lock("core.scheduler.cache")
        track_shared(self, ("_store",))

    @staticmethod
    def key(p: DatasetProfile, batch_k: int = 1, scope: Tuple = ()) -> Tuple:
        return (
            tuple(_quantise(v) for v in p.as_vector())
            + (int(batch_k),)
            + tuple(scope)
        )

    def get(
        self, p: DatasetProfile, batch_k: int = 1, scope: Tuple = ()
    ) -> Optional[str]:
        key = self.key(p, batch_k, scope)
        with self._lock:
            return self._store.get(key)

    def put(
        self,
        p: DatasetProfile,
        fmt: str,
        batch_k: int = 1,
        scope: Tuple = (),
    ) -> None:
        key = self.key(p, batch_k, scope)
        with self._lock:
            if key not in self._store and len(self._store) >= self.maxsize:
                # FIFO eviction: oldest insertion order (dicts preserve
                # it).  Guarded by the lock so concurrent puts cannot
                # both evict from (and then exhaust) the same store.
                self._store.pop(next(iter(self._store)))
            self._store[key] = fmt

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class LayoutScheduler:
    """Runtime data-layout scheduler (the paper's adaptive system).

    Parameters
    ----------
    strategy:
        One of ``rules`` / ``cost`` / ``probe`` / ``hybrid``.
    calibration:
        Machine constants for the cost model.
    tuner:
        Probe configuration for the probe/hybrid strategies.
    batch_k:
        Kernel-row block width the workload will run at (the tenth
        knob of the decision system).  ``1`` models classic per-vector
        SMSV; larger values amortise index traversal across columns in
        the cost model, which can shift the winning layout for batched
        (SpMM) workloads such as the fused dual-row SMO path
        (``batch_k=2``).
    cache:
        Optional decision cache, safe to share between schedulers of
        any strategy and candidate set.
    candidates:
        The formats a decision may return, for every strategy
        (default: the paper's five, the ``paper`` family).  The model
        prices every candidate; the hybrid strategy probes the
        model's two cheapest.  A
        restriction is how the serving layer pins decisions to its
        exact families and how ``repro bench sell`` adds "reorder +
        SELL" to the race; the rules strategy's decision list is fixed
        and accepts no restriction.
    """

    def __init__(
        self,
        strategy: str = "hybrid",
        *,
        calibration: Optional[ArchCalibration] = None,
        tuner: Optional[AutoTuner] = None,
        batch_k: int = 1,
        cache: Optional[DecisionCache] = None,
        candidates: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if batch_k < 1:
            raise ValueError("batch_k must be >= 1")
        if candidates is None:
            candidates = FORMAT_NAMES
        else:
            if not candidates:
                raise ValueError("candidates must be non-empty")
            candidates = tuple(format_class(c).name for c in candidates)
            if strategy == "rules":
                raise ValueError(
                    "the rules strategy decides with a fixed decision "
                    "list and cannot restrict candidates; use the "
                    "cost, probe or hybrid strategy"
                )
        self.strategy = strategy
        self.cost_model = CostModel(calibration)
        self.tuner = tuner or AutoTuner()
        self.batch_k = batch_k
        self.cache = cache if cache is not None else DecisionCache()
        self.candidates: Tuple[str, ...] = candidates
        #: This scheduler's slice of a (possibly shared) DecisionCache.
        self.cache_scope = (strategy,) + candidates

    # -- deciding -------------------------------------------------------
    def decide_from_coo(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> Decision:
        """Decide the layout for a matrix given as COO triples.

        Every call is audited: the nine profile parameters, the
        model's per-format costs, the chosen format and any probe
        timings the strategy took land in the process
        :func:`~repro.obs.audit.audit_log`.  Nothing is measured for
        the record's sake, so tracing never changes the work done: a
        ``rules`` or ``cost`` decision audits with no measurement (and
        no regret), traced or not.
        """
        tracer = get_tracer()
        with tracer.span("schedule.decide") as sp:
            profile = profile_from_coo(rows, cols, shape)
            coo = (rows, cols, values, shape)
            decision = self._decide(profile, self.batch_k, coo)
            if tracer.enabled:
                sp.set("strategy", decision.strategy)
                sp.set("fmt", decision.fmt)
                sp.set("cached", decision.cached)
                sp.set("batch_k", decision.batch_k)
                sp.set("source", decision.source)
            audit_log().record(decision.record("schedule"))
        return decision

    def decide_profile(
        self, profile: DatasetProfile, *, batch_k: int
    ) -> Decision:
        """Decide from a profile alone, at an explicit ``batch_k``.

        The same decision path as :meth:`decide_from_coo`, for callers
        that hold a format-invariant profile rather than triples (the
        serving rescheduler).  Not audited: the caller records the
        decisions its own policy acts on (:meth:`Decision.record`).
        Strategies that must measure raise ``ValueError`` here: probe
        always, hybrid when it has more than one candidate and the
        model's margin is below :data:`BAND`.
        """
        return self._decide(profile, batch_k)

    def _decide(
        self,
        profile: DatasetProfile,
        batch_k: int,
        coo: Optional[CooTriples] = None,
    ) -> Decision:
        """The one place a profile becomes a format: this scheduler's
        DecisionCache entry, else the configured strategy."""
        predicted = {
            fc.fmt: fc.cost
            for fc in self.cost_model.rank(
                profile, self.candidates, batch_k=batch_k
            )
        }
        common = dict(
            strategy=self.strategy,
            profile=profile,
            batch_k=batch_k,
            predicted=predicted,
        )
        cached = self.cache.get(profile, batch_k, self.cache_scope)
        if cached is not None:
            return Decision(
                fmt=cached,
                reason="cached decision for an equivalent profile",
                cached=True,
                **common,
            )
        fmt, reason, measured = self._run_strategy(profile, predicted, coo)
        self.cache.put(profile, fmt, batch_k, self.cache_scope)
        return Decision(
            fmt=fmt,
            reason=reason,
            source="probe" if measured else "analytic",
            measured=measured,
            **common,
        )

    def _run_strategy(
        self,
        profile: DatasetProfile,
        predicted: Dict[str, float],
        coo: Optional[CooTriples],
    ) -> Tuple[str, str, Dict[str, float]]:
        """The configured strategy; returns ``(fmt, reason, measured)``
        where ``measured`` holds the probe timings it took, if any."""
        if self.strategy == "rules":
            rd = rule_based_choice(profile)
            return rd.fmt, f"rule '{rd.rule}': {rd.reason}", {}
        ranked = list(predicted.items())
        if self.strategy == "cost":
            fmt, cost = ranked[0]
            if len(ranked) > 1:
                runner, runner_cost = ranked[1]
                reason = (
                    f"model cost {cost:.3g} vs runner-up "
                    f"{runner} at {runner_cost:.3g}"
                )
            else:
                reason = f"model cost {cost:.3g} (only candidate)"
            return fmt, reason, {}
        if self.strategy == "probe":
            short = list(self.candidates)
        else:  # hybrid: the model's two cheapest
            short = [f for f, _ in ranked[:2]]
            if len(short) == 1:
                return short[0], "cost model shortlist of one", {}
            (fmt, cost), (runner, runner_cost) = ranked[0], ranked[1]
            margin = runner_cost / cost if cost > 0 else float("inf")
            verdict = f"model margin {margin:.2f}x over runner-up {runner}"
            if margin >= BAND:
                return fmt, f"{verdict} >= band {BAND}x; probe skipped", {}
        if coo is None:
            raise ValueError(
                f"the {self.strategy} strategy measures {short} and "
                "needs the matrix, not only its profile"
            )
        results = self.tuner.probe(*coo, short)
        measured = {r.fmt: r.median_seconds for r in results}
        best = results[0]
        if self.strategy == "probe":
            reason = (
                f"measured {best.median_seconds * 1e6:.1f} us/SMSV "
                f"on {best.probe_rows} probe rows"
            )
        else:
            reason = (
                f"{verdict} < band {BAND}x; probed model shortlist "
                f"{short}; {best.fmt} measured fastest"
            )
        return best.fmt, reason, measured

    def decide(self, matrix: MatrixFormat) -> Decision:
        """Decide the layout for an already-stored matrix."""
        rows, cols, values = matrix.to_coo()
        return self.decide_from_coo(rows, cols, values, matrix.shape)

    # -- applying -------------------------------------------------------
    def apply(self, matrix: MatrixFormat) -> Tuple[MatrixFormat, Decision]:
        """Decide and convert; returns ``(matrix_in_best_format, why)``."""
        decision = self.decide(matrix)
        return convert(matrix, decision.fmt), decision


def schedule_layout(
    matrix: MatrixFormat, strategy: str = "hybrid"
) -> Tuple[MatrixFormat, Decision]:
    """One-call convenience: re-lay out ``matrix`` optimally.

    >>> from repro.formats import from_dense
    >>> import numpy as np
    >>> M, why = schedule_layout(from_dense(np.eye(64)))
    >>> why.fmt in ("DIA", "ELL", "CSR", "COO", "DEN")
    True
    """
    return LayoutScheduler(strategy).apply(matrix)
