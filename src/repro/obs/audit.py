"""The scheduler decision audit log and regret accounting.

Every ``schedule()`` call — training-time layout decisions and
serving-time re-schedule flips alike — leaves a :class:`DecisionRecord`
here: the nine influencing parameters the paper's decision system runs
on, the per-format costs the model predicted, and the format that was
chosen.  A record's measured costs are the probes its strategy ran
anyway (``probe``, ``hybrid``); nothing is measured for the audit's
sake, so tracing never changes the work a decision does.  ``repro obs
report`` measures every format on purpose, so its records answer the
question the model has to face: did the prediction pick the format
that actually won?

**Regret** is the measured penalty of trusting the model::

    regret = measured(predicted_best) / measured(measured_best) - 1

0.0 means the model's winner was also the measured winner; 0.25 means
the run paid 25 % over the best available layout; ``None`` means the
model's winner was not measured.  ``repro obs report`` renders the
per-dataset regret table over the synthetic suite; per-flip serve
records appear in the same log with ``source="serve"``.

Dataset labels travel on a context variable
(:func:`audit_dataset`) so the scheduler itself stays label-agnostic.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.analysis.race import make_lock, track_shared

_DATASET: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_obs_audit_dataset", default=""
)


@contextlib.contextmanager
def audit_dataset(label: str) -> Iterator[None]:
    """Label every decision recorded inside the block with ``label``."""
    token = _DATASET.set(label)
    try:
        yield
    finally:
        _DATASET.reset(token)


def current_dataset() -> str:
    return _DATASET.get()


@dataclass(frozen=True)
class DecisionRecord:
    """One audited scheduling decision.

    ``predicted`` maps format name to model cost (dimensionless model
    units); ``measured`` maps format name to probed median seconds and
    holds only what was probed: the formats a ``probe`` or ``hybrid``
    strategy raced, or every format in a ``repro obs report`` record.
    It is empty for ``rules`` and ``cost`` decisions, and for a
    ``hybrid`` decision whose model margin skipped the probe, traced
    or not.
    """

    source: str  #: "schedule" (training-time) or "serve" (runtime flip)
    dataset: str
    strategy: str
    batch_k: int
    chosen: str
    reason: str
    cached: bool
    features: Dict[str, float] = field(default_factory=dict)
    predicted: Dict[str, float] = field(default_factory=dict)
    measured: Dict[str, float] = field(default_factory=dict)
    #: Where the chosen format came from: "analytic" (cost model /
    #: rules) or "probe" (measured on the spot).  Lets the regret
    #: report separate the model's mistakes from the probe's.  Logs
    #: written by older versions may carry other values; they load and
    #: group like any other.
    decision_source: str = "analytic"

    @property
    def predicted_best(self) -> Optional[str]:
        if not self.predicted:
            return None
        return min(self.predicted, key=self.predicted.__getitem__)

    @property
    def measured_best(self) -> Optional[str]:
        if not self.measured:
            return None
        return min(self.measured, key=self.measured.__getitem__)

    def regret(self) -> Optional[float]:
        """Measured cost penalty of the model's pick; ``None`` if the
        record carries no measurement covering the predicted best."""
        return self.penalty(self.predicted_best)

    def penalty(self, fmt: Optional[str]) -> Optional[float]:
        """Measured cost of ``fmt`` over the measured best, minus one;
        ``None`` if ``fmt`` was not measured."""
        if fmt is None or fmt not in self.measured:
            return None
        best = min(self.measured.values())
        if best <= 0.0:
            return 0.0
        return self.measured[fmt] / best - 1.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "dataset": self.dataset,
            "strategy": self.strategy,
            "batch_k": self.batch_k,
            "chosen": self.chosen,
            "reason": self.reason,
            "cached": self.cached,
            "features": dict(self.features),
            "predicted": dict(self.predicted),
            "measured": dict(self.measured),
            "decision_source": self.decision_source,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "DecisionRecord":
        return cls(
            source=str(d["source"]),
            dataset=str(d.get("dataset", "")),
            strategy=str(d["strategy"]),
            batch_k=int(d.get("batch_k", 1)),
            chosen=str(d["chosen"]),
            reason=str(d.get("reason", "")),
            cached=bool(d.get("cached", False)),
            features=dict(d.get("features", {})),
            predicted=dict(d.get("predicted", {})),
            measured=dict(d.get("measured", {})),
            # Records written before provenance tracking default to the
            # analytic model, which is what they were.
            decision_source=str(d.get("decision_source", "analytic")),
        )


class AuditLog:
    """Bounded, thread-safe store of decision records."""

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._records: Deque[DecisionRecord] = deque(maxlen=maxlen)
        self._lock = make_lock("obs.audit")
        track_shared(self, ("_records",))

    def record(self, rec: DecisionRecord) -> None:
        with self._lock:
            self._records.append(rec)

    def records(self, source: Optional[str] = None) -> List[DecisionRecord]:
        with self._lock:
            out = list(self._records)
        if source is not None:
            out = [r for r in out if r.source == source]
        return out

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# -- regret rollup -------------------------------------------------------


@dataclass(frozen=True)
class RegretRow:
    """One line of the regret table."""

    dataset: str
    source: str
    batch_k: int
    chosen: str
    predicted_best: Optional[str]
    measured_best: Optional[str]
    regret: Optional[float]
    decision_source: str = "analytic"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "source": self.source,
            "batch_k": self.batch_k,
            "chosen": self.chosen,
            "predicted_best": self.predicted_best,
            "measured_best": self.measured_best,
            "regret": self.regret,
            "decision_source": self.decision_source,
        }


def regret_rows(records: List[DecisionRecord]) -> List[RegretRow]:
    """Flatten records into table rows (one per record, input order)."""
    return [
        RegretRow(
            dataset=r.dataset or "<unlabelled>",
            source=r.source,
            batch_k=r.batch_k,
            chosen=r.chosen,
            predicted_best=r.predicted_best,
            measured_best=r.measured_best,
            regret=r.regret(),
            decision_source=r.decision_source,
        )
        for r in records
    ]


def regret_by_decision_source(
    records: List[DecisionRecord],
) -> Dict[str, Dict[str, Any]]:
    """Aggregate the regret of the pick made, split by where it came
    from.

    Each record contributes ``penalty(chosen)``: what the format the
    decision actually chose cost over the measured best.  (The table's
    per-row regret prices the *model's* pick; a probed decision can
    choose something else, and this split judges that choice.)
    Returns ``{decision_source: {"n", "n_with_regret", "mean_regret",
    "max_regret"}}`` — the comparison the probe has to win: if
    ``probe`` decisions carry more regret than ``analytic`` ones, the
    probe is measuring too little to be trusted.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for src in sorted({r.decision_source for r in records}):
        subset = [r for r in records if r.decision_source == src]
        regrets = [
            g for g in (r.penalty(r.chosen) for r in subset)
            if g is not None
        ]
        out[src] = {
            "n": len(subset),
            "n_with_regret": len(regrets),
            "mean_regret": (
                sum(regrets) / len(regrets) if regrets else None
            ),
            "max_regret": max(regrets) if regrets else None,
        }
    return out


def render_regret_table(rows: List[RegretRow]) -> str:
    """Fixed-width regret table (what ``repro obs report`` prints)."""
    header = (
        f"{'dataset':<16s} {'source':<9s} {'via':<9s} {'k':>3s} "
        f"{'chosen':<7s} {'predicted':<10s} {'measured':<9s} "
        f"{'regret':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        regret = "  --  " if r.regret is None else f"{r.regret * 100:.1f}%"
        lines.append(
            f"{r.dataset:<16s} {r.source:<9s} {r.decision_source:<9s} "
            f"{r.batch_k:>3d} {r.chosen:<7s} "
            f"{(r.predicted_best or '--'):<10s} "
            f"{(r.measured_best or '--'):<9s} {regret:>8s}"
        )
    return "\n".join(lines)


# -- the process-wide log ------------------------------------------------

_GLOBAL = AuditLog()


def audit_log() -> AuditLog:
    """The process-wide decision audit log."""
    return _GLOBAL
