"""Human-readable decision reports.

A runtime system that silently reorganises your data earns trust by
showing its work.  :func:`explain` renders one
:class:`~repro.core.scheduler.Decision` — the decision that was made,
not a fresh ranking of its profile:

1. the nine influencing parameters,
2. the rule-based decision trace (which rule fired, why),
3. where the decision came from (``analytic`` or ``probe``) and its
   reason,
4. the cost model's per-format ranking the decision was priced with,
5. the probe timings, when the strategy measured,

as one text block (``python -m repro schedule --explain`` prints it).
"""

from __future__ import annotations

from typing import List

from repro.core.rules import rule_based_choice
from repro.core.scheduler import Decision
from repro.features.profile import PARAMETER_NAMES


def explain(decision: Decision) -> str:
    """Render the full rationale of one scheduling decision."""
    profile = decision.profile
    lines: List[str] = []

    lines.append("influencing parameters (paper Table IV)")
    d = profile.as_dict()
    for name in PARAMETER_NAMES:
        lines.append(f"  {name:8s} = {d[name]:g}")
    lines.append(
        f"  derived: balance (adim/mdim) = {profile.balance:.3f}, "
        f"diag fill = {profile.diag_fill:.3f}, "
        f"cv(dim) = {profile.cv_dim:.3f}"
    )
    lines.append("")

    rd = rule_based_choice(profile)
    lines.append("rule-based decision")
    lines.append(f"  -> {rd.fmt}  (rule '{rd.rule}')")
    lines.append(f"     {rd.reason}")
    lines.append("")

    lines.append(
        f"decision (strategy {decision.strategy}, "
        f"batch_k {decision.batch_k})"
    )
    lines.append(f"  source {decision.source}")
    lines.append(f"  reason {decision.reason}")
    lines.append("")

    lines.append("cost model ranking, predicted (lower = faster)")
    best = min(decision.predicted.values(), default=0.0)
    for fmt, cost in decision.predicted.items():
        rel = cost / best if best > 0 else 1.0
        lines.append(f"  {fmt:5s} cost={cost:12.4g}  ({rel:5.2f}x)")
    if decision.measured:
        lines.append("")
        lines.append("probe, measured seconds")
        for fmt, seconds in sorted(
            decision.measured.items(), key=lambda kv: kv[1]
        ):
            lines.append(f"  {fmt:5s} {seconds:12.4g} s")
    lines.append(f"-> {decision.fmt}")
    return "\n".join(lines)
