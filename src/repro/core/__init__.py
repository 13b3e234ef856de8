"""The paper's primary contribution: runtime data layout scheduling.

Given a machine-learning data matrix, pick the storage format (DEN /
CSR / COO / ELL / DIA) that will make SMO training fastest *on this
machine*, at runtime, before training starts.  Three cooperating
decision mechanisms are provided, mirroring the paper's Section III.B:

- :mod:`repro.core.rules` — a transparent decision list over the nine
  Table IV parameters (their +/- correlation signs made executable).
- :mod:`repro.core.cost_model` — an analytic model: per-format effective
  work and traffic derived from the profile, turned into predicted time
  via Eq. (7) (``time >~ traffic / bandwidth``) with per-format
  calibration constants that can be re-fitted on the running machine.
- :mod:`repro.core.autotune` — empirical probing: actually run a few
  SMSVs per candidate format (on a row sample) and measure.

:class:`repro.core.scheduler.LayoutScheduler` combines them: rules and
the cost model are free, probing costs a few milliseconds; the *hybrid*
strategy probes only the model's two cheapest formats, and only when
the model's margin is too small to trust.
Decisions are cached by quantised profile.
"""

from repro.core.cost_model import ArchCalibration, CostModel, FormatCost
from repro.core.rules import RuleDecision, rule_based_choice
from repro.core.autotune import AutoTuner, ProbeResult
from repro.core.explain import explain
from repro.core.scheduler import (
    Decision,
    DecisionCache,
    LayoutScheduler,
    schedule_layout,
)

__all__ = [
    "CostModel",
    "ArchCalibration",
    "FormatCost",
    "rule_based_choice",
    "RuleDecision",
    "AutoTuner",
    "ProbeResult",
    "LayoutScheduler",
    "Decision",
    "DecisionCache",
    "schedule_layout",
    "explain",
]
