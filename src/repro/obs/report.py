"""The ``repro obs report`` regret suite.

Runs the paper's decision system against ground truth on a fixed
family of synthetic shapes: for each dataset the scheduler's ``cost``
strategy decides (its record carries the analytic model's per-format
*prediction*) and the autotuner *measures* every format, and the gap
between the model's pick and the measured winner is the model's
**regret** on that shape (see :mod:`repro.obs.audit`).

The suite spans the structures the nine parameters are supposed to
discriminate:

==========  ==========================================================
uniform     every row the same length (``vdim`` = 0) — ELL territory
bimodal     short rows with a thin long tail — the batch crossover
powerlaw    heavy-tailed rows — padding blowup, CSR/COO territory
banded      a few full diagonals — DIA territory
dense       fully dense — DEN territory (the known-correct pin)
==========  ==========================================================

``dense`` is the calibration anchor: a fully dense matrix is priced
and served through the BLAS-backed dense kernel, which dominates every
sparse format by an order of magnitude, so both the predicted and the
measured winner are DEN and the regret is exactly 0.0 — the regression
test pins that.  The other rows are *reported*, not gated: wall-clock
rankings on tiny probes are machine-dependent, and showing the honest
regret number is the point of the report.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.autotune import AutoTuner
from repro.core.scheduler import LayoutScheduler
from repro.data.synthetic import (
    CooTriples,
    banded_matrix,
    bimodal_rows_matrix,
    powerlaw_rows_matrix,
    uniform_rows_matrix,
)
from repro.features.extract import profile_from_coo
from repro.formats.base import FORMAT_NAMES
from repro.obs.audit import (
    DecisionRecord,
    audit_dataset,
    regret_by_decision_source,
    regret_rows,
    render_regret_table,
)
from repro.obs.trace import get_tracer


def _dense_matrix(m: int, n: int, *, seed: int = 0) -> CooTriples:
    """A fully dense matrix as canonical COO triples."""
    rng = np.random.default_rng(seed)
    values = 0.1 + rng.random((m, n))
    rows, cols = np.nonzero(values)
    return (
        rows.astype(np.int64),
        cols.astype(np.int64),
        values[rows, cols],
        (m, n),
    )


#: The report's dataset family: ``name -> (m, n) -> CooTriples``.
REPORT_DATASETS: Tuple[
    Tuple[str, Callable[[int, int, int], CooTriples]], ...
] = (
    ("uniform", lambda m, n, s: uniform_rows_matrix(m, n, 8, seed=s)),
    (
        "bimodal",
        lambda m, n, s: bimodal_rows_matrix(m, n, 6, 9, 0.1, seed=s),
    ),
    (
        "powerlaw",
        lambda m, n, s: powerlaw_rows_matrix(
            m, n, alpha=2.0, min_nnz=2, max_nnz=min(64, n), seed=s
        ),
    ),
    (
        "banded",
        lambda m, n, s: banded_matrix(m, n, (-1, 0, 1), seed=s),
    ),
    ("dense", lambda m, n, s: _dense_matrix(m, n, seed=s)),
)

#: Dataset names in suite order (CLI/help listing).
REPORT_DATASET_NAMES: Tuple[str, ...] = tuple(
    name for name, _ in REPORT_DATASETS
)


def run_report(
    *,
    quick: bool = False,
    repeats: int = 3,
    seed: int = 0,
    batch_k: int = 1,
) -> List[DecisionRecord]:
    """Decide and measure every suite dataset; one record per dataset.

    Each record is the ``cost`` scheduler's decision at ``batch_k``
    (the full nine-parameter profile, the analytic model's per-format
    costs, the chosen format and where it came from) with the
    autotuner's measured medians over every format, so downstream
    regret math needs nothing else.  ``quick`` shrinks the shapes for
    CI smoke runs.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    m, n = (256, 128) if quick else (1024, 512)
    scheduler = LayoutScheduler("cost")
    tuner = AutoTuner(repeats=repeats, seed=seed)
    tracer = get_tracer()
    records: List[DecisionRecord] = []
    for name, build in REPORT_DATASETS:
        with tracer.span("obs.report.dataset") as sp, audit_dataset(name):
            if tracer.enabled:
                sp.set("dataset", name)
            rows, cols, values, shape = build(m, n, seed)
            profile = profile_from_coo(rows, cols, shape, validated=True)
            decision = scheduler.decide_profile(profile, batch_k=batch_k)
            # Every format, whatever was chosen: the regret is judged
            # against the whole registry.
            results = tuner.probe(rows, cols, values, shape, FORMAT_NAMES)
            measured = {r.fmt: r.median_seconds for r in results}
            records.append(
                replace(decision, measured=measured).record("schedule")
            )
    return records


def tracer_health() -> Dict[str, Any]:
    """The process tracer's ring state (enabled, held, evicted).

    A non-zero ``dropped`` means the ring wrapped and the oldest spans
    are gone — the report flags it so "only N spans" is never misread
    as "only N things happened".  Fleet runs carry the same counter
    per process in :class:`~repro.obs.collect.MergedTrace.dropped`.
    """
    tracer = get_tracer()
    return {
        "enabled": bool(tracer.enabled),
        "spans": len(tracer),
        "dropped": tracer.dropped,
    }


def report_payload(records: List[DecisionRecord]) -> Dict[str, Any]:
    """JSON-ready rollup: per-row dicts plus aggregate regret."""
    rows = regret_rows(records)
    regrets = [r.regret for r in rows if r.regret is not None]
    agreements = sum(
        1 for r in rows if r.predicted_best == r.measured_best
    )
    return {
        "tracer": tracer_health(),
        "rows": [r.as_dict() for r in rows],
        "records": [r.as_dict() for r in records],
        "n_datasets": len(rows),
        "n_agreements": agreements,
        "mean_regret": (
            float(np.mean(regrets)) if regrets else None
        ),
        "max_regret": float(max(regrets)) if regrets else None,
        "by_decision_source": regret_by_decision_source(records),
    }


def render_report(records: List[DecisionRecord]) -> str:
    """The human-readable regret report (table + summary line)."""
    rows = regret_rows(records)
    payload = report_payload(records)
    lines = [render_regret_table(rows)]
    if payload["mean_regret"] is not None:
        lines.append("")
        lines.append(
            f"prediction matched measurement on "
            f"{payload['n_agreements']}/{payload['n_datasets']} datasets; "
            f"mean regret {payload['mean_regret'] * 100:.1f}%, "
            f"max {payload['max_regret'] * 100:.1f}%"
        )
    health = payload["tracer"]
    if health["enabled"]:
        lines.append(
            f"tracer      : {health['spans']} spans held, "
            f"{health['dropped']} evicted from the ring"
            + (" (ring wrapped — oldest spans lost)"
               if health["dropped"] else "")
        )
    by_src = payload["by_decision_source"]
    if len(by_src) > 1:
        # Worth a breakdown only when decisions actually came from more
        # than one place (analytic vs probe).  Each line prices
        # the format chosen, not the model's pick.
        for src, agg in by_src.items():
            if agg["mean_regret"] is None:
                lines.append(
                    f"  via {src:<9s}: {agg['n']} decisions, "
                    f"chosen formats not measured"
                )
            else:
                lines.append(
                    f"  via {src:<9s}: {agg['n']} decisions, chosen "
                    f"format's mean regret "
                    f"{agg['mean_regret'] * 100:.1f}%, max "
                    f"{agg['max_regret'] * 100:.1f}%"
                )
    return "\n".join(lines)
