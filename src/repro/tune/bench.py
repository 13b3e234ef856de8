"""The tuning gate (``repro bench tune``, writes ``BENCH_tune.json``).

Runs the measured-time search over the five-dataset report suite into
a pinned cache file, then gates on three deterministic properties:

1. **Tuned never slower** — for every (dataset, family) the persisted
   winner's measured time is ``<=`` the analytic default's *on the same
   probe* (incumbent protection makes this an invariant of the search,
   not a hope about the machine; see :mod:`repro.tune.search`).
2. **Warm decisions are deterministic and tuned** — two consecutive
   cold-constructed schedulers make bitwise-identical format decisions
   for every suite dataset, every one served from the tuning cache
   (``decision.source == "tuned"``), bypassing analytic pricing.
3. **Cold keys fall back unchanged** — a profile bucket the search
   never visited decides analytically (``source == "analytic"``) and
   picks exactly what a tuning-disabled scheduler picks.

The warm-lookup cost is also measured (nanoseconds per scheduling
decision served from the cache) and reported as information — it is a
few dict probes, far below one analytic ranking, but wall-clock is not
gated on.

The cache file is pinned: ``REPRO_TUNE_CACHE`` if the caller exported
one (CI does), else a fresh temporary directory — the bench never
touches ``~/.cache/repro/tune.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.autotune import AutoTuner
from repro.core.cost_model import ANALYTIC_FORMATS
from repro.core.scheduler import LayoutScheduler
from repro.data.synthetic import uniform_rows_matrix
from repro.obs.report import REPORT_DATASETS
from repro.tune.cache import (
    ENV_CACHE_PATH,
    ENV_DISABLE,
    TuneCache,
    reset_tune_cache,
)
from repro.tune.search import ProbeContext, TuneSearch
from repro.tune.space import FORMAT_FAMILY, KNOB_FAMILIES, SPACES

#: Knob families the smoke run covers (data-dependent, cheap probes);
#: the full run adds the machine-wide families and the SMO row cache.
SMOKE_FAMILIES: Tuple[str, ...] = ("sell_chunk", "sigma", "batch_k")


def _tune_datasets(
    *,
    quick: bool,
    seed: int,
    families: Sequence[str],
    search_kwargs: Dict[str, Any],
    cache: TuneCache,
) -> Dict[str, Any]:
    """Search every suite dataset and persist the winners.

    Machine-wide families (``workers``, ``row_blocks``) are tuned on
    the first dataset only — their optimum is a property of the box,
    and re-racing them per dataset would just overwrite one
    ``MACHINE_BUCKET`` entry with another.
    """
    m, n = (256, 128) if quick else (1024, 512)
    data_families = [f for f in families if not SPACES[f].machine_wide]
    machine_families = [f for f in families if SPACES[f].machine_wide]
    tuner = AutoTuner(repeats=search_kwargs.get("base_repeats", 3), seed=seed)
    out: Dict[str, Any] = {}
    for index, (name, build) in enumerate(REPORT_DATASETS):
        rows, cols, values, shape = build(m, n, seed)
        ctx = ProbeContext(rows, cols, values, shape, seed=seed)
        # A fresh searcher per dataset: the measurement memo is keyed
        # by (family, params, fidelity) and must not leak across
        # datasets.
        search = TuneSearch(seed=seed, **search_kwargs)
        run = list(data_families) + (machine_families if index == 0 else [])
        results = search.tune(ctx, run)
        for family, r in results.items():
            cache.put(
                family,
                r.best,
                profile=ctx.profile,
                stats={
                    "median_seconds": r.best_seconds,
                    "default_seconds": r.default_seconds,
                    "fidelity": r.fidelity,
                },
            )
        # The measured-best storage format for this bucket at the
        # serving warm-up width: the entry the scheduler's warm path
        # reads in place of analytic pricing.
        probed = tuner.probe(rows, cols, values, shape, ANALYTIC_FORMATS)
        cache.put(
            FORMAT_FAMILY,
            {"fmt": probed[0].fmt, "batch_k": 1},
            profile=ctx.profile,
            stats={"median_seconds": probed[0].median_seconds},
        )
        out[name] = {
            "bucket": cache.bucket_for(FORMAT_FAMILY, ctx.profile),
            "format": {
                "fmt": probed[0].fmt,
                "median_seconds": probed[0].median_seconds,
            },
            "families": {f: r.as_dict() for f, r in results.items()},
            "search": {
                "spent": search.spent,
                "budget": search.budget,
                "trials": len(search.trials),
            },
        }
    return out


def _decide_all(
    *, quick: bool, seed: int
) -> List[Tuple[str, str, str]]:
    """One cold-constructed scheduler pass over the suite datasets.

    Returns ``(dataset, fmt, source)`` per dataset.  The scheduler is
    fresh (empty :class:`DecisionCache`), so every warm answer must
    come from the *persisted* tuning cache, not an in-memory memo.
    """
    m, n = (256, 128) if quick else (1024, 512)
    sched = LayoutScheduler("cost", candidates=ANALYTIC_FORMATS)
    out: List[Tuple[str, str, str]] = []
    for name, build in REPORT_DATASETS:
        rows, cols, values, shape = build(m, n, seed)
        d = sched.decide_from_coo(rows, cols, values, shape)
        out.append((name, d.fmt, d.source))
    return out


def run_tune_bench(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
    cache_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Run the search + the three-part gate; returns the payload."""
    if families is None:
        families = SMOKE_FAMILIES if quick else KNOB_FAMILIES
    for f in families:
        if f not in SPACES:
            raise ValueError(f"unknown knob family {f!r}")
    if quick:
        search_kwargs: Dict[str, Any] = {
            "base_repeats": repeats or 1,
            "max_repeats": max(2, repeats or 1),
            "budget": 64,
        }
    else:
        search_kwargs = {
            "base_repeats": repeats or 3,
            "max_repeats": max(12, repeats or 3),
            "budget": 256,
        }

    if cache_path is None:
        env = os.environ.get(ENV_CACHE_PATH)
        cache_path = (
            Path(env)
            if env
            else Path(tempfile.mkdtemp(prefix="repro-tune-bench-"))
            / "tune.json"
        )
    cache_path = Path(cache_path)

    # Pin the process-wide cache to the bench file for the duration:
    # the scheduler consults whatever REPRO_TUNE_CACHE points at, and
    # the bench must never read or pollute the operator's real cache.
    saved_env = os.environ.get(ENV_CACHE_PATH)
    os.environ[ENV_CACHE_PATH] = str(cache_path)
    reset_tune_cache()
    try:
        from repro.tune.cache import tune_cache

        cache = tune_cache()
        cache.clear(persist=False)
        datasets = _tune_datasets(
            quick=quick,
            seed=seed,
            families=families,
            search_kwargs=search_kwargs,
            cache=cache,
        )

        # Gate 1: the persisted winner is never slower than the
        # analytic default on its own final head-to-head.
        violations: List[str] = []
        for name, d in datasets.items():
            for family, r in d["families"].items():
                if r["best_seconds"] > r["default_seconds"]:
                    violations.append(f"{name}/{family}")
        tuned_not_slower = not violations

        # Gate 2: two consecutive cold schedulers, identical decisions,
        # all served from the tuning cache.
        first = _decide_all(quick=quick, seed=seed)
        second = _decide_all(quick=quick, seed=seed)
        decisions_deterministic = first == second
        warm_source_tuned = all(src == "tuned" for _, _, src in first)

        # Gate 3: a bucket the search never visited (m an order of
        # magnitude smaller than any suite dataset) decides
        # analytically, and picks exactly what a tuning-disabled
        # scheduler picks.
        c_rows, c_cols, c_vals, c_shape = uniform_rows_matrix(
            64, 32, 4, seed=seed
        )
        cold = LayoutScheduler(
            "cost", candidates=ANALYTIC_FORMATS
        ).decide_from_coo(c_rows, c_cols, c_vals, c_shape)
        saved_disable = os.environ.get(ENV_DISABLE)
        os.environ[ENV_DISABLE] = "0"
        try:
            disabled = LayoutScheduler(
                "cost", candidates=ANALYTIC_FORMATS
            ).decide_from_coo(c_rows, c_cols, c_vals, c_shape)
        finally:
            if saved_disable is None:
                os.environ.pop(ENV_DISABLE, None)
            else:
                os.environ[ENV_DISABLE] = saved_disable
        cold_falls_back = (
            cold.source == "analytic" and cold.fmt == disabled.fmt
        )

        # Informational: what one warm scheduling decision costs once
        # the cache is hot (a fingerprint-keyed dict probe plus the
        # model costs every decision carries).
        m, n = (256, 128) if quick else (1024, 512)
        w_rows, w_cols, w_vals, w_shape = REPORT_DATASETS[0][1](m, n, seed)
        warm_sched = LayoutScheduler("cost", candidates=ANALYTIC_FORMATS)
        from repro.features.extract import profile_from_coo

        warm_profile = profile_from_coo(w_rows, w_cols, w_shape)
        lookups = 64 if quick else 256
        t0 = time.perf_counter()
        warm_hits = sum(
            warm_sched.decide_profile(warm_profile, batch_k=1).source
            == "tuned"
            for _ in range(lookups)
        )
        warm_lookup_ns = (time.perf_counter() - t0) / lookups * 1e9
        warm_source_tuned = warm_source_tuned and warm_hits == lookups

        gate_pass = bool(
            tuned_not_slower
            and decisions_deterministic
            and warm_source_tuned
            and cold_falls_back
        )
        return {
            "suite": "tune",
            "quick": quick,
            "seed": seed,
            "shape": [m, n],
            "cache_path": str(cache_path),
            "cache_entries": len(cache),
            "families": list(families),
            "search": search_kwargs,
            "datasets": datasets,
            "gate": {
                "tuned_not_slower": tuned_not_slower,
                "violations": violations,
                "decisions_deterministic": decisions_deterministic,
                "warm_source_tuned": warm_source_tuned,
                "cold_falls_back_analytic": cold_falls_back,
                "decisions": {
                    name: {"fmt": fmt, "source": src}
                    for name, fmt, src in first
                },
                "cold_decision": {
                    "fmt": cold.fmt,
                    "source": cold.source,
                },
            },
            "warm_lookup_ns": warm_lookup_ns,
            "headline": {
                "pass": gate_pass,
                "datasets": len(datasets),
                "families": len(families),
                "warm_lookup_ns": warm_lookup_ns,
            },
        }
    finally:
        if saved_env is None:
            os.environ.pop(ENV_CACHE_PATH, None)
        else:
            os.environ[ENV_CACHE_PATH] = saved_env
        reset_tune_cache()


#: CLI-facing aliases matching the other bench suites' module shape.
def run_suite(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    return run_tune_bench(quick=quick, repeats=repeats, seed=seed)


def render_summary(payload: Dict[str, Any]) -> str:
    g = payload["gate"]
    lines = [
        "tune (measured knob search vs analytic defaults, "
        f"{len(payload['datasets'])} suite datasets)",
        f"  cache       : {payload['cache_path']} "
        f"({payload['cache_entries']} entries)",
        f"  families    : {', '.join(payload['families'])}",
    ]
    for name, d in payload["datasets"].items():
        fams = d["families"]
        best = d["format"]["fmt"]
        parts = []
        for family, r in fams.items():
            tag = "=" if r["best"] == r["default"] else ""
            parts.append(f"{family} x{r['speedup']:.2f}{tag}")
        lines.append(
            f"  {name:10s}: format {best:5s}  "
            + "  ".join(parts)
        )
    lines += [
        f"  not slower  : {g['tuned_not_slower']}"
        + (f" (violations: {', '.join(g['violations'])})"
           if g["violations"] else ""),
        f"  determinism : {g['decisions_deterministic']} "
        f"(two cold schedulers, identical decisions)",
        f"  warm source : "
        f"{'tuned' if g['warm_source_tuned'] else 'NOT TUNED'} "
        f"(cache bypasses analytic pricing)",
        f"  cold source : {g['cold_decision']['source']} "
        f"(unvisited bucket falls back"
        f"{'' if g['cold_falls_back_analytic'] else ' WRONG'})",
        f"  warm lookup : {payload['warm_lookup_ns']:.0f} ns per "
        f"decision (informational)",
        f"  pass        : {payload['headline']['pass']}",
    ]
    return "\n".join(lines)


def write_report(
    payload: Dict[str, Any], path: Union[str, Path]
) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
