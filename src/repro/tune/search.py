"""Measured-time knob search: successive halving per knob family.

The harness reuses the probe discipline of :mod:`repro.core.autotune`
(warm-up / repeats / median via :func:`repro.perf.timers.benchmark`,
row-sampled probes, probe vectors drawn from the matrix's own rows —
the SMO access pattern), and races each family's candidate values by
**successive halving**: every candidate is timed at a cheap fidelity
(few repeats), the slower half is dropped, the survivors are
re-measured at doubled fidelity, until one remains.

Two properties make the result safe to persist:

* **Incumbent protection** — the profile-conditioned *default* value
  is carried into every rung and re-raced in a final head-to-head at
  the highest fidelity reached.  The winner is the measured argmin
  with a default-first tie-break, so a tuned cache entry can never be
  slower than the analytic default *on its own measurements* — the
  invariant ``tests/tune/test_integration.py`` checks on every
  persisted winner.
* **Determinism** — sampling and probe-row choice are seeded, candidate
  order is fixed by the catalogue, and ties break toward the default;
  re-running with the same seed walks the same configurations.

The search is *resumable*: every (family, params, fidelity) measurement
lands in :attr:`TuneSearch.measurements`, which can be exported and fed
back to a later instance — repeated ``repro tune`` runs skip already-
measured rungs and spend their budget extending fidelity instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.autotune import AutoTuner
from repro.features.extract import profile_from_coo
from repro.features.profile import DatasetProfile
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import RSELLMatrix
from repro.formats.sell import SELLMatrix
from repro.obs.trace import get_tracer
from repro.perf.timers import benchmark
from repro.svm.smo import _RowCache
from repro.tune.cache import TuneCache
from repro.tune.fingerprint import profile_bucket
from repro.tune.space import Config, knob_for

#: A measurer times one configuration at a given repeat count and
#: returns the median seconds per probe operation.
Measurer = Callable[[Config, int], float]


def params_key(params: Config) -> str:
    """Canonical string identity of a configuration (resume key)."""
    return json.dumps({k: int(v) for k, v in sorted(params.items())})


@dataclass(frozen=True)
class Trial:
    """One (configuration, fidelity) measurement."""

    family: str
    params: Tuple[Tuple[str, int], ...]
    repeats: int
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "params": dict(self.params),
            "repeats": self.repeats,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class FamilyResult:
    """Outcome of tuning one knob family on one dataset."""

    family: str
    best: Config
    default: Config
    best_seconds: float
    default_seconds: float
    fidelity: int  #: repeats of the final head-to-head
    trials: Tuple[Trial, ...] = field(default=())

    @property
    def improved(self) -> bool:
        return self.best != self.default

    @property
    def speedup(self) -> float:
        if self.best_seconds <= 0:
            return 1.0
        return self.default_seconds / self.best_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "best": dict(self.best),
            "default": dict(self.default),
            "best_seconds": self.best_seconds,
            "default_seconds": self.default_seconds,
            "fidelity": self.fidelity,
            "speedup": self.speedup,
            "trials": len(self.trials),
        }


class ProbeContext:
    """The measurement substrate for one dataset.

    Row-samples the COO input exactly like the autotuner (seeded,
    without replacement), builds the CSR baseline once, and fixes the
    probe row ids every measurer shares — so two configurations always
    race on identical work.

    Every measurement runs on the sample, but :attr:`profile` is the
    full matrix's: it keys the cache entries and conditions each
    family's incumbent default, so a later run on the same dataset
    looks its entries up under the bucket they were written to.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
        *,
        probe_rows: Optional[int] = 2048,
        smsv_per_probe: int = 8,
        seed: int = 0,
    ) -> None:
        tuner = AutoTuner(probe_rows=probe_rows, seed=seed)
        srows, scols, svalues, sshape = tuner._sample(
            np.asarray(rows), np.asarray(cols), np.asarray(values), shape
        )
        if sshape[0] == 0:
            raise ValueError("cannot tune on an empty matrix")
        self.rows, self.cols, self.values = srows, scols, svalues
        self.shape = sshape
        self.seed = seed
        self.profile: DatasetProfile = profile_from_coo(
            np.asarray(rows), np.asarray(cols), shape
        )
        self.csr = CSRMatrix.from_coo(srows, scols, svalues, sshape)
        m = sshape[0]
        rng = np.random.default_rng(seed + 1)
        n_probe = min(m, smsv_per_probe)
        self.probe_ids: List[int] = [
            int(i) for i in rng.permutation(m)[:n_probe]
        ]
        self.probe_vectors = [self.csr.row(i) for i in self.probe_ids]

    # -- per-family measurers ------------------------------------------
    def measurer_for(self, family: str) -> Measurer:
        try:
            return getattr(self, f"_measure_{family}")
        except AttributeError:
            raise ValueError(
                f"no measurer for knob family {family!r}"
            ) from None

    def _smsv_sweep(self, matrix, repeats: int) -> float:
        vectors = self.probe_vectors

        def run() -> None:
            for v in vectors:
                matrix.smsv(v)

        r = benchmark(run, repeats=repeats, warmup=1)
        return r.median / max(1, len(vectors))

    def _measure_sell_chunk(self, config: Config, repeats: int) -> float:
        matrix = SELLMatrix.from_coo(
            self.rows, self.cols, self.values, self.shape,
            chunk=int(config["chunk"]),
        )
        return self._smsv_sweep(matrix, repeats)

    def _measure_sigma(self, config: Config, repeats: int) -> float:
        sigma = int(config["sigma"])
        matrix = RSELLMatrix.from_coo(
            self.rows, self.cols, self.values, self.shape,
            sigma=None if sigma == 0 else sigma,
        )
        return self._smsv_sweep(matrix, repeats)

    def _measure_row_cache_mb(self, config: Config, repeats: int) -> float:
        # Replay a skewed row-access sequence (a hot working set over a
        # long tail — the shape of SMO's working-set re-entries) through
        # the LRU cache at this budget; misses pay one real kernel row.
        matrix = self.csr
        m = self.shape[0]
        rng = np.random.default_rng(self.seed + 2)
        hot = max(1, m // 8)
        seq = [
            int(i % hot) if draw < 0.75 else int(i % m)
            for i, draw in enumerate(rng.random(4 * len(self.probe_ids)))
        ]
        mb = int(config["row_cache_mb"])
        row_bytes = 8 * m

        def run() -> None:
            cache = _RowCache.from_budget_mb(float(mb), row_bytes)
            for i in seq:
                row = cache.get(i)
                if row is None:
                    row = matrix.smsv(matrix.row(i))
                    cache.put(i, row)

        r = benchmark(run, repeats=repeats, warmup=1)
        return r.median / max(1, len(seq))


class TuneSearch:
    """Seeded, budgeted, resumable searcher over one or more families.

    ``budget`` bounds the total number of *timed repeats* spent (a
    measurement at fidelity ``r`` costs ``r``); the final head-to-head
    between incumbent and default always runs so the persisted winner
    is honestly measured even when the budget ran dry mid-sweep.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        base_repeats: int = 3,
        max_repeats: int = 12,
        budget: int = 256,
        prior: Optional[Dict[Tuple[str, str, int], float]] = None,
    ) -> None:
        if base_repeats < 1:
            raise ValueError("base_repeats must be >= 1")
        if max_repeats < base_repeats:
            raise ValueError("max_repeats must be >= base_repeats")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.seed = seed
        self.base_repeats = base_repeats
        self.max_repeats = max_repeats
        self.budget = budget
        self.spent = 0
        #: (family, params_key, repeats) -> median seconds.  Seeding a
        #: new instance with a previous run's dict resumes the search.
        self.measurements: Dict[Tuple[str, str, int], float] = (
            dict(prior) if prior else {}
        )
        self.trials: List[Trial] = []

    # -- measurement with memoisation ----------------------------------
    def measure(
        self,
        family: str,
        measurer: Measurer,
        params: Config,
        repeats: int,
    ) -> float:
        key = (family, params_key(params), int(repeats))
        hit = self.measurements.get(key)
        if hit is not None:
            return hit
        seconds = measurer(params, int(repeats))
        self.measurements[key] = seconds
        self.spent += int(repeats)
        self.trials.append(
            Trial(
                family=family,
                params=tuple(sorted((k, int(v)) for k, v in params.items())),
                repeats=int(repeats),
                seconds=seconds,
            )
        )
        return seconds

    def _exhausted(self) -> bool:
        return self.spent >= self.budget

    # -- successive halving over one candidate list --------------------
    def _halve(
        self,
        family: str,
        measurer: Measurer,
        candidates: Sequence[Config],
        protected: Config,
    ) -> Tuple[Config, int]:
        """Race ``candidates`` down to one; returns (winner, fidelity).

        ``protected`` (the default) survives every cut, and ties break
        toward earlier list positions — the protected config is moved
        to the front, so "no slower than default" holds by argmin.
        """
        pkey = params_key(protected)
        pool: List[Config] = [dict(protected)] + [
            c for c in candidates if params_key(c) != pkey
        ]
        fidelity = self.base_repeats
        while True:
            scored = [
                (self.measure(family, measurer, c, fidelity), i)
                for i, c in enumerate(pool)
            ]
            order = sorted(range(len(pool)), key=lambda i: scored[i])
            if (
                len(pool) == 1
                or fidelity >= self.max_repeats
                or self._exhausted()
            ):
                return dict(pool[order[0]]), fidelity
            keep = max(1, math.ceil(len(pool) / 2))
            survivors = [pool[i] for i in sorted(order[:keep])]
            if not any(params_key(c) == pkey for c in survivors):
                survivors.insert(0, pool[0])
            pool = survivors
            fidelity = min(fidelity * 2, self.max_repeats)

    # -- one family ----------------------------------------------------
    def tune_family(self, family: str, ctx: ProbeContext) -> FamilyResult:
        knob = knob_for(family)
        measurer = ctx.measurer_for(family)
        default = knob.config(knob.default_value(ctx.profile))
        trial_mark = len(self.trials)

        tracer = get_tracer()
        with tracer.span("tune.family") as sp:
            if tracer.enabled:
                sp.set("family", family)
                sp.set("m", ctx.shape[0])
            best, fidelity = self._halve(
                family, measurer, [knob.config(v) for v in knob.values],
                default,
            )
            # Final head-to-head at the highest fidelity reached: the
            # measurement pair the cache entry (and the bench gate)
            # stands on.  Runs even with the budget exhausted.
            best_s = self.measure(family, measurer, best, fidelity)
            default_s = self.measure(family, measurer, default, fidelity)
            if default_s <= best_s:
                best, best_s = dict(default), default_s

        return FamilyResult(
            family=family,
            best=knob.validate(best),
            default=knob.validate(default),
            best_seconds=best_s,
            default_seconds=default_s,
            fidelity=fidelity,
            trials=tuple(self.trials[trial_mark:]),
        )

    # -- many families -------------------------------------------------
    def tune(
        self,
        ctx: ProbeContext,
        families: Sequence[str],
    ) -> Dict[str, FamilyResult]:
        return {f: self.tune_family(f, ctx) for f in families}


def tune_datasets(
    datasets: Sequence[Tuple[str, np.ndarray, np.ndarray, np.ndarray,
                             Tuple[int, int]]],
    families: Sequence[str],
    *,
    cache: TuneCache,
    seed: int = 0,
    **search_kwargs: int,
) -> Dict[str, Dict[str, object]]:
    """Search each ``(name, rows, cols, values, shape)`` and persist.

    Every family winner goes into ``cache`` under the full dataset's
    profile bucket (measured on its row sample; see
    :class:`ProbeContext`).  ``search_kwargs`` go to each dataset's
    fresh :class:`TuneSearch` (a fresh one, since its measurement memo
    must not leak across datasets).

    Returns ``{name: {"bucket", "families", "budget_spent"}}`` with
    ``families`` mapping each tuned family to its :class:`FamilyResult`.
    """
    out: Dict[str, Dict[str, object]] = {}
    for name, rows, cols, values, shape in datasets:
        ctx = ProbeContext(rows, cols, values, shape, seed=seed)
        search = TuneSearch(seed=seed, **search_kwargs)
        results = search.tune(ctx, families)
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
        out[name] = {
            "bucket": profile_bucket(ctx.profile),
            "families": results,
            "budget_spent": search.spent,
        }
    return out
