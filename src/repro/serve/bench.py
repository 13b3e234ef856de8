"""Serving benchmark: micro-batched vs unbatched throughput, plus the
runtime re-scheduling demo.

1. **throughput** (``repro bench serve [--quick]``, record in
   ``BENCH_serve.json``) — wall-clock, interleaved-pairs measurement
   (:func:`~repro.perf.timers.paired_ratio`) of serving ``k`` queries
   through one blocked engine sweep
   (:meth:`~repro.serve.engine.InferenceEngine.predict`) against the
   same ``k`` queries through the single-vector path
   (:meth:`~repro.serve.engine.InferenceEngine.predict_one`), with the
   matrix in the format the scheduler picks *for that batch width*.
   The gated number is the median batched speedup at the widest
   ``k``; its >= 1.5x criterion is recorded, not enforced, because it
   is a wall-clock ratio.

2. **re-schedule demo** (:func:`run_reschedule_demo`) — a deterministic
   virtual-time :func:`~repro.serve.loadgen.phase_shift` workload,
   served by a one-worker :func:`~repro.serve.fleet.simulate_fleet`
   session, on a bimodal-row model whose cost ranking flips between
   effective batch widths 1 and 8.  At least one runtime format re-schedule fires and
   every answer — across the mid-stream swap — is bitwise identical to
   the unbatched, format-pinned reference.  Being deterministic, it is
   a test (``tests/core/test_golden_decisions.py``) rather than part
   of the timed suite; ``repro serve`` runs the same model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import LayoutScheduler
from repro.data.synthetic import bimodal_rows_matrix, uniform_rows_matrix
from repro.features.extract import extract_profile
from repro.formats.base import FORMAT_NAMES
from repro.formats.csr import CSRMatrix
from repro.perf.harness import Gate, record
from repro.perf.timers import BenchmarkResult, paired_ratio
from repro.serve.engine import (
    EXACT_SERVE_FORMATS,
    InferenceEngine,
    PairSlice,
    ServedModel,
)
from repro.serve.fleet import ServiceModel, ServingFleet, simulate_fleet
from repro.serve.loadgen import phase_shift, query_sampler, replay_unbatched
from repro.serve.rescheduler import FormatRescheduler
from repro.svm.kernels import make_kernel

#: Acceptance threshold: batched serving throughput vs unbatched.
HEADLINE_CRITERION = 1.5

#: (n_sv, n_features, row_nnz) — support-vector matrices shaped like
#: the trained models the SVM layer produces on the synthetic sets.
FULL_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (1200, 400, 24),
    (2000, 600, 40),
)
QUICK_SHAPES: Tuple[Tuple[int, int, int], ...] = ((600, 300, 16),)

FULL_KS: Tuple[int, ...] = (2, 4, 8)
QUICK_KS: Tuple[int, ...] = (8,)


def synthetic_model(
    n_sv: int,
    n_features: int,
    row_nnz: int,
    *,
    kernel: str = "gaussian",
    seed: int = 0,
) -> ServedModel:
    """A binary served model with a uniform-row synthetic SV matrix."""
    rows, cols, vals, shape = uniform_rows_matrix(
        n_sv, n_features, row_nnz, seed=seed
    )
    matrix = CSRMatrix.from_coo(rows, cols, vals, shape)
    rng = np.random.default_rng(seed + 1)
    coef = rng.standard_normal(n_sv)
    params = {"gamma": 0.5} if kernel == "gaussian" else {}
    return ServedModel(
        matrix,
        coef,
        [PairSlice(classes=(1.0, -1.0), lo=0, hi=n_sv, bias=0.1)],
        make_kernel(kernel, **params),
    )


#: The paper's formats inside the exact serving family (CSR, COO, ELL,
#: DIA).  The reschedule *demo* restricts itself to these four: with
#: the full candidate set the sorted layouts (RSELL) dominate the
#: bimodal demo matrix at every batch width, so no crossover exists to
#: demonstrate.  The SELL-family runtime flip has its own coverage
#: (``tests/serve/test_sell_flip.py``).
CLASSIC_SERVE_FORMATS: Tuple[str, ...] = tuple(
    f for f in EXACT_SERVE_FORMATS if f in FORMAT_NAMES
)


def flip_model(*, seed: int = 0) -> ServedModel:
    """A served model whose cost ranking flips with batch width.

    Bimodal rows (mostly 10 nnz, a 10 % tail at 14) on a 600 x 400
    matrix: at effective ``batch_k=1`` the model ranks ELL first within
    the *unreordered* exact serving family
    (:data:`CLASSIC_SERVE_FORMATS`), at ``batch_k>=4`` COO's flat
    stream amortises ahead — the crossover the phase-shift workload
    walks the re-scheduler across.
    """
    rows, cols, vals, shape = bimodal_rows_matrix(
        600, 400, 10, 14, 0.1, seed=seed
    )
    matrix = CSRMatrix.from_coo(rows, cols, vals, shape)
    rng = np.random.default_rng(seed + 1)
    coef = rng.standard_normal(shape[0])
    return ServedModel(
        matrix,
        coef,
        [PairSlice(classes=(1.0, -1.0), lo=0, hi=shape[0], bias=0.05)],
        make_kernel("gaussian", gamma=0.5),
    )


def run_throughput(
    shapes: Sequence[Tuple[int, int, int]],
    ks: Sequence[int],
    *,
    samples: int,
    seed: int = 0,
) -> List[Dict]:
    """Batched-vs-unbatched serving ratios per shape and batch width."""
    scheduler = LayoutScheduler("cost", candidates=EXACT_SERVE_FORMATS)
    records: List[Dict] = []
    for n_sv, n_features, row_nnz in shapes:
        model = synthetic_model(n_sv, n_features, row_nnz, seed=seed)
        profile = extract_profile(model.matrix)
        rng = np.random.default_rng(seed + 7)
        sampler = query_sampler(n_features, row_nnz)
        for k in ks:
            decision = scheduler.decide_profile(profile, batch_k=k)
            engine = InferenceEngine(model.clone())
            engine.convert_to(decision.fmt)
            batch = [sampler(rng) for _ in range(k)]

            def single() -> None:
                for v in batch:
                    engine.predict_one(v)

            def batched() -> None:
                engine.predict(batch)

            ratio, t_single, t_batched = paired_ratio(
                single, batched, samples=samples
            )
            records.append(
                {
                    "n_sv": n_sv,
                    "n_features": n_features,
                    "row_nnz": row_nnz,
                    "k": k,
                    "fmt": decision.fmt,
                    "source": decision.source,
                    "single_seconds": t_single,
                    "batched_seconds": t_batched,
                    "single_rps": k / t_single,
                    "batched_rps": k / t_batched,
                    "speedup": ratio,
                }
            )
    return records


def run_reschedule_demo(*, smoke: bool = False) -> Dict:
    """Virtual-time phase-shift serving with a mid-stream format swap.

    Deterministic: seeded workload, virtual clock, no wall time in any
    decision.  One ``local`` worker serves with zero modelled service
    time.  The bitwise checks compare every label, and every decision
    value as served (before and after the swap), against an unbatched
    engine pinned to the initial format.
    """
    model = flip_model(seed=0)
    policy = dict(
        window=32,
        check_every=8,
        min_gain=0.0,
        candidates=CLASSIC_SERVE_FORMATS,
    )
    fmt0 = FormatRescheduler(**policy).initial_format(model.matrix)
    sampler = query_sampler(model.n_features, 12)
    workload = phase_shift(
        sampler,
        singles=24 if smoke else 48,
        single_gap_ms=5.0,
        bursts=16 if smoke else 32,
        burst_size=8,
        burst_gap_ms=5.0,
        seed=3,
    )
    with ServingFleet(
        {"flip": model},
        1,
        backend="local",
        initial_formats={"flip": fmt0},
        rescheduler=policy,
    ) as fleet:
        report = simulate_fleet(
            fleet,
            workload,
            max_batch=8,
            max_wait_ms=2.0,
            service=ServiceModel(0.0, 0.0, 0.0),
        )

    pinned = InferenceEngine(model.clone())
    pinned.convert_to(fmt0)
    reference = replay_unbatched(pinned, workload)
    labels_ok = report.responses == reference
    decisions_ok = set(report.decisions) == set(reference) and all(
        np.array_equal(
            report.decisions[req.req_id], pinned.decision_one(req.vector)
        )
        for req in workload.arrivals
    )
    snap = report.metrics.snapshot()
    return {
        "workload": workload.name,
        "n_requests": len(workload),
        "initial_format": fmt0,
        "final_format": report.snapshot.formats[0]["flip"],
        "events": [
            {
                "batch_seq": e.batch_seq,
                "effective_k": e.effective_k,
                "from": e.from_fmt,
                "to": e.to_fmt,
                "reason": e.reason,
            }
            for _key, _shard, e in report.events
        ],
        "served": snap["served"],
        "batches": snap["batches"],
        "mean_batch": snap["mean_batch"],
        "batch_histogram": snap["batch_histogram"],
        "labels_bitwise_identical": labels_ok,
        "decisions_bitwise_identical": decisions_ok,
    }


def run(
    *, quick: bool = False, repeats: Optional[int] = None, seed: int = 0
) -> Dict:
    """Run the throughput experiment; return the ``BENCH_serve.json``
    record.

    ``repeats`` is the number of interleaved samples per configuration.
    The gated number is the median batched speedup at the widest batch
    width across the shape suite, with the matrix in the scheduler's
    per-width choice — the configuration the serving stack runs.
    """
    shapes = QUICK_SHAPES if quick else FULL_SHAPES
    ks = QUICK_KS if quick else FULL_KS
    samples = repeats if repeats is not None else (5 if quick else 11)
    throughput = run_throughput(shapes, ks, samples=samples, seed=seed)
    speedup = BenchmarkResult(
        [r["speedup"] for r in throughput if r["k"] == max(ks)]
    ).median
    return record(
        "serve",
        quick=quick,
        seed=seed,
        measured={"throughput": throughput, "batched_speedup": speedup},
        modelled={},
        gates=[
            Gate("batched_speedup", speedup, ">=", HEADLINE_CRITERION,
                 enforced=False),
        ],
    )
