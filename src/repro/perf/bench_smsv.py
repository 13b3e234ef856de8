"""Synthetic SpMM benchmark: blocked multi-vector SMSV vs repeated SMSV.

Two experiments, both on the synthetic generators the rest of the
reproduction uses:

1. **k-trajectory** — for each format, time ``k`` independent
   :meth:`~repro.formats.base.MatrixFormat.smsv` calls against one
   :meth:`~repro.formats.base.MatrixFormat.smsv_multi` sweep over the
   same ``k`` vectors, for growing ``k``.  This shows where the blocked
   kernels amortise traversal (CSR/ELL/COO) and where they cannot (the
   per-column fallback formats stay near 1x by construction).

2. **dual-row headline** — the fused SMO hot path: one iteration needs
   the kernel rows of *two* training samples.  We time the unfused
   sequence (two :meth:`~repro.svm.kernels.Kernel.row` calls, each with
   its own row extraction) against the fused one (one
   :meth:`~repro.svm.kernels.Kernel.rows` dual-row SpMM) exactly as
   ``smo_train`` issues them on a double cache miss.  The criterion is
   a >= 1.4x median speedup, recorded but not enforced: it is a
   wall-clock ratio, and a 2-vCPU shared host does not hold it.

Run via ``repro bench smsv [--quick]``; the record (schema in
:mod:`repro.perf.harness`) lands in ``BENCH_smsv.json``.  Both paths
are bit-for-bit identical in output (property-tested in
``tests/formats/test_spmm.py``), so this file only measures time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.synthetic import uniform_rows_matrix
from repro.formats.base import FORMAT_NAMES, MatrixFormat
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.perf.harness import Gate, record
from repro.perf.timers import BenchmarkResult, benchmark, paired_ratio
from repro.svm.kernels import make_kernel

#: The acceptance threshold for the fused dual-row path.
HEADLINE_CRITERION = 1.4

#: (m, n, row_nnz) triples shaped like the SMO workloads the SVM layer
#: runs: tall-ish sample matrices with tens of features per row.
FULL_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (512, 256, 24),
    (1000, 400, 32),
    (2000, 600, 40),
)
QUICK_SHAPES: Tuple[Tuple[int, int, int], ...] = ((512, 256, 24),)

TRAJECTORY_KS: Tuple[int, ...] = (1, 2, 4, 8)


def _build(m: int, n: int, row_nnz: int, seed: int = 0) -> CSRMatrix:
    rows, cols, vals, shape = uniform_rows_matrix(m, n, row_nnz, seed=seed)
    return CSRMatrix.from_coo(rows, cols, vals, shape)


def _sample_rows(X: MatrixFormat, k: int, seed: int = 0) -> List:
    """``k`` training-sample rows of ``X`` as sparse vectors."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(X.shape[0], size=k, replace=False)
    return [X.row(int(i)) for i in ids]


def _bench_seconds(fn, repeats: int) -> float:
    # A generous min_time matters more than the repeat count here: the
    # individual kernel calls are tens of microseconds, so a short
    # window makes the median hostage to scheduler noise.
    return benchmark(fn, repeats=repeats, warmup=3, min_time=0.1).median


def run_trajectory(
    shapes: Sequence[Tuple[int, int, int]],
    *,
    repeats: int,
    formats: Sequence[str] = FORMAT_NAMES,
    ks: Sequence[int] = TRAJECTORY_KS,
    seed: int = 0,
) -> List[Dict]:
    """Single-vs-batched medians for every format x shape x k."""
    records: List[Dict] = []
    for m, n, row_nnz in shapes:
        base = _build(m, n, row_nnz, seed=seed)
        vectors = _sample_rows(base, max(ks), seed=seed + 1)
        for fmt in formats:
            X = convert(base, fmt)
            for k in ks:
                vs = vectors[:k]

                def single() -> None:
                    for v in vs:
                        X.smsv(v)

                def multi() -> None:
                    X.smsv_multi(vs)

                t_single = _bench_seconds(single, repeats)
                t_multi = _bench_seconds(multi, repeats)
                records.append(
                    {
                        "fmt": fmt,
                        "m": m,
                        "n": n,
                        "row_nnz": row_nnz,
                        "k": k,
                        "single_seconds": t_single,
                        "multi_seconds": t_multi,
                        "speedup": t_single / t_multi,
                    }
                )
    return records


def run_dual_row(
    shapes: Sequence[Tuple[int, int, int]],
    *,
    repeats: int,
    kernels: Sequence[str] = ("gaussian", "linear"),
    seed: int = 0,
) -> List[Dict]:
    """Fused vs unfused dual-row kernel evaluation (the SMO hot path).

    Both timed closures include the ``X.row(i)`` extraction and norm
    lookups, because the real cache-miss path pays them too.
    """
    records: List[Dict] = []
    for m, n, row_nnz in shapes:
        X = _build(m, n, row_nnz, seed=seed)
        row_norms = X.row_norms_sq()
        rng = np.random.default_rng(seed + 2)
        i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
        for name in kernels:
            params = {"gamma": 0.5} if name == "gaussian" else {}
            kernel = make_kernel(name, **params)

            def unfused() -> None:
                for idx in (i, j):
                    v = X.row(idx)
                    kernel.row(X, v, float(row_norms[idx]), row_norms)

            def fused() -> None:
                vi, vj = X.row(i), X.row(j)
                kernel.rows(
                    X,
                    (vi, vj),
                    np.array([float(row_norms[i]), float(row_norms[j])]),
                    row_norms,
                )

            speedup, t_unfused, t_fused = paired_ratio(
                unfused, fused, samples=2 * repeats + 1
            )
            records.append(
                {
                    "kernel": name,
                    "m": m,
                    "n": n,
                    "row_nnz": row_nnz,
                    "unfused_seconds": t_unfused,
                    "fused_seconds": t_fused,
                    "speedup": speedup,
                }
            )
    return records


def run(
    *, quick: bool = False, repeats: Optional[int] = None, seed: int = 0
) -> Dict:
    """Run both experiments; return the ``BENCH_smsv.json`` record.

    The gated number is the *median* dual-row speedup across the
    suite — robust to one noisy config, honest about the typical case.
    """
    shapes = QUICK_SHAPES if quick else FULL_SHAPES
    if repeats is None:
        repeats = 3 if quick else 7
    trajectory = run_trajectory(shapes, repeats=repeats, seed=seed)
    dual_row = run_dual_row(shapes, repeats=repeats, seed=seed)
    speedup = BenchmarkResult([r["speedup"] for r in dual_row]).median
    return record(
        "smsv",
        quick=quick,
        seed=seed,
        measured={
            "trajectory": trajectory,
            "dual_row": dual_row,
            "dual_row_speedup": speedup,
        },
        modelled={},
        gates=[
            Gate("dual_row_speedup", speedup, ">=", HEADLINE_CRITERION,
                 enforced=False),
        ],
    )
