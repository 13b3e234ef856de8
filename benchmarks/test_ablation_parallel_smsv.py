"""Ablation — threaded SMSV (the OpenMP analogue).

Design question: how much does row-blocked threading recover of the
paper's OpenMP parallelism on this substrate?  NumPy releases the GIL
inside large ufunc/BLAS calls, so blocks genuinely overlap for big
matrices; for small ones the dispatch overhead dominates — which is why
``parallel_matvec`` has a serial fast path.

Assertions are deliberately weak (this may run on a loaded 2-core VM):
correctness is exact, and threading must never be catastrophically
slower than serial on the large case.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_series
from repro.data.synthetic import uniform_rows_matrix
from repro.formats import format_class
from repro.parallel import WorkerPool, parallel_matvec
from repro.perf.timers import benchmark as time_fn

M, N, ROW_NNZ = 20_000, 4_000, 60


@pytest.fixture(scope="module")
def workload():
    rows, cols, vals, shape = uniform_rows_matrix(M, N, ROW_NNZ, seed=0)
    return {
        fmt: format_class(fmt).from_coo(rows, cols, vals, shape)
        for fmt in ("DEN", "CSR", "ELL")
    }


@pytest.fixture(scope="module")
def timings(workload):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(N)
    out = {}
    for fmt, m in workload.items():
        serial = time_fn(lambda: m.matvec(x), repeats=5, warmup=1).median
        per_workers = {1: serial}
        for w in (2, 4):
            with WorkerPool(w) as pool:
                per_workers[w] = time_fn(
                    lambda: parallel_matvec(
                        m, x, pool=pool, min_rows_per_block=1024
                    ),
                    repeats=5,
                    warmup=1,
                ).median
        out[fmt] = per_workers
    return out


def test_ablation_parallel_smsv(workload, timings, benchmark, record_rows):
    m = workload["CSR"]
    rng = np.random.default_rng(1)
    x = rng.standard_normal(N)
    with WorkerPool(4) as pool:
        benchmark(lambda: parallel_matvec(m, x, pool=pool))

    rows = []
    for fmt, per in timings.items():
        rows.append(
            f"{fmt:4s} "
            + "  ".join(
                f"P={w}: {t * 1e3:7.2f} ms ({per[1] / t:4.2f}x)"
                for w, t in per.items()
            )
        )
    print_series(
        f"Ablation: threaded SMSV, {M}x{N} rows={ROW_NNZ} nnz", "", rows
    )
    record_rows(
        "ablation_parallel",
        {f: {str(w): t for w, t in per.items()} for f, per in timings.items()},
    )

    # correctness (exact) for every format and worker count
    x = np.random.default_rng(2).standard_normal(N)
    for fmt, m in workload.items():
        ref = m.matvec(x)
        with WorkerPool(4) as pool:
            got = parallel_matvec(m, x, pool=pool, min_rows_per_block=1024)
        assert np.array_equal(got, ref), fmt
    # threading is never catastrophically slower on the big case
    for fmt, per in timings.items():
        assert per[4] < per[1] * 2.0, (fmt, per)
