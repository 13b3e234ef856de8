"""Ablation — threaded SMSV (the OpenMP analogue).

Design question: how much of the paper's OpenMP parallelism does the
one split SMO runs recover on this substrate?  From
``DEN_PAIR_MIN_ELEMENTS`` up, SMO computes a DEN matrix's fused
kernel-row pair through ``parallel_smsv_multi``, one column GEMV per
thread.  This times that call on the gisette clone (1500 x 1250, the
only Table V clone above the floor) at 1, 2 and 4 workers; one worker
is the serial kernel.

Assertions are deliberately weak (this may run on a loaded 2-core VM):
correctness is exact, and threading must never be catastrophically
slower than serial.  Times are the best of 7 calls: a shared host
stalls whole runs of calls, and the fastest call is the one least
touched by that.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_series
from repro.data import load_dataset
from repro.formats import format_class
from repro.parallel import WorkerPool, parallel_smsv_multi
from repro.parallel.kernels import DEN_PAIR_MIN_ELEMENTS
from repro.perf.timers import benchmark as time_fn

WORKERS = (1, 2, 4)


@pytest.fixture(scope="module")
def workload():
    ds = load_dataset("gisette", seed=0)
    X = format_class("DEN").from_coo(ds.rows, ds.cols, ds.values, ds.shape)
    assert X.shape == (1500, 1250)
    assert X.storage_elements() >= DEN_PAIR_MIN_ELEMENTS
    return X, (X.row(0), X.row(1))


@pytest.fixture(scope="module")
def timings(workload):
    X, pair = workload
    out = {}
    for w in WORKERS:
        with WorkerPool(w) as pool:
            out[w] = time_fn(
                lambda: parallel_smsv_multi(X, pair, pool=pool),
                repeats=7,
                warmup=2,
            ).best
    return out


def test_ablation_parallel_pair(workload, timings, benchmark, record_rows):
    X, pair = workload
    with WorkerPool(2) as pool:
        benchmark(lambda: parallel_smsv_multi(X, pair, pool=pool))

    print_series(
        f"Ablation: threaded SMSV pair, DEN {X.shape[0]}x{X.shape[1]}",
        "",
        [
            "  ".join(
                f"P={w}: {t * 1e3:6.3f} ms ({timings[1] / t:4.2f}x)"
                for w, t in timings.items()
            )
        ],
    )
    record_rows(
        "ablation_parallel", {str(w): t for w, t in timings.items()}
    )

    # correctness (exact) at every worker count
    ref = X.smsv_multi(pair)
    for w in WORKERS:
        with WorkerPool(w) as pool:
            got = parallel_smsv_multi(X, pair, pool=pool)
        assert np.array_equal(got, ref), w
    # threading is never catastrophically slower than serial
    assert timings[4] < timings[1] * 2.0, timings
