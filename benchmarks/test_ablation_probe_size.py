"""Ablation — autotuner probe sample size.

Design question (DESIGN.md §5): probing the full matrix is exact but
costs milliseconds; probing a row sample is cheaper but can misrank.
Sweep the sample size and report decision cost vs regret against the
full-matrix oracle decision.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_series
from repro.core import AutoTuner
from repro.data import load_dataset
from repro.formats import FORMAT_NAMES, format_class
from repro.perf.timers import benchmark as time_fn

DATASETS = ("adult", "aloi", "mnist", "trefethen")
SAMPLE_SIZES = (64, 256, 1024, None)  # None = full matrix


def _smo_kernel_seconds_per_format(ds):
    """Oracle times with the same shape the probe measures: row
    extraction + SMSV (SMO's per-selected-sample kernel work)."""
    out = {}
    rng = np.random.default_rng(9)
    for fmt in FORMAT_NAMES:
        m = format_class(fmt).from_coo(ds.rows, ds.cols, ds.values, ds.shape)
        ids = [int(i) for i in rng.integers(0, m.shape[0], size=4)]

        def run():
            for i in ids:
                m.smsv(m.row(i))

        out[fmt] = time_fn(run, repeats=5, warmup=1).median
    return out


@pytest.fixture(scope="module")
def sweep():
    full_times = {}
    for name in DATASETS:
        ds = load_dataset(name, seed=0)
        full_times[name] = _smo_kernel_seconds_per_format(ds)

    out = {}
    for size in SAMPLE_SIZES:
        regrets = []
        cost = 0.0
        for name in DATASETS:
            ds = load_dataset(name, seed=0)
            tuner = AutoTuner(
                probe_rows=size, repeats=2, smsv_per_probe=2, seed=1
            )
            t0 = time.perf_counter()
            pick = tuner.probe(ds.rows, ds.cols, ds.values, ds.shape)[0].fmt
            cost += time.perf_counter() - t0
            times = full_times[name]
            regrets.append(times[pick] / min(times.values()))
        geo = 1.0
        for r in regrets:
            geo *= r
        out[size] = dict(
            geomean_regret=geo ** (1.0 / len(regrets)),
            probe_seconds=cost / len(DATASETS),
        )
    return out


def test_ablation_probe_size(sweep, benchmark, record_rows):
    ds = load_dataset("adult", seed=0)
    tuner = AutoTuner(probe_rows=256, repeats=1, smsv_per_probe=1)
    benchmark.pedantic(
        lambda: tuner.probe(ds.rows, ds.cols, ds.values, ds.shape)[0].fmt,
        rounds=3,
        iterations=1,
    )

    rows = [
        f"probe_rows={str(size):>5s}   geomean regret "
        f"{r['geomean_regret']:5.2f}x   probe cost "
        f"{r['probe_seconds'] * 1e3:8.2f} ms"
        for size, r in sweep.items()
    ]
    print_series("Ablation: probe sample size", "", rows)
    record_rows(
        "ablation_probe",
        {str(k): v["geomean_regret"] for k, v in sweep.items()},
    )

    # Full-matrix probing is (near-)exact; the slack covers timing
    # noise between two independent measurements of the same quantity.
    assert sweep[None]["geomean_regret"] < 1.25
    # Even small samples keep regret bounded — the property that makes
    # cheap runtime probing viable.
    assert sweep[64]["geomean_regret"] < 2.5
    # Larger samples never cost less than smaller ones by much (sanity
    # on the cost accounting).
    assert sweep[None]["probe_seconds"] >= sweep[64]["probe_seconds"] * 0.5
