"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only

Every experiment prints the rows/series the paper reports (visible with
``-s``; also attached to each benchmark's ``extra_info`` so they land in
``--benchmark-json`` output).  Shapes — who wins, monotonicity, rough
factors — are asserted; absolute numbers are substrate-dependent and
are not.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np
import pytest

from repro.formats import FORMAT_NAMES, MatrixFormat, format_class
from repro.perf.timers import benchmark as time_fn


@pytest.fixture(autouse=True, scope="session")
def _isolated_tune_cache(tmp_path_factory):
    """Pin the persisted tuning cache to a per-session temp file.

    The shape assertions are written against the analytic defaults: a
    developer's real ``~/.cache/repro/tune.json`` (say, after ``make
    tune``) must not hand the SELL builders or the cost model a tuned
    slice height mid-experiment.
    """
    from repro.tune.cache import reset_tune_cache

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(
            "REPRO_TUNE_CACHE",
            str(tmp_path_factory.mktemp("tune") / "tune.json"),
        )
        reset_tune_cache()
        yield
    reset_tune_cache()


def measure_smsv_seconds(
    matrix: MatrixFormat,
    *,
    n_vectors: int = 4,
    repeats: int = 3,
    seed: int = 0,
    stat: str = "median",
) -> float:
    """Seconds of one SMSV with row vectors (the SMO pattern).

    ``stat="best"`` returns the minimum instead of the median —
    the right statistic when comparing runs expected to be *equal*
    (constant-work sweeps), where any difference is pure OS jitter.
    """
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, matrix.shape[0], size=n_vectors)
    vectors = [matrix.row(int(i)) for i in ids]

    def run() -> None:
        for v in vectors:
            matrix.smsv(v)

    result = time_fn(run, repeats=repeats, warmup=1)
    value = result.best if stat == "best" else result.median
    return value / n_vectors


def smsv_seconds_per_format(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    shape,
    *,
    formats: Sequence[str] = FORMAT_NAMES,
    seed: int = 0,
) -> Dict[str, float]:
    """Measured SMSV seconds for the same matrix in each format."""
    out: Dict[str, float] = {}
    for name in formats:
        m = format_class(name).from_coo(rows, cols, values, shape)
        out[name] = measure_smsv_seconds(m, seed=seed)
    return out


def normalise_to_slowest(times: Dict[str, float]) -> Dict[str, float]:
    """Fig. 1-style speedups: slowest format = 1.0x."""
    worst = max(times.values())
    return {k: worst / v for k, v in times.items()}


def print_series(title: str, header: str, rows: Iterable[str]) -> None:
    """Emit one experiment's table to stdout (captured by -s)."""
    print(f"\n=== {title} ===", file=sys.stderr)
    print(header, file=sys.stderr)
    for row in rows:
        print(row, file=sys.stderr)


@pytest.fixture
def record_rows(benchmark):
    """Attach printed rows to the pytest-benchmark record."""

    def _record(key: str, value) -> None:
        benchmark.extra_info[key] = value

    return _record
