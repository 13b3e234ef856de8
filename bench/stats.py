"""Percentile, sample-count and spread helpers shared by the benchmark.

The benchmark keeps its own arithmetic instead of reusing the program's
histogram, so a change to the program's metrics code can never move the
numbers the program is judged by.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a latency summary may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n``; the
    rounding keeps ``99.9 / 100 * 10000`` from ceiling to 9991."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (an observed sample, never
    interpolated).  Raises on an empty sample: a percentile of nothing
    is a bug in the caller, not a zero."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - _rank(n, q) if n else 0


def highest_supported(n: int) -> Optional[float]:
    """The highest tail percentile with at least ``MIN_TAIL_SAMPLES``
    samples beyond it, or ``None`` when even p90 is not supported."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_TAIL_SAMPLES:
            return q
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``
    gives them (the exclusive method); a single value is its own
    quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median and the highest supported tail of a latency sample, in
    milliseconds, with the sample count stated."""
    n = len(samples_s)
    out: Dict[str, float] = {"n": n}
    if not n:
        return out
    out["p50_ms"] = percentile(samples_s, 50.0) * 1e3
    tail = highest_supported(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail_ms"] = percentile(samples_s, tail) * 1e3
    return out
