"""Wall-clock measurement helpers.

Implements the ``timeit`` discipline from the optimisation guide: warm up
first (JIT-less Python still has cache and allocator warm-up), repeat the
measurement, and report the *median* so a single OS hiccup cannot skew a
layout decision.  The autotuner in :mod:`repro.core.autotune` builds
directly on :func:`benchmark`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple


class Timer:
    """Simple accumulating stopwatch usable as a context manager.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("Timer already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer not running")
        delta = time.perf_counter() - self._start
        self.elapsed += delta
        self._start = None
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class BenchmarkResult:
    """Summary statistics of a repeated timing run (seconds)."""

    samples: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        s = sorted(self.samples)
        n = len(s)
        if n == 0:
            return math.nan
        mid = n // 2
        if n % 2:
            return s[mid]
        return 0.5 * (s[mid - 1] + s[mid])

    @property
    def best(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((x - mu) ** 2 for x in self.samples) / (len(self.samples) - 1)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BenchmarkResult(median={self.median:.3e}s, "
            f"best={self.best:.3e}s, n={len(self.samples)})"
        )


def benchmark(
    fn: Callable[[], object],
    *,
    repeats: int = 5,
    warmup: int = 1,
    min_time: float = 0.0,
) -> BenchmarkResult:
    """Time ``fn`` with warm-up and repeats; return summary statistics.

    Parameters
    ----------
    fn:
        Zero-argument callable to measure.
    repeats:
        Number of measured invocations (after warm-up).
    warmup:
        Invocations discarded before measurement begins.
    min_time:
        If positive, keep adding repeats until the accumulated measured
        time exceeds this many seconds (bounds noise for very fast
        kernels, mirroring ``timeit``'s auto-ranging).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    result = BenchmarkResult()
    total = 0.0
    n = 0
    while n < repeats or total < min_time:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        result.samples.append(dt)
        total += dt
        n += 1
        if n >= 10_000:  # safety valve for pathological min_time
            break
    return result


def paired_ratio(
    slow: Callable[[], object],
    fast: Callable[[], object],
    *,
    samples: int,
    batch_seconds: float = 0.01,
) -> Tuple[float, float, float]:
    """Median of interleaved per-sample time ratios ``slow / fast``.

    Timing the two variants in separate windows lets CPU frequency
    drift bias the ratio; alternating batches inside one loop makes
    each sample a same-conditions comparison.  Each sample runs as many
    calls as fill ``batch_seconds`` of ``slow``.  Returns
    ``(ratio, slow_seconds, fast_seconds)`` with per-call medians.
    """
    for fn in (slow, fast):
        fn()
        fn()
    t0 = time.perf_counter()
    slow()
    dt = time.perf_counter() - t0
    reps = max(1, int(batch_seconds / max(dt, 1e-9)))
    ratios, t_slow, t_fast = (BenchmarkResult() for _ in range(3))
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(reps):
            slow()
        a = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            fast()
        b = time.perf_counter() - t0
        ratios.samples.append(a / max(b, 1e-12))
        t_slow.samples.append(a / reps)
        t_fast.samples.append(b / reps)
    return ratios.median, t_slow.median, t_fast.median


def rank_by_median(
    candidates: Sequence[Callable[[], object]],
    *,
    repeats: int = 5,
    warmup: int = 1,
) -> List[int]:
    """Benchmark each candidate; return indices sorted fastest-first."""
    medians = [
        benchmark(fn, repeats=repeats, warmup=warmup).median for fn in candidates
    ]
    return sorted(range(len(candidates)), key=lambda i: medians[i])
