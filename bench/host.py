"""Facts about the machine and the processes a run measures.

CPU time and peak memory of worker processes come from ``/proc``, so
they are read from outside the program without changing it.  CPU time
is read in nanoseconds (``schedstat``, ``process_time``), not in the
10 ms ticks of ``/proc/<pid>/stat``, so per-request figures are not
quantised.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Iterable

import numpy as np


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, summed over its threads."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{tid}/schedstat", "r", encoding="ascii") as fh:
            total += int(fh.read().split()[0])
    return total / 1e9


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_s() -> float:
    """CPU seconds of this process, all threads."""
    return time.process_time()


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident set, so
    the peak read later covers only what ran after this call, not the
    benchmark's own preparation."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def self_peak_rss_mb() -> float:
    """``VmHWM`` of this process since the last :func:`reset_peak_rss`."""
    return proc_peak_rss_mb(os.getpid())


def cpu_s(pids: Iterable[int]) -> float:
    return sum(proc_cpu_s(p) for p in pids)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def calibration_probe(reps: int = 7) -> Dict[str, float]:
    """Median seconds of two fixed NumPy kernels.

    Timed before and after every run, so drift of the machine itself
    shows next to the results.  ``compute`` is a small dense product
    that stays in the core's cache.  ``memory`` sums 16 MiB, about the
    size of the largest training matrix, so it also feels other tenants'
    use of the shared cache and memory bus, which slows the training
    workload far more than the compute probe.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    big = rng.standard_normal(2 * 1024 * 1024)

    def product():
        for _ in range(8):
            a @ b

    def stream():
        for _ in range(4):
            big.sum()

    return {"compute": _median_time(product, reps), "memory": _median_time(stream, reps)}


def machine_meta() -> Dict[str, object]:
    """Machine facts recorded with every results file."""
    from repro.tune.fingerprint import fingerprint_hash, machine_fingerprint

    fp = machine_fingerprint()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": fp["cpu_model"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fingerprint": fp,
        "fingerprint_hash": fingerprint_hash(fp),
    }
