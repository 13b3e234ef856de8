"""Thread-pool execution over disjoint blocks.

A deliberately small wrapper around :class:`concurrent.futures.
ThreadPoolExecutor`: the parallel kernel hands it closures over
disjoint blocks writing into disjoint output slices, which is data-race
free by construction (the same discipline the paper's OpenMP loops rely
on).
"""

from __future__ import annotations

import atexit
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.analysis.race import make_lock, track_shared

T = TypeVar("T")
R = TypeVar("R")


def _worker_cap() -> int:
    """Upper bound on configured workers: generous, but finite.

    Oversubscribing threads is sometimes useful (IO overlap), so allow
    several times the core count — but an absurd request (``10**9``)
    would exhaust memory on thread stacks long before doing any work.
    """
    return max(64, 8 * (os.cpu_count() or 1))


def default_workers() -> int:
    """Worker count: ``REPRO_NUM_THREADS`` env, else CPU count.

    Unparsable values warn and fall back to the CPU count; values
    outside ``[1, cap]`` warn and are clamped rather than silently
    ignored, so a typo in a job script is visible in the logs instead
    of quietly changing the parallelism.
    """
    fallback = max(1, os.cpu_count() or 1)
    env = os.environ.get("REPRO_NUM_THREADS")
    if env is None or not env.strip():
        return fallback
    try:
        n = int(env.strip())
    except ValueError:
        warnings.warn(
            f"REPRO_NUM_THREADS={env!r} is not an integer; "
            f"using {fallback} workers",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    cap = _worker_cap()
    if n < 1:
        warnings.warn(
            f"REPRO_NUM_THREADS={n} is below 1; clamping to 1 worker",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    if n > cap:
        warnings.warn(
            f"REPRO_NUM_THREADS={n} exceeds the sanity cap {cap}; "
            f"clamping to {cap} workers",
            RuntimeWarning,
            stacklevel=2,
        )
        return cap
    return n


class WorkerPool:
    """Reusable thread pool with a serial fast path.

    ``n_workers`` counts the calling thread, which works through
    :meth:`map` alongside ``n_workers - 1`` executor threads.
    ``n_workers=1`` bypasses the executor entirely — important because
    the autotuner probes tiny matrices where pool dispatch overhead would
    drown the signal it is trying to measure.
    """

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self.n_workers = n_workers if n_workers is not None else default_workers()
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = make_lock("parallel.pool")
        track_shared(self, ("_executor",))

    def _ensure(self) -> ThreadPoolExecutor:
        # Check-then-act under the lock: two threads racing first use
        # used to each construct a ThreadPoolExecutor, leaking one with
        # its worker threads (the RDL012 pattern).
        with self._lock:
            if self._executor is None:
                # The calling thread is the n-th worker (see map).
                self._executor = ThreadPoolExecutor(
                    max_workers=self.n_workers - 1
                )
            return self._executor

    @property
    def executor_active(self) -> bool:
        """Whether a ThreadPoolExecutor has actually been constructed.

        The serial fast path (``n_workers == 1`` or a single work item)
        never constructs one; the parallel kernel's tests assert this so
        a one-block partition costs zero threading overhead.
        """
        with self._lock:
            return self._executor is not None

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """``[fn(item) for item in items]``, the calling thread working too.

        The caller runs the first item itself while the pool's threads
        take the rest.  Then it walks the rest in order, taking back
        (a successful ``Future.cancel``) and running inline each item
        no thread has started yet; only then does it wait, and only on
        items already running.  That saves a handoff when the pool is
        free and rules out deadlock when it is not: a ``map`` nested
        inside another ``map`` whose items hold every pool thread runs
        its own items inline instead of waiting for a thread that never
        frees.
        """
        # Serial fast path: one worker or one item never spins up an
        # executor — the closure runs inline on the calling thread.
        if self.n_workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        executor = self._ensure()
        futures = [executor.submit(fn, item) for item in items[1:]]
        running = []
        try:
            results: List[R] = [fn(items[0])]
            for future, item in zip(futures, items[1:]):
                if future.cancel():
                    results.append(fn(item))
                else:
                    results.append(None)  # type: ignore[arg-type]
                    running.append((len(results) - 1, future))
        finally:
            for future in futures:  # no-op unless an item raised
                future.cancel()
        for k, future in running:
            results[k] = future.result()
        return results

    def shutdown(self) -> None:
        """Join and drop the executor; idempotent and thread-safe.

        Safe to call any number of times (including concurrently, or
        again after further use re-created the executor), so the atexit
        hook and explicit test teardowns can both call it.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


_shared_pool: Optional[WorkerPool] = None
_shared_pool_lock = make_lock("parallel.shared_pool")


def shared_pool() -> WorkerPool:
    """Lazily constructed process-wide pool used by format kernels."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = WorkerPool()
        return _shared_pool


@atexit.register
def _shutdown_shared_pool() -> None:
    """Join the shared pool's threads at interpreter exit.

    Keeps traced / race-sanitized runs from leaking executor threads
    past the point where their shutdown can still be observed; a later
    ``shared_pool()`` call would lazily re-create the executor, so this
    is safe even if something schedules work after us.
    """
    with _shared_pool_lock:
        pool = _shared_pool
    if pool is not None:
        pool.shutdown()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items`` with a (possibly shared) thread pool."""
    if n_workers is None:
        return shared_pool().map(fn, items)
    with WorkerPool(n_workers) as pool:
        return pool.map(fn, items)
