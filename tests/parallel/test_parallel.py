"""Partitioning and thread-pool tests."""

import threading

import numpy as np
import pytest

from repro.parallel import WorkerPool, parallel_map, row_blocks
from repro.parallel.pool import _worker_cap, default_workers


class TestRowBlocks:
    def test_even_split(self):
        assert row_blocks(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        blocks = row_blocks(10, 3)
        assert blocks == [(0, 4), (4, 7), (7, 10)]

    def test_covers_everything_once(self):
        for n, k in [(1, 1), (7, 3), (100, 7), (5, 10)]:
            blocks = row_blocks(n, k)
            covered = [i for s, e in blocks for i in range(s, e)]
            assert covered == list(range(n))

    def test_more_blocks_than_rows(self):
        blocks = row_blocks(3, 10)
        assert len(blocks) == 3  # empties omitted

    def test_zero_rows(self):
        assert row_blocks(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            row_blocks(-1, 2)
        with pytest.raises(ValueError):
            row_blocks(5, 0)


class TestWorkerPool:
    def test_map_results_ordered(self):
        with WorkerPool(4) as pool:
            assert pool.map(lambda v: v * 2, list(range(10))) == [
                v * 2 for v in range(10)
            ]

    def test_serial_fast_path(self):
        pool = WorkerPool(1)
        assert pool._executor is None
        assert pool.map(lambda v: v + 1, [1, 2]) == [2, 3]
        assert pool._executor is None  # never created

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_parallel_writes_disjoint_slices(self):
        # The usage pattern the format kernels rely on.
        out = np.zeros(100)

        def fill(block):
            s, e = block
            out[s:e] = np.arange(s, e)

        parallel_map(fill, row_blocks(100, 8), n_workers=8)
        assert np.array_equal(out, np.arange(100.0))


class TestCallerRunsItems:
    """``map`` runs the first item on the calling thread and takes back
    every item no pool thread has started."""

    def test_first_item_runs_on_the_caller(self):
        with WorkerPool(2) as pool:
            idents = pool.map(lambda _: threading.get_ident(), [0, 1])
        assert idents[0] == threading.get_ident()

    def test_unstarted_items_run_inline(self):
        # n_workers=2 is the caller plus one pool thread.  Item 1 holds
        # that thread until item 3 has run, so items 2 and 3 can only
        # run on the caller, which must not wait on item 1 first.
        started1, done3 = threading.Event(), threading.Event()

        def item(i):
            if i == 0:
                started1.wait(timeout=30)
            elif i == 1:
                started1.set()
                return threading.get_ident(), done3.wait(timeout=30)
            elif i == 3:
                done3.set()
            return threading.get_ident(), True

        with WorkerPool(2) as pool:
            out = pool.map(item, [0, 1, 2, 3])
        caller = threading.get_ident()
        assert [ident == caller for ident, _ in out] == [
            True, False, True, True
        ]
        assert all(ok for _, ok in out)

    def test_every_item_runs_exactly_once_under_contention(self):
        # Cancel-or-wait must neither drop nor double-run an item: the
        # caller takes back only what no thread started.  More workers
        # than cores, several concurrent callers, a short switch
        # interval to interleave the take-backs with thread pickup.
        import collections
        import sys

        runs = collections.Counter()
        lock = threading.Lock()

        def item(i):
            with lock:
                runs[i] += 1
            return i

        pool = WorkerPool(8)
        failures = []

        def caller(base):
            for rep in range(50):
                items = list(range(base + 100 * rep, base + 100 * rep + 12))
                if pool.map(item, items) != items:
                    failures.append(base)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(10_000 * t,))
                for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
            pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert len(runs) == 4 * 50 * 12
        assert set(runs.values()) == {1}

    def test_item_error_propagates(self):
        def item(i):
            if i == 2:
                raise KeyError(i)
            return i

        with WorkerPool(2) as pool:
            with pytest.raises(KeyError):
                pool.map(item, [0, 1, 2, 3])
            assert pool.map(item, [0, 1]) == [0, 1]  # still usable

    def test_nested_map_on_a_full_pool_finishes(self):
        # Each outer item holds a pool thread (or the caller) while it
        # maps again; the inner items must not wait for a free thread.
        pool = WorkerPool(2)
        out = []

        def outer(i):
            return pool.map(lambda j: 10 * i + j, [0, 1])

        def run():
            out.append(pool.map(outer, [0, 1, 2]))

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=60)
        pool.shutdown()
        assert not t.is_alive(), "nested map deadlocked"
        assert out == [[[0, 1], [10, 11], [20, 21]]]

    def test_nested_parallel_map_finishes(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        pool = WorkerPool(2)
        monkeypatch.setattr(pool_mod, "_shared_pool", pool)
        out = []

        def run():
            out.append(
                parallel_map(
                    lambda i: parallel_map(lambda j: i + j, [0, 1, 2]),
                    [0, 10],
                )
            )

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=60)
        pool.shutdown()
        assert not t.is_alive(), "nested parallel_map deadlocked"
        assert out == [[[0, 1, 2], [10, 11, 12]]]


class TestDefaultWorkers:
    def test_unset_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert default_workers() >= 1

    def test_blank_value_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "   ")
        assert default_workers() >= 1

    def test_valid_value_used_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", " 4 ")
        assert default_workers() == 4

    def test_unparsable_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            n = default_workers()
        assert n >= 1

    def test_below_one_warns_and_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "-3")
        with pytest.warns(RuntimeWarning, match="below 1"):
            assert default_workers() == 1

    def test_absurd_value_warns_and_clamps_to_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1000000000")
        with pytest.warns(RuntimeWarning, match="sanity cap"):
            n = default_workers()
        assert n == _worker_cap()
        assert n < 10_000  # thread stacks would OOM long before this

    def test_clamped_value_still_builds_a_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        with pytest.warns(RuntimeWarning):
            pool = WorkerPool()
        assert pool.n_workers == 1
