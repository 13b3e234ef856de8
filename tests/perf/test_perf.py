"""Counters, timers and bandwidth estimation."""

import time

import pytest

from repro.perf import (
    BandwidthEstimator,
    BenchmarkResult,
    OpCounter,
    Timer,
    benchmark,
    counting,
    effective_bandwidth,
    global_counter,
)
from repro.perf.timers import paired_ratio, rank_by_median


class TestOpCounter:
    def test_accumulation(self):
        c = OpCounter()
        c.add_flops(10)
        c.add_read(100)
        c.add_write(50)
        c.add_vector_ops(3)
        assert c.flops == 10
        assert c.bytes_total == 150
        assert c.vector_ops == 3

    def test_reset(self):
        c = OpCounter()
        c.add_flops(5)
        c.reset()
        assert c.flops == 0 and c.bytes_total == 0

    def test_snapshot_is_independent(self):
        c = OpCounter()
        c.add_flops(5)
        s = c.snapshot()
        c.add_flops(5)
        assert s.flops == 5 and c.flops == 10

    def test_merge(self):
        a, b = OpCounter(), OpCounter()
        a.add_flops(3)
        b.add_flops(4)
        b.add_read(8)
        a.merge(b)
        assert a.flops == 7 and a.bytes_read == 8

    def test_arithmetic_intensity(self):
        c = OpCounter()
        assert c.arithmetic_intensity() == 0.0
        c.add_flops(16)
        c.add_read(8)
        assert c.arithmetic_intensity() == pytest.approx(2.0)

    def test_thread_safety(self):
        import threading

        c = OpCounter()

        def work():
            for _ in range(1000):
                c.add_flops(1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.flops == 8000

    def test_counting_context(self):
        with counting() as c:
            c.add_flops(3)
        assert c.flops == 3

    def test_global_counter_is_singleton(self):
        assert global_counter() is global_counter()


class TestOpCounterFieldCoverage:
    """Exhaustive over ``dataclasses.fields``: adding a counter field
    without snapshot/merge/reset/as_dict support fails here, not in a
    downstream report that silently drops the new column.
    """

    def _filled(self, base=1):
        c = OpCounter()
        for i, name in enumerate(OpCounter.field_names()):
            setattr(c, name, base + i)
        return c

    def test_field_names_cover_every_public_field(self):
        import dataclasses

        public = [
            f.name
            for f in dataclasses.fields(OpCounter)
            if not f.name.startswith("_")
        ]
        assert list(OpCounter.field_names()) == public
        assert public  # the dataclass actually has counter fields

    def test_max_fields_is_a_subset_of_field_names(self):
        assert OpCounter._MAX_FIELDS <= frozenset(
            OpCounter.field_names()
        )

    def test_snapshot_copies_every_field(self):
        c = self._filled()
        s = c.snapshot()
        for name in OpCounter.field_names():
            assert getattr(s, name) == getattr(c, name)
        c.add_flops(1)
        assert s.flops != c.flops  # snapshot is detached

    def test_reset_zeroes_every_field(self):
        c = self._filled()
        c.reset()
        for name in OpCounter.field_names():
            assert getattr(c, name) == 0

    def test_as_dict_contains_every_field(self):
        c = self._filled()
        d = c.as_dict()
        assert set(d) == set(OpCounter.field_names())
        for name in OpCounter.field_names():
            assert d[name] == getattr(c, name)

    def test_merge_folds_every_field(self):
        a, b = self._filled(1), self._filled(10)
        expect = {
            name: (
                max(getattr(a, name), getattr(b, name))
                if name in OpCounter._MAX_FIELDS
                else getattr(a, name) + getattr(b, name)
            )
            for name in OpCounter.field_names()
        }
        a.merge(b)
        for name, want in expect.items():
            assert getattr(a, name) == want, name

    def test_parallel_work_max_merges_by_max(self):
        a, b = OpCounter(), OpCounter()
        a.add_parallel_blocks([5, 3])
        b.add_parallel_blocks([4, 4])
        a.merge(b)
        assert a.parallel_blocks == 4
        assert a.parallel_work_total == 16
        assert a.parallel_work_max == 5  # a max, not 5 + 4


class TestTimer:
    def test_basic_timing(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_accumulates(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            pass
        assert t.elapsed >= first

    def test_double_start_rejected(self):
        t = Timer()
        t.start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0


class TestBenchmark:
    def test_returns_samples(self):
        r = benchmark(lambda: sum(range(100)), repeats=4)
        assert len(r.samples) == 4
        assert r.median > 0
        assert r.best <= r.median <= max(r.samples)

    def test_min_time_extends_repeats(self):
        r = benchmark(lambda: None, repeats=1, min_time=0.01)
        assert len(r.samples) > 1

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            benchmark(lambda: None, repeats=0)

    def test_stats_on_known_samples(self):
        r = BenchmarkResult(samples=[3.0, 1.0, 2.0])
        assert r.median == 2.0
        assert r.best == 1.0
        assert r.mean == pytest.approx(2.0)
        assert r.stddev == pytest.approx(1.0)

    def test_even_sample_median(self):
        r = BenchmarkResult(samples=[1.0, 2.0, 3.0, 4.0])
        assert r.median == 2.5

    def test_rank_by_median(self):
        slow = lambda: time.sleep(0.002)
        fast = lambda: None
        order = rank_by_median([slow, fast], repeats=2)
        assert order[0] == 1

    def test_paired_ratio_interleaves_and_reports_medians(self):
        calls = []

        def slow():
            calls.append("s")
            time.sleep(0.002)

        def fast():
            calls.append("f")

        ratio, t_slow, t_fast = paired_ratio(
            slow, fast, samples=3, batch_seconds=0.001
        )
        # Two warm-up calls each, one calibration call (one slow call
        # already fills the batch, so one call per side per sample),
        # then strictly alternating samples.
        assert calls == ["s", "s", "f", "f", "s"] + ["s", "f"] * 3
        assert t_slow >= 0.002 > t_fast
        assert ratio > 1.0


class TestBandwidth:
    def test_effective_bandwidth(self):
        assert effective_bandwidth(1000, 1.0) == 1000.0
        assert effective_bandwidth(1000, 0.0) == 0.0

    def test_estimator(self):
        e = BandwidthEstimator()
        c = OpCounter()
        c.add_read(500)
        c.add_write(500)
        e.record(c, 0.001)
        e.record_raw(1000, 0.001)
        assert e.samples == 2
        assert e.bytes_per_s == pytest.approx(1e6)
        assert e.gb_per_s == pytest.approx(1e-3)
