"""ServeMetrics: percentile summaries, counters, snapshot payload."""

import pytest

from repro.serve import ServeMetrics, summarise_latencies


class TestLatencySummary:
    def test_empty(self):
        s = summarise_latencies([])
        assert s.count == 0 and s.p99 == 0.0

    def test_percentiles_are_observed_samples(self):
        samples = [i / 1000.0 for i in range(1, 101)]
        s = summarise_latencies(samples)
        assert s.count == 100
        assert s.p50 in samples and s.p95 in samples and s.p99 in samples
        assert s.p50 <= s.p95 <= s.p99 <= s.max

    def test_as_dict_is_in_milliseconds(self):
        s = summarise_latencies([0.002])
        assert s.as_dict()["p50_ms"] == pytest.approx(2.0)


class TestServeMetrics:
    def test_record_batch_accumulates(self):
        m = ServeMetrics()
        m.record_batch(4, 1.0, 1.01, queued_at=[0.99, 0.995, 1.0, 1.0])
        m.record_batch(1, 2.0, 2.005)
        assert m.served == 5
        assert m.batches == 2
        assert m.mean_batch == pytest.approx(2.5)
        assert m.batch_histogram() == {1: 1, 4: 1}
        assert len(m.latencies) == 5

    def test_mean_batch_ignores_degraded_single_answers(self):
        # Degraded answers are served but never formed a batch: the
        # mean width is columns per batch, not served per batch.
        m = ServeMetrics()
        m.record_batch(8, 1.0, 1.01)
        m.record_batch(3, 2.0, 2.01)
        for t in (3.0, 3.1, 3.2, 3.3):
            m.record_single(t, t + 0.001)
        m.record_degraded(4)
        assert m.served == 15
        assert m.batches == 2
        assert m.mean_batch == pytest.approx(5.5)
        assert m.snapshot()["mean_batch"] == pytest.approx(5.5)

    def test_queued_at_latency_includes_coalescing_wait(self):
        m = ServeMetrics()
        m.record_batch(1, 1.0, 1.01, queued_at=[0.5])
        assert m.latencies[0] == pytest.approx(0.51)

    def test_single_path_skips_batch_histogram(self):
        m = ServeMetrics()
        m.record_single(1.0, 1.001)
        assert m.served == 1
        assert m.batches == 0
        assert m.batch_histogram() == {}

    def test_throughput_uses_active_window(self):
        m = ServeMetrics()
        m.record_batch(10, 0.0, 1.0)
        m.record_batch(10, 1.0, 2.0)
        assert m.throughput == pytest.approx(10.0)

    def test_empty_throughput_is_zero(self):
        assert ServeMetrics().throughput == 0.0

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="batch size"):
            ServeMetrics().record_batch(0, 0.0, 1.0)

    def test_snapshot_payload(self):
        m = ServeMetrics()
        m.record_batch(2, 0.0, 0.5)
        m.record_rejected(3)
        m.record_expired()
        m.record_degraded(2)
        m.record_reschedule()
        snap = m.snapshot()
        assert snap["served"] == 2
        assert snap["rejected"] == 3
        assert snap["expired"] == 1
        assert snap["degraded"] == 2
        assert snap["reschedules"] == 1
        assert snap["batch_histogram"] == {"2": 1}
        assert snap["latency"]["count"] == 2
        assert set(snap["ops"]) == {
            "flops", "bytes_total", "spmm_calls", "spmm_columns",
        }
