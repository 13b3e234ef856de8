"""Percentile and sample-count helpers, and the self-time arithmetic."""

import statistics

import pytest

from bench.compare import verdict
from bench.stats import (
    highest_supported,
    latency_summary,
    percentile,
    quartiles,
    samples_beyond,
)
from bench.trace import SpanRecorder, covered


def test_percentile_is_an_observed_nearest_rank_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 41) == 3.0  # ceil(0.41 * 5) = 3rd smallest
    assert percentile(list(range(1, 101)), 99) == 99


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_and_highest_supported_tail():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert highest_supported(1000) == 99.0
    assert highest_supported(10_000) == 99.9
    assert highest_supported(200) == 95.0
    assert highest_supported(50) is None


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == statistics.quantiles(values, n=4)
    assert quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_latency_summary_states_sample_count():
    s = latency_summary([0.001 * i for i in range(1, 1001)])
    assert s["n"] == 1000
    assert s["p50_ms"] == pytest.approx(500.0)
    assert s["tail_pct"] == 99.0
    assert s["tail_ms"] == pytest.approx(990.0)
    assert latency_summary([]) == {"n": 0}


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 20.0)]) == 2.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    root = rec.add("request", 0.0, 10.0, rid=1)
    a = rec.add("a", 0.0, 4.0, parent=root, rid=1)
    rec.add("b", 3.0, 6.0, parent=root, rid=1)
    rec.add("a.inner", 1.0, 2.0, parent=a, rid=1)
    selfs = rec.self_times()
    assert selfs[root] == pytest.approx(4.0)  # 10 - |[0, 6]|
    assert selfs[a] == pytest.approx(3.0)
    cov = rec.coverage(["request"])
    assert cov == {"checked": 1, "min_share": pytest.approx(0.6)}


def test_layer_table_shares_sum_to_root_time(tmp_path):
    rec = SpanRecorder()
    for rid in range(3):
        root = rec.add("request", 0.0, 2.0, rid=rid)
        rec.add("wait", 0.0, 1.5, parent=root, rid=rid)
        rec.add("work", 1.5, 2.0, parent=root, rid=rid)
    rows = {r["name"]: r for r in rec.layer_table()}
    assert sum(r["share_pct"] for r in rows.values()) == pytest.approx(100.0)
    assert rows["wait"]["self_p50_ms"] == pytest.approx(1500.0)
    assert rows["request"]["self_total_s"] == pytest.approx(0.0)
    rec.write(tmp_path / "t.jsonl", tmp_path / "t.chrome.json")
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 9


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    assert verdict(parent, [x * 1.3 for x in parent], 0.25, True)[1] == "regression"
    assert verdict(parent, [x * 1.05 for x in parent], 0.25, True)[1] == "same"
    assert verdict(parent, [x * 0.8 for x in parent], 0.25, True)[1] == "gain"
    # higher-is-better metrics flip the sign
    worse, v = verdict(parent, [x * 0.7 for x in parent], 0.25, False)
    assert v == "regression" and worse == pytest.approx(0.3)
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.3 for x in noisy], 0.25, True)[1] == "unresolved"
    assert verdict(noisy, [1.0] * 10, 0.25, True)[1] == "gain"
