"""Empirical probing autotuner tests."""

import numpy as np
import pytest

from repro.core import AutoTuner
from repro.data.synthetic import uniform_rows_matrix
from repro.formats import FORMAT_NAMES, from_dense


@pytest.fixture
def tuner() -> AutoTuner:
    return AutoTuner(probe_rows=128, repeats=2, warmup=1, smsv_per_probe=2)


class TestProbe:
    def test_probes_all_candidates(self, tuner, small_sparse):
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows, cols, small_sparse[rows, cols], small_sparse.shape
        )
        assert sorted(r.fmt for r in results) == sorted(FORMAT_NAMES)
        # sorted fastest-first
        times = [r.median_seconds for r in results]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_candidate_subset(self, tuner, small_sparse):
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows,
            cols,
            small_sparse[rows, cols],
            small_sparse.shape,
            candidates=["CSR", "COO"],
        )
        assert sorted(r.fmt for r in results) == ["COO", "CSR"]

    def test_probe_stored_matrix_triples(self, tuner, small_sparse):
        m = from_dense(small_sparse, "CSR")
        rows, cols, values = m.to_coo()
        results = tuner.probe(
            rows, cols, values, m.shape, candidates=["CSR", "DEN"]
        )
        assert len(results) == 2

    def test_empty_matrix_rejected(self, tuner):
        e = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            tuner.probe(e, e, np.empty(0), (0, 5))

    def test_sampling_caps_rows(self, small_sparse):
        tuner = AutoTuner(probe_rows=8, repeats=1, smsv_per_probe=1)
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows, cols, small_sparse[rows, cols], small_sparse.shape,
            candidates=["CSR"],
        )
        assert results[0].probe_rows == 8

    def test_no_sampling_when_small(self, tuner, small_sparse):
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows, cols, small_sparse[rows, cols], small_sparse.shape,
            candidates=["CSR"],
        )
        assert results[0].probe_rows == small_sparse.shape[0]

    def test_deterministic_sampling(self, small_sparse):
        rows, cols = np.nonzero(small_sparse)
        vals = small_sparse[rows, cols]
        t1 = AutoTuner(probe_rows=8, seed=7, repeats=1, smsv_per_probe=1)
        t2 = AutoTuner(probe_rows=8, seed=7, repeats=1, smsv_per_probe=1)
        s1 = t1._sample(rows, cols, vals, small_sparse.shape)
        s2 = t2._sample(rows, cols, vals, small_sparse.shape)
        assert np.array_equal(s1[0], s2[0])
        assert np.array_equal(s1[1], s2[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoTuner(probe_rows=0)
        with pytest.raises(ValueError):
            AutoTuner(smsv_per_probe=0)


class TestDecisionQuality:
    def test_picks_a_fast_format_for_huge_dense_gap(self):
        # 500 uniform sparse rows: DEN does 50x the work of CSR/ELL/COO.
        rows, cols, vals, shape = uniform_rows_matrix(500, 1000, 20, seed=0)
        tuner = AutoTuner(probe_rows=None, repeats=3, smsv_per_probe=2)
        best = tuner.probe(rows, cols, vals, shape)[0].fmt
        assert best != "DIA"  # scattered columns: DIA is pathological

    def test_speedup_table_normalised_to_worst(self, tuner, small_sparse):
        rows, cols = np.nonzero(small_sparse)
        results = tuner.probe(
            rows, cols, small_sparse[rows, cols], small_sparse.shape
        )
        table = AutoTuner.speedup_table(results)
        assert min(table.values()) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in table.values())

    def test_speedup_table_empty(self):
        assert AutoTuner.speedup_table([]) == {}


class TestProbeFidelity:
    """Regressions for tiny matrices and failing candidate builds."""

    def test_tiny_matrix_clamps_probe_count(self):
        # m=2 < smsv_per_probe: the probe must time 2 distinct rows and
        # divide by 2, not time a repeated row and divide by 4 (which
        # under-reported per-SMSV cost on tiny matrices).
        rows, cols, vals, shape = uniform_rows_matrix(2, 8, 3, seed=1)
        tuner = AutoTuner(repeats=1, smsv_per_probe=4)
        results = tuner.probe(rows, cols, vals, shape, candidates=["CSR"])
        assert results[0].probe_rows == 2
        assert results[0].median_seconds > 0.0

    def test_failing_build_forfeits_not_aborts(self, monkeypatch, tuner):
        import repro.core.autotune as autotune_mod

        class Exploding:
            @classmethod
            def from_coo(cls, *a, **k):
                raise RuntimeError("cannot represent this matrix")

        real = autotune_mod.format_class

        def patched(name):
            return Exploding if name == "ELL" else real(name)

        monkeypatch.setattr(autotune_mod, "format_class", patched)
        rows, cols, vals, shape = uniform_rows_matrix(16, 8, 3, seed=2)
        results = tuner.probe(
            rows, cols, vals, shape, candidates=["CSR", "ELL"]
        )
        # ELL lost by forfeit; the rest of the race still ran.
        assert [r.fmt for r in results] == ["CSR"]

    def test_all_candidates_failing_raises(self, monkeypatch, tuner):
        import repro.core.autotune as autotune_mod

        class Exploding:
            @classmethod
            def from_coo(cls, *a, **k):
                raise RuntimeError("boom")

        monkeypatch.setattr(
            autotune_mod, "format_class", lambda name: Exploding
        )
        rows, cols, vals, shape = uniform_rows_matrix(16, 8, 3, seed=2)
        with pytest.raises(ValueError, match="failed to build"):
            tuner.probe(rows, cols, vals, shape, candidates=["CSR", "ELL"])
