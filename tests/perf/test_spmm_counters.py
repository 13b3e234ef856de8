"""SpMM counter fields and the ``bench smsv`` suite."""

import numpy as np

from repro.formats import from_dense
from repro.perf import OpCounter
from repro.perf.bench_smsv import HEADLINE_CRITERION


class TestSpmmCounterFields:
    def test_add_spmm_accumulates(self):
        c = OpCounter()
        c.add_spmm(4)
        c.add_spmm(2)
        assert c.spmm_calls == 2
        assert c.spmm_columns == 6

    def test_reset_clears_spmm(self):
        c = OpCounter()
        c.add_spmm(3)
        c.reset()
        assert c.spmm_calls == 0
        assert c.spmm_columns == 0

    def test_snapshot_copies_spmm(self):
        c = OpCounter()
        c.add_spmm(5)
        snap = c.snapshot()
        c.add_spmm(1)
        assert snap.spmm_calls == 1
        assert snap.spmm_columns == 5

    def test_merge_folds_spmm(self):
        a, b = OpCounter(), OpCounter()
        a.add_spmm(2)
        b.add_spmm(3)
        a.merge(b)
        assert a.spmm_calls == 2
        assert a.spmm_columns == 5

    def test_single_vector_kernels_do_not_count(self, small_sparse, rng):
        m = from_dense(small_sparse, "CSR")
        c = OpCounter()
        m.matvec(rng.standard_normal(30), c)
        assert c.spmm_calls == 0


class TestBenchHarness:
    def test_quick_suite_payload_shape(self, quick_record):
        rec = quick_record("smsv")
        assert rec["quick"] is True
        measured = rec["measured"]
        assert measured["trajectory"], "trajectory records missing"
        assert measured["dual_row"], "dual-row records missing"
        assert measured["dual_row_speedup"] > 0
        assert rec["modelled"] == {}
        (gate,) = rec["gates"]
        assert gate["name"] == "dual_row_speedup"
        assert gate["threshold"] == HEADLINE_CRITERION
        # A wall-clock ratio on a shared host: recorded, never failing
        # the run.
        assert gate["enforced"] is False
        assert rec["pass"] is True
        # every record carries its config and a finite speedup
        for r in measured["trajectory"]:
            assert r["fmt"] and r["k"] >= 1
            assert np.isfinite(r["speedup"])
        for r in measured["dual_row"]:
            assert r["kernel"] in ("gaussian", "linear")
            assert np.isfinite(r["speedup"])
