"""repro bench sell: headline harness, trajectory sweep, and the SMO
permutation-transparency check that used to ride along as its gate."""

import json

import numpy as np
import pytest

from repro.data.synthetic import attach_labels, powerlaw_rows_matrix
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import RCSRMatrix
from repro.perf.bench_sell import (
    FIXED_BASELINES,
    HEADLINE_CRITERION,
    SPARSE_CANDIDATES,
    run_headline,
    run_trajectory,
)
from repro.perf.harness import render, write_record
from repro.svm.kernels import make_kernel
from repro.svm.smo import smo_train


@pytest.fixture(scope="module")
def tiny_suite():
    return [
        (
            "tiny-powerlaw",
            powerlaw_rows_matrix(
                256, 128, alpha=1.6, min_nnz=8, max_nnz=96, seed=17
            ),
        )
    ]


class TestHeadline:
    def test_records_are_complete(self, tiny_suite):
        recs = run_headline(tiny_suite, samples=2)
        assert len(recs) == 1
        r = recs[0]
        assert r["picked_fmt"] in SPARSE_CANDIDATES
        assert r["best_fixed_fmt"] in FIXED_BASELINES
        assert set(r["fixed_seconds"]) == set(FIXED_BASELINES)
        assert r["modelled_speedup"] == pytest.approx(
            r["best_fixed_seconds"] / r["picked_seconds"]
        )
        assert r["picked_seconds"] > 0
        assert r["wallclock_ratio"] > 0

    def test_deterministic_modelled_side(self, tiny_suite):
        a = run_headline(tiny_suite, samples=1)[0]
        b = run_headline(tiny_suite, samples=1)[0]
        # wall-clock fields jitter; the modelled verdict must not
        for key in (
            "picked_fmt",
            "picked_seconds",
            "best_fixed_fmt",
            "modelled_speedup",
        ):
            assert a[key] == b[key]


class TestTrajectory:
    def test_sweep_covers_grid(self, tiny_suite):
        _, triples = tiny_suite[0]
        recs = run_trajectory(
            triples, sigmas=(None, 16), chunks=(4, 8)
        )
        assert len(recs) == 4
        assert {(r["chunk"], r["sigma"]) for r in recs} == {
            (4, None),
            (4, 16),
            (8, None),
            (8, 16),
        }

    def test_sorted_padding_never_worse(self, tiny_suite):
        _, triples = tiny_suite[0]
        for r in run_trajectory(triples, sigmas=(None, 8), chunks=(8,)):
            assert (
                r["padding_ratio_sorted"]
                <= r["padding_ratio_natural"] + 1e-12
            )
            assert r["modelled_seconds"] > 0


class TestSmoGate:
    def test_bitwise_gate_passes(self):
        """SMO on the permuted layout (RCSR) against the CSR reference:
        every trajectory-determining quantity is bitwise identical, so
        the reordering pipeline is permutation-transparent end to end,
        not just kernel by kernel."""
        rows, cols, vals, shape = powerlaw_rows_matrix(
            256, 128, alpha=1.7, min_nnz=4, max_nnz=64, seed=21
        )
        y = attach_labels((rows, cols, vals, shape), seed=3)
        kernel = make_kernel("gaussian", gamma=0.5)
        X_csr = CSRMatrix.from_coo(rows, cols, vals, shape)
        X_rcsr = RCSRMatrix.from_coo(rows, cols, vals, shape)
        # Cut mid-trajectory, and run to convergence (346 iterations).
        for max_iter in (120, 2000):
            ref = smo_train(X_csr, y, kernel, C=1.0, max_iter=max_iter)
            got = smo_train(X_rcsr, y, kernel, C=1.0, max_iter=max_iter)
            assert ref.iterations == got.iterations
            assert np.array_equal(ref.alpha, got.alpha)
            assert ref.b == got.b
            assert np.array_equal(ref.f, got.f)
            assert np.array_equal(
                np.nonzero(ref.alpha > 1e-12)[0],
                np.nonzero(got.alpha > 1e-12)[0],
            )


class TestSuitePlumbing:
    def test_quick_suite_report_roundtrip(self, tmp_path, quick_record):
        rec = quick_record("sell")
        path = tmp_path / "BENCH_sell.json"
        write_record(rec, path)
        loaded = json.loads(path.read_text())
        (gate,) = loaded["gates"]
        assert gate["name"] == "modelled_speedup"
        assert gate["threshold"] == HEADLINE_CRITERION
        assert gate["enforced"] is True
        assert gate["value"] == loaded["modelled"]["modelled_speedup"]
        assert loaded["modelled"]["trajectory"]
        assert loaded["measured"]["wallclock_ratio"] > 0
        (pick,) = loaded["modelled"]["picks"]
        assert pick["picked_fmt"] in SPARSE_CANDIDATES
        assert "wallclock_ratio" not in pick

    def test_summary_renders(self, quick_record):
        text = render(quick_record("sell"))
        assert "modelled_speedup" in text
        assert "wallclock_ratio" in text
