"""Tuning-cache wiring and determinism guards.

Two contracts under test:

1. **The layout is the scheduler's decision** — no cache entry picks
   a storage format: an older file's ``format`` entry, a cache that
   ``repro tune`` warmed and a kill-switch run all decide alike, at
   training time and at the serving warm-up.
2. **Value preservation** — every knob the cache feeds (SELL slice
   height, reorder window, SVM row-cache budget) only moves *time*.
   Warm-cache outputs must be bitwise identical to kill-switch
   outputs.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.core.autotune import AutoTuner
from repro.core.cost_model import ANALYTIC_FORMATS
from repro.core.scheduler import LayoutScheduler
from repro.data import load_dataset
from repro.data.synthetic import uniform_rows_matrix
from repro.features.extract import profile_from_coo
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.reorder import RSELLMatrix
from repro.formats.sell import DEFAULT_CHUNK, SELLMatrix
from repro.obs.audit import audit_log
from repro.obs.report import REPORT_DATASETS
from repro.parallel.pool import default_workers
from repro.serve.rescheduler import FormatRescheduler
from repro.svm.kernels import LinearKernel
from repro.svm.smo import smo_train
from repro.tune.cache import (
    SCHEMA_VERSION,
    entry_key,
    reset_tune_cache,
    tune_cache,
    tuned_for_lengths,
    tuned_value,
)
from repro.tune.fingerprint import profile_bucket
from repro.tune.search import ProbeContext, tune_datasets
from repro.tune.space import KNOB_FAMILIES, knob_for, row_cache_default_mb


@pytest.fixture
def cache_path(tmp_path, monkeypatch):
    path = tmp_path / "tune.json"
    monkeypatch.setenv("REPRO_TUNE_CACHE", str(path))
    reset_tune_cache()
    audit_log().clear()
    yield path
    audit_log().clear()
    reset_tune_cache()


def _coo(seed=7, m=200, n=80, per_row=6):
    return uniform_rows_matrix(m, n, per_row, seed=seed)


def _warm_format(profile, fmt="ell", batch_k=1):
    """Write the ``format`` entry older versions of ``repro tune``
    persisted straight into the file (``put`` refuses the family)."""
    cache = tune_cache()
    doc = {
        "schema": SCHEMA_VERSION,
        "fingerprint": cache.fingerprint,
        "fingerprint_hash": cache.fp_hash,
        "entries": {
            entry_key(cache.fp_hash, profile_bucket(profile), "format"): {
                "params": {"fmt": fmt, "batch_k": batch_k}
            }
        },
    }
    cache.path.write_text(json.dumps(doc))
    reset_tune_cache()


class TestSchedulerWiring:
    def test_cold_key_stays_analytic(self, cache_path):
        rows, cols, vals, shape = _coo()
        d = LayoutScheduler("cost").decide_from_coo(rows, cols, vals, shape)
        assert d.source == "analytic"
        assert audit_log().records()[-1].decision_source == "analytic"

    def test_tuned_fmt_outside_candidates_is_ignored(self, cache_path):
        rows, cols, vals, shape = _coo()
        _warm_format(profile_from_coo(rows, cols, shape), fmt="ell")
        sched = LayoutScheduler("cost", candidates=("CSR",))
        d = sched.decide_from_coo(rows, cols, vals, shape)
        assert d.fmt == "CSR"
        assert d.source == "analytic"

    def test_batch_k_mismatch_is_a_cold_key(self, cache_path):
        rows, cols, vals, shape = _coo()
        _warm_format(profile_from_coo(rows, cols, shape), batch_k=8)
        d = LayoutScheduler("cost").decide_from_coo(rows, cols, vals, shape)
        assert d.source == "analytic"  # scheduler decides at batch_k=1

    def test_kill_switch_restores_analytic_path(
        self, cache_path, monkeypatch
    ):
        rows, cols, vals, shape = _coo()
        _warm_format(profile_from_coo(rows, cols, shape), fmt="ell")
        monkeypatch.setenv("REPRO_TUNE", "0")
        d = LayoutScheduler("cost").decide_from_coo(rows, cols, vals, shape)
        assert d.source == "analytic"

    def test_warm_decisions_identical_across_schedulers(self, cache_path):
        rows, cols, vals, shape = _coo()
        _warm_format(profile_from_coo(rows, cols, shape), fmt="sell")

        def decide():
            return LayoutScheduler(
                "cost", candidates=ANALYTIC_FORMATS
            ).decide_from_coo(rows, cols, vals, shape)

        a, b = decide(), decide()
        assert (a.fmt, a.reason) == (b.fmt, b.reason)
        assert a.source == b.source == "analytic"

    def test_default_candidate_universe_excludes_sell(self, cache_path):
        # A warm SELL key must not leak into a scheduler whose default
        # candidate universe is the base FORMAT_NAMES family.
        rows, cols, vals, shape = _coo()
        _warm_format(profile_from_coo(rows, cols, shape), fmt="sell")
        d = LayoutScheduler("cost").decide_from_coo(rows, cols, vals, shape)
        assert d.source == "analytic"
        assert d.fmt != "SELL"


class TestTuneGate:
    """The measured search end to end: tune the five report datasets
    into a fresh cache, then decide from it."""

    def test_search_then_warm_and_cold_decisions(
        self, cache_path, monkeypatch
    ):
        datasets = [
            (name, *build(256, 128, 0)) for name, build in REPORT_DATASETS
        ]
        tuned = tune_datasets(
            datasets,
            ("sell_chunk", "sigma", "row_cache_mb"),
            cache=tune_cache(),
            base_repeats=1,
            max_repeats=2,
            budget=64,
        )
        # Incumbent protection: no persisted winner is slower than the
        # analytic default on its own final head-to-head.
        for name, d in tuned.items():
            for family, r in d["families"].items():
                assert r.best_seconds <= r.default_seconds, (name, family)

        def decide_all():
            # Fresh scheduler, empty DecisionCache: the warm knob
            # entries may move the model's SELL prices, never the
            # source of a decision.
            sched = LayoutScheduler("cost", candidates=ANALYTIC_FORMATS)
            return [
                (d.fmt, d.source)
                for d in (
                    sched.decide_from_coo(rows, cols, vals, shape)
                    for _, rows, cols, vals, shape in datasets
                )
            ]

        first = decide_all()
        assert decide_all() == first
        assert {src for _, src in first} == {"analytic"}

        # A bucket the search never visited (m an order of magnitude
        # below every suite dataset) decides analytically, and picks
        # what a tuning-disabled scheduler picks.
        coo = uniform_rows_matrix(64, 32, 4, seed=0)
        cold = LayoutScheduler(
            "cost", candidates=ANALYTIC_FORMATS
        ).decide_from_coo(*coo)
        monkeypatch.setenv("REPRO_TUNE", "0")
        disabled = LayoutScheduler(
            "cost", candidates=ANALYTIC_FORMATS
        ).decide_from_coo(*coo)
        assert cold.source == "analytic"
        assert cold.fmt == disabled.fmt

    def test_entries_are_keyed_on_the_full_dataset(self, cache_path):
        # The search measures on a 2,048-row sample of a 4,096-row
        # matrix, but the entry answers the matrix itself: the bucket
        # a later build of the full dataset looks up.
        rows, cols, vals, shape = uniform_rows_matrix(4096, 64, 4, seed=3)
        tuned = tune_datasets(
            [("big", rows, cols, vals, shape)],
            ("sell_chunk",),
            cache=tune_cache(),
            base_repeats=1,
            max_repeats=2,
            budget=8,
        )
        best = tuned["big"]["families"]["sell_chunk"].best["chunk"]
        lengths = np.bincount(rows, minlength=shape[0])
        assert tuned_for_lengths("sell_chunk", lengths, shape) == best
        assert tuned["big"]["bucket"].endswith("-m4")
        assert SELLMatrix.from_coo(rows, cols, vals, shape).chunk == best
        ctx = ProbeContext(rows, cols, vals, shape)
        assert (ctx.shape[0], ctx.profile.m) == (2048, 4096)


class TestKillSwitchDecisions:
    """A cache that ``repro tune`` warmed picks no layout: ``rules`` and
    ``cost`` decide exactly as they do with ``REPRO_TUNE=0``."""

    def test_warm_cache_decides_like_the_kill_switch(
        self, cache_path, monkeypatch
    ):
        tref = load_dataset("trefethen", seed=0)
        tune_datasets(
            [("trefethen", tref.rows, tref.cols, tref.values, tref.shape)],
            KNOB_FAMILIES,
            cache=tune_cache(),
            base_repeats=1,
            max_repeats=2,
            budget=16,
        )
        # Thousands of diagonals, yet the same five-axis bucket as the
        # 12-diagonal trefethen clone: DIA would be a disaster here.
        noise = uniform_rows_matrix(2000, 2000, 11, seed=1)
        assert profile_bucket(
            profile_from_coo(noise[0], noise[1], noise[3])
        ) == profile_bucket(tref.profile)
        datasets = [build(1024, 512, 0) for _, build in REPORT_DATASETS]
        datasets.append(noise)

        def decisions():
            return [
                (d.fmt, d.reason)
                for strategy in ("rules", "cost")
                for d in (
                    LayoutScheduler(strategy).decide_from_coo(*coo)
                    for coo in datasets
                )
            ]

        warm = decisions()
        hybrid = LayoutScheduler(
            "hybrid", tuner=AutoTuner(repeats=1, smsv_per_probe=2)
        ).decide_from_coo(*noise)
        monkeypatch.setenv("REPRO_TUNE", "0")
        assert decisions() == warm
        assert hybrid.fmt != "DIA"


class TestServeWarmup:
    def test_warm_fmt_outside_serve_family_is_rejected(self, cache_path):
        # DEN is a legal scheduler format but not bitwise-exact under
        # serving swaps; warm-up must fall back to the analytic rank.
        rows, cols, vals, shape = _coo()
        profile = profile_from_coo(rows, cols, shape)
        _warm_format(profile, fmt="den", batch_k=1)
        resched = FormatRescheduler()
        matrix = CSRMatrix.from_coo(rows, cols, vals, shape)
        fmt = resched.initial_format(matrix)
        assert fmt != "DEN"
        assert fmt in resched.scheduler.candidates
        assert audit_log().records(source="serve") == []


class TestDeterminismGuards:
    """Warm-cache outputs are bitwise equal to kill-switch outputs."""

    def test_sell_chunk_only_moves_time(self, cache_path):
        rows, cols, vals, shape = _coo(seed=11)
        tune_cache().put(
            "sell_chunk",
            {"chunk": 32},
            profile=profile_from_coo(rows, cols, shape),
        )
        warm = SELLMatrix.from_coo(rows, cols, vals, shape)
        assert warm.chunk == 32  # the tuned slice height was consulted
        default = SELLMatrix.from_coo(
            rows, cols, vals, shape, chunk=DEFAULT_CHUNK
        )
        x = np.linspace(-1.0, 1.0, shape[1])
        assert np.array_equal(warm.matvec(x), default.matvec(x))

    def test_sigma_only_moves_time(self, cache_path, monkeypatch):
        rows, cols, vals, shape = _coo(seed=12)
        tune_cache().put(
            "sigma",
            {"sigma": 16},
            profile=profile_from_coo(rows, cols, shape),
        )
        warm = RSELLMatrix.from_coo(rows, cols, vals, shape)
        monkeypatch.setenv("REPRO_TUNE", "0")
        cold = RSELLMatrix.from_coo(rows, cols, vals, shape)
        x = np.linspace(-1.0, 1.0, shape[1])
        assert np.array_equal(warm.matvec(x), cold.matvec(x))

    def test_row_cache_budget_only_moves_time(
        self, cache_path, monkeypatch
    ):
        rows, cols, vals, shape = _coo(seed=14, m=40, n=12, per_row=4)
        X = CSRMatrix.from_coo(rows, cols, vals, shape)
        y = np.where(np.arange(shape[0]) % 2 == 0, 1.0, -1.0)
        tune_cache().put(
            "row_cache_mb",
            {"row_cache_mb": 1},
            profile=profile_from_coo(rows, cols, shape),
        )
        warm = smo_train(X, y, LinearKernel(), max_iter=500)
        monkeypatch.setenv("REPRO_TUNE", "0")
        cold = smo_train(X, y, LinearKernel(), max_iter=500)
        assert np.array_equal(warm.alpha, cold.alpha)
        assert warm.b == cold.b
        assert warm.iterations == cold.iterations


class TestRowCacheSizing:
    """Which budget ``smo_train`` runs when the caller sizes nothing."""

    @pytest.fixture
    def capacities(self, monkeypatch):
        import repro.svm.smo as smo

        seen = []

        class Recording(smo._RowCache):
            def __init__(self, capacity):
                super().__init__(capacity)
                seen.append(self.capacity)

        monkeypatch.setattr(smo, "_RowCache", Recording)
        return seen

    def _problem(self, fmt):
        rows, cols, vals, shape = _coo(seed=15, m=60, n=12, per_row=4)
        X = convert(CSRMatrix.from_coo(rows, cols, vals, shape), fmt)
        y = np.where(np.arange(shape[0]) % 3 == 0, 1.0, -1.0)
        return X, y, profile_from_coo(rows, cols, shape)

    @pytest.mark.parametrize("fmt", ["DEN", "DIA", "COO"])
    def test_warm_entry_reaches_formats_without_row_lengths(
        self, cache_path, capacities, monkeypatch, fmt
    ):
        X, y, profile = self._problem(fmt)
        assert not hasattr(X, "row_lengths")
        tune_cache().put("row_cache_mb", {"row_cache_mb": 0}, profile=profile)
        warm = smo_train(X, y, LinearKernel(), max_iter=500)
        monkeypatch.setenv("REPRO_TUNE", "0")
        cold = smo_train(X, y, LinearKernel(), max_iter=500)
        default_rows = (
            row_cache_default_mb(X.shape[0]) * 1024 * 1024 // (8 * X.shape[0])
        )
        assert capacities == [0, default_rows]
        assert warm.kernel_rows_cached == 0 < cold.kernel_rows_cached
        assert np.array_equal(warm.alpha, cold.alpha)
        assert warm.b == cold.b
        assert warm.iterations == cold.iterations

    def test_cold_default_is_the_tuning_incumbent(
        self, cache_path, capacities
    ):
        X, y, profile = self._problem("DEN")
        smo_train(X, y, LinearKernel(), max_iter=500)
        incumbent = knob_for("row_cache_mb").default_value(profile)
        assert capacities == [incumbent * 1024 * 1024 // (8 * X.shape[0])]

    def test_explicit_sizes_beat_a_warm_entry(self, cache_path, capacities):
        X, y, profile = self._problem("DEN")
        tune_cache().put("row_cache_mb", {"row_cache_mb": 0}, profile=profile)
        smo_train(X, y, LinearKernel(), max_iter=500, cache_rows=7)
        smo_train(X, y, LinearKernel(), max_iter=500, cache_mb=1.0)
        assert capacities == [7, 1024 * 1024 // (8 * X.shape[0])]


class TestParentCacheCompat:
    """A schema-1 file written by an older version still serves its kept
    knob entries; its ``format`` entry and the retired ``batch_k``,
    ``row_blocks`` and ``workers`` entries reach no consumer."""

    def _write_parent_file(self, path, profile, *, with_format=True):
        fp = tune_cache().fp_hash
        bucket = profile_bucket(profile)
        # Exactly what the older writer persisted, retired families
        # under both the profile bucket and the machine-wide bucket.
        entries = {
            f"{fp}|{bucket}|sell_chunk": {
                "params": {"chunk": 16},
                "median_seconds": 1.1e-05,
                "default_seconds": 1.3e-05,
                "fidelity": 12,
            },
            f"{fp}|{bucket}|sigma": {"params": {"sigma": 64}},
            f"{fp}|{bucket}|row_cache_mb": {"params": {"row_cache_mb": 1}},
            f"{fp}|{bucket}|format": {
                "params": {"fmt": "SELL", "batch_k": 1},
                "median_seconds": 2.0e-05,
            },
            f"{fp}|{bucket}|batch_k": {"params": {"batch_k": 16}},
            f"{fp}|{bucket}|row_blocks": {
                "params": {"min_rows_per_block": 4096}
            },
            f"{fp}|{bucket}|workers": {"params": {"workers": 16}},
            f"{fp}|machine|batch_k": {"params": {"batch_k": 32}},
            f"{fp}|machine|row_blocks": {
                "params": {"min_rows_per_block": 2048}
            },
            f"{fp}|machine|workers": {"params": {"workers": 16}},
        }
        if not with_format:
            del entries[f"{fp}|{bucket}|format"]
        doc = {
            "schema": 1,
            "fingerprint": {"cpu_model": "recorded-at-write-time"},
            "fingerprint_hash": fp,
            "entries": entries,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        reset_tune_cache()

    @staticmethod
    def _layouts(coo):
        """What the scheduler and the serving warm-up pick for ``coo``:
        default candidates, every analytic format, the serve family."""
        matrix = CSRMatrix.from_coo(*coo)
        return [
            (d.fmt, d.reason, d.source)
            for d in (
                LayoutScheduler("cost").decide_from_coo(*coo),
                LayoutScheduler(
                    "cost", candidates=ANALYTIC_FORMATS
                ).decide_from_coo(*coo),
            )
        ] + [FormatRescheduler().initial_format(matrix)]

    def test_parent_file_loads_and_kept_entries_answer(
        self, cache_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        coo = _coo()
        rows, cols, vals, shape = coo
        profile = profile_from_coo(rows, cols, shape)
        assert SCHEMA_VERSION == 1
        self._write_parent_file(cache_path, profile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tuned_value("sell_chunk", profile) == 16
            assert tuned_value("sigma", profile) == 64
            assert tuned_value("row_cache_mb", profile) == 1
            assert SELLMatrix.from_coo(rows, cols, vals, shape).chunk == 16

            # The retired entries are ignored by their old readers.
            assert default_workers() == max(1, os.cpu_count() or 1)
            layouts = self._layouts(coo)
        assert "SELL" not in [entry[0] for entry in layouts[:2]]
        assert layouts[2] != "SELL"
        assert audit_log().records(source="serve") == []
        # Nothing was dropped from the file: an older reader sharing
        # it still finds its entries.
        entries = tune_cache().entries()
        assert entry_key(tune_cache().fp_hash, "machine", "workers") in entries
        assert entry_key(
            tune_cache().fp_hash, profile_bucket(profile), "format"
        ) in entries

    def test_format_entry_reaches_no_layout_decision(self, cache_path):
        # Same file with and without the format entry: every decision,
        # its reason and its source are the same.
        coo = _coo()
        profile = profile_from_coo(coo[0], coo[1], coo[3])
        self._write_parent_file(cache_path, profile)
        with_entry = self._layouts(coo)
        self._write_parent_file(cache_path, profile, with_format=False)
        assert self._layouts(coo) == with_entry
