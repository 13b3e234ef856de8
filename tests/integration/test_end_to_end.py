"""Cross-module integration tests: the full pipelines users run."""

import io

import numpy as np
import pytest

from repro import AdaptiveSVC, extract_profile, from_dense, schedule_layout
from repro.baselines import LibSVMStyleSVC
from repro.core import LayoutScheduler
from repro.data import (
    load_dataset,
    read_libsvm,
    synthetic_cifar10,
    write_libsvm,
)
from repro.dnn import Trainer, cifar10_small
from repro.formats import format_class
from repro.svm import SVC


class TestSVMPipeline:
    def test_libsvm_file_to_adaptive_model(self, tmp_path):
        # The full user journey: LIBSVM file -> scheduler -> training
        # -> prediction.
        ds = load_dataset("aloi", seed=0, m_override=300)
        path = tmp_path / "aloi.libsvm"
        write_libsvm(
            path, (ds.rows, ds.cols, ds.values, ds.shape), ds.y
        )
        (rows, cols, vals, shape), y = read_libsvm(
            path, n_features=ds.shape[1]
        )
        sched = LayoutScheduler("cost")
        decision = sched.decide_from_coo(rows, cols, vals, shape)
        X = format_class(decision.fmt).from_coo(rows, cols, vals, shape)
        assert decision.fmt == X.name
        clf = SVC("linear", C=1.0, max_iter=2000).fit(X, y)
        assert clf.score(X, y) > 0.9

    def test_adaptive_matches_baseline_predictions(self):
        ds = load_dataset("adult", seed=0, m_override=250)
        X = ds.in_format("CSR")
        y = ds.y[:250]
        kw = dict(C=1.0, tol=1e-3, max_iter=5000)
        ada = AdaptiveSVC(
            "linear", scheduler=LayoutScheduler("cost"), **kw
        ).fit(X, y)
        lib = LibSVMStyleSVC("linear", **kw).fit(X, y)
        agree = float(np.mean(ada.predict(X) == lib.predict(X)))
        assert agree > 0.97  # same algorithm, different layout/kernel

    def test_scheduler_cache_warm_across_fits(self):
        # Re-deciding for structurally identical data (same profile,
        # different labels/values) must reuse the cached decision — the
        # runtime-scheduling cost story.
        sched = LayoutScheduler("cost")
        first = load_dataset("adult", seed=0, m_override=200)
        second = load_dataset("adult", seed=0, m_override=200, label_noise=0.2)
        d1 = sched.decide_from_coo(
            first.rows, first.cols, first.values, first.shape
        )
        d2 = sched.decide_from_coo(
            second.rows, second.cols, second.values, second.shape
        )
        assert not d1.cached and d2.cached and d1.fmt == d2.fmt

    def test_profile_stable_across_formats_and_io(self, tmp_path):
        ds = load_dataset("mnist", seed=0, m_override=200)
        p0 = ds.profile
        # through a format round trip
        m = ds.in_format("DIA")
        assert extract_profile(m) == p0
        # through file I/O
        buf = io.StringIO()
        write_libsvm(buf, (ds.rows, ds.cols, ds.values, ds.shape), ds.y)
        buf.seek(0)
        (r, c, v, s), _ = read_libsvm(buf, n_features=ds.shape[1])
        cls = format_class("CSR")
        assert extract_profile(cls.from_coo(r, c, v, s)) == p0


class TestDNNPipeline:
    def test_train_and_improve(self):
        data = synthetic_cifar10(300, 100, seed=0, flip_prob=0.0)
        net = cifar10_small(seed=0)
        acc0 = net.accuracy(data.x_test.astype(np.float64), data.y_test)
        run = Trainer(
            net, batch_size=50, lr=0.01, momentum=0.9,
            target_accuracy=0.99, max_epochs=3,
        ).fit(data)
        assert run.final_accuracy > acc0 + 0.2

    def test_tuning_pipeline_consistency(self):
        # The Table VII rows must be internally consistent:
        # iterations ~ epochs * n / B, and time = iterations * t_iter.
        from repro.hardware import DNN_MACHINES, DNNPerfModel
        from repro.tuning import CIFAR10_N_TRAIN, reproduce_table7

        for r in reproduce_table7():
            assert r.iterations == pytest.approx(
                r.epochs * CIFAR10_N_TRAIN / r.batch_size, rel=1e-3
            )
            perf = DNNPerfModel(DNN_MACHINES[r.machine])
            assert r.seconds == pytest.approx(
                perf.training_time(r.iterations, r.batch_size), rel=1e-9
            )


class TestSchedulerOnArbitraryInput:
    @pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
    def test_any_density_schedules_and_trains(self, rng, density):
        a = (rng.random((120, 40)) < density) * rng.standard_normal((120, 40))
        # guarantee at least one nnz per row so labels are learnable
        a[np.arange(120), rng.integers(0, 40, 120)] += 1.0
        m, decision = schedule_layout(from_dense(a, "COO"), "cost")
        w = rng.standard_normal(40)
        y = np.where(a @ w > np.median(a @ w), 1.0, -1.0)
        if np.all(y == y[0]):
            y[:60] = -y[0]
        clf = SVC("linear", C=1.0, max_iter=3000).fit(m, y)
        assert clf.score(m, y) > 0.75
