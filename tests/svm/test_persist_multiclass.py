"""MulticlassSVC persistence: round-trip and kernel-config fidelity."""

import numpy as np
import pytest

from repro.svm import SVC, MulticlassSVC
from repro.svm.kernels import Kernel
from repro.svm.persist import (
    load_model,
    load_multiclass,
    load_svc,
    read_kind,
    save_multiclass,
)
from tests.conftest import make_labels


def _three_class_data(seed=61, per_class=28, n=5):
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, n))
    for i in range(3):
        centers[i, i] = 2.5
    x = np.vstack(
        [rng.standard_normal((per_class, n)) * 0.7 + c for c in centers]
    )
    y = np.repeat([0.0, 1.0, 2.0], per_class)
    return x, y


@pytest.fixture(scope="module")
def fitted():
    x, y = _three_class_data()
    clf = MulticlassSVC("gaussian", gamma=0.45, C=1.8, tol=5e-4).fit(x, y)
    return clf, x, y


class TestRoundTrip:
    def test_predictions_identical(self, fitted, tmp_path):
        clf, x, _y = fitted
        path = tmp_path / "mc.npz"
        clf.save(path)
        loaded = MulticlassSVC.load(path)
        assert np.array_equal(loaded.predict(x), clf.predict(x))

    def test_pairwise_decision_values_identical(self, fitted, tmp_path):
        clf, x, _y = fitted
        path = tmp_path / "mc.npz"
        clf.save(path)
        loaded = load_multiclass(path)
        for pm_a, pm_b in zip(clf.models_, loaded.models_):
            assert pm_a.classes == pm_b.classes
            assert np.allclose(
                pm_a.svc.decision_function(x),
                pm_b.svc.decision_function(x),
                atol=1e-12,
            )

    def test_kernel_config_fidelity(self, fitted, tmp_path):
        clf, _x, _y = fitted
        path = tmp_path / "mc.npz"
        save_multiclass(clf, path)
        loaded = load_multiclass(path)
        for pm in loaded.models_:
            assert pm.svc.kernel.name == "gaussian"
            assert pm.svc.kernel.gamma == 0.45
            assert pm.svc.C == 1.8
            assert pm.svc.tol == 5e-4

    @pytest.mark.parametrize(
        "kernel,params,attrs",
        [
            ("linear", {}, {}),
            (
                "polynomial",
                {"a": 0.6, "r": 0.5, "degree": 2},
                {"a": 0.6, "r": 0.5, "degree": 2},
            ),
            ("sigmoid", {"a": 0.04, "r": -0.1}, {"a": 0.04, "r": -0.1}),
        ],
    )
    def test_every_named_kernel_round_trips(
        self, tmp_path, kernel, params, attrs
    ):
        x, y = _three_class_data(seed=62, per_class=18, n=4)
        clf = MulticlassSVC(kernel, C=1.0, **params).fit(x, y)
        path = tmp_path / "mc.npz"
        clf.save(path)
        loaded = MulticlassSVC.load(path)
        assert np.array_equal(loaded.predict(x), clf.predict(x))
        for name, value in attrs.items():
            assert getattr(loaded.models_[0].svc.kernel, name) == value

    def test_classes_and_pair_structure_restored(self, fitted, tmp_path):
        clf, _x, _y = fitted
        path = tmp_path / "mc.npz"
        clf.save(path)
        loaded = load_multiclass(path)
        assert np.array_equal(loaded.classes_, clf.classes_)
        assert len(loaded.models_) == len(clf.models_)
        for pm_a, pm_b in zip(clf.models_, loaded.models_):
            assert pm_b.svc.n_support == pm_a.svc.n_support
            assert pm_b.svc.result_.b == pm_a.svc.result_.b


class TestKindDispatch:
    def test_read_kind(self, fitted, tmp_path):
        clf, _x, _y = fitted
        mc_path = tmp_path / "mc.npz"
        clf.save(mc_path)
        assert read_kind(mc_path) == "multiclass"

        rng = np.random.default_rng(63)
        xb = rng.standard_normal((60, 4))
        yb = make_labels(rng, xb)
        svc = SVC("linear").fit(xb, yb)
        svc_path = tmp_path / "svc.npz"
        svc.save(svc_path)
        assert read_kind(svc_path) == "svc"

    def test_load_model_dispatches(self, fitted, tmp_path):
        clf, x, _y = fitted
        path = tmp_path / "mc.npz"
        clf.save(path)
        loaded = load_model(path)
        assert isinstance(loaded, MulticlassSVC)
        assert np.array_equal(loaded.predict(x), clf.predict(x))

    def test_wrong_loader_rejects_kind(self, fitted, tmp_path):
        clf, _x, _y = fitted
        mc_path = tmp_path / "mc.npz"
        clf.save(mc_path)
        with pytest.raises(ValueError, match="expected a binary SVC"):
            load_svc(mc_path)

        rng = np.random.default_rng(64)
        xb = rng.standard_normal((60, 4))
        yb = make_labels(rng, xb)
        svc_path = tmp_path / "svc.npz"
        SVC("linear").fit(xb, yb).save(svc_path)
        with pytest.raises(ValueError, match="expected a multiclass"):
            load_multiclass(svc_path)


class TestErrors:
    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            save_multiclass(MulticlassSVC(), tmp_path / "x.npz")

    def test_custom_kernel_rejected(self, tmp_path):
        class Odd(Kernel):
            name = "odd"

            def transform(self, dots, v_norms_sq, row_norms_sq):
                return dots

            def _transform_scalar(self, dot, nx, ny):
                return dot

        x, y = _three_class_data(seed=65, per_class=15, n=4)
        clf = MulticlassSVC(Odd()).fit(x, y)
        with pytest.raises(ValueError, match="custom kernel"):
            save_multiclass(clf, tmp_path / "x.npz")
