"""Model persistence: save/load must be prediction-identical."""

import numpy as np
import pytest

from repro.formats import from_dense
from repro.svm import SVC, AdaptiveSVC
from repro.svm.kernels import Kernel
from repro.svm.persist import load_svc, save_svc
from tests.conftest import make_labels


@pytest.fixture
def fitted(rng):
    x = rng.standard_normal((120, 7))
    y = make_labels(rng, x)
    clf = SVC("gaussian", gamma=0.4, C=2.0).fit(x, y)
    return clf, x, y


class TestRoundTrip:
    def test_predictions_identical(self, fitted, tmp_path):
        clf, x, y = fitted
        path = tmp_path / "model.npz"
        clf.save(path)
        loaded = SVC.load(path)
        assert np.array_equal(loaded.predict(x), clf.predict(x))
        assert np.allclose(
            loaded.decision_function(x), clf.decision_function(x), atol=1e-12
        )

    def test_metadata_restored(self, fitted, tmp_path):
        clf, _x, _y = fitted
        path = tmp_path / "model.npz"
        clf.save(path)
        loaded = SVC.load(path)
        assert loaded.C == 2.0
        assert loaded.kernel.name == "gaussian"
        assert loaded.kernel.gamma == 0.4
        assert loaded.n_support == clf.n_support
        assert loaded.fitted

    @pytest.mark.parametrize(
        "kernel,params",
        [
            ("linear", {}),
            ("polynomial", dict(a=0.5, r=1.0, degree=2)),
            ("sigmoid", dict(a=0.2, r=-0.3)),
        ],
    )
    def test_all_named_kernels(self, rng, tmp_path, kernel, params):
        x = rng.standard_normal((80, 5))
        y = make_labels(rng, x)
        clf = SVC(kernel, C=1.0, **params).fit(x, y)
        path = tmp_path / "m.npz"
        clf.save(path)
        loaded = SVC.load(path)
        assert np.array_equal(loaded.predict(x), clf.predict(x))

    def test_sparse_input_model(self, tmp_path, rng):
        from repro.data import load_dataset

        ds = load_dataset("aloi", seed=0, m_override=150)
        X = ds.in_format("CSR")
        y = ds.y[:150]
        clf = SVC("linear", C=1.0, max_iter=2000).fit(X, y)
        path = tmp_path / "m.npz"
        clf.save(path)
        loaded = SVC.load(path)
        assert np.array_equal(loaded.predict(X), clf.predict(X))

    def test_adaptive_model_saves_too(self, fitted, tmp_path, rng):
        x = rng.standard_normal((80, 5))
        y = make_labels(rng, x)
        clf = AdaptiveSVC("linear", C=1.0).fit(x, y)
        path = tmp_path / "m.npz"
        clf.save(path)
        loaded = SVC.load(path)
        assert np.array_equal(loaded.predict(x), clf.predict(x))


class TestValidation:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            SVC("linear").save(tmp_path / "m.npz")

    def test_custom_kernel_rejected(self, rng, tmp_path):
        class Weird(Kernel):
            name = "weird"

            def transform(self, dots, vn, rn):
                return dots

            def _transform_scalar(self, dot, nx, ny):
                return dot

        x = rng.standard_normal((40, 4))
        y = make_labels(rng, x)
        clf = SVC(Weird(), C=1.0).fit(x, y)
        with pytest.raises(ValueError, match="custom kernel"):
            clf.save(tmp_path / "m.npz")

    def test_bad_version_rejected(self, fitted, tmp_path):
        import json

        clf, _x, _y = fitted
        path = tmp_path / "m.npz"
        clf.save(path)
        # tamper with the header version
        data = dict(np.load(path))
        header = json.loads(bytes(data["header"]).decode())
        header["format_version"] = 99
        data["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_svc(path)
