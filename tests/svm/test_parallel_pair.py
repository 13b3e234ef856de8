"""SMO's fused DEN kernel-row pair on two threads.

From ``DEN_PAIR_MIN_ELEMENTS`` stored elements up, a DEN fit computes
the high/low pair's two column GEMVs on two threads through
``repro.parallel``.  Each column is still the serial kernel's
full-matrix GEMV, so the fit must be bitwise the serial one: alpha, f,
b, the iteration count and the op counts.  Below the floor the pair
stays on the calling thread and no executor is ever built.  A
one-vs-one fit nests the pair's map inside the pairs' own map; it must
finish.
"""

import threading

import numpy as np
import pytest

import repro.parallel.pool as pool_mod
from repro.formats.dense import DenseMatrix
from repro.parallel.kernels import DEN_PAIR_MIN_ELEMENTS
from repro.parallel.pool import WorkerPool
from repro.perf.counters import OpCounter
from repro.svm import MulticlassSVC
from repro.svm.kernels import make_kernel
from repro.svm.smo import smo_train


def _dense_problem(m, n, seed=0):
    """Two noisy clusters: few support vectors, so shrinking bites."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    centre = rng.standard_normal(n) * 10.0 / np.sqrt(n)
    return rng.standard_normal((m, n)) + y[:, None] * centre, y


def _with_shared_pool(monkeypatch, pool, fn):
    """Run ``fn`` with ``pool`` as the process-wide pool."""
    monkeypatch.setattr(pool_mod, "_shared_pool", pool)
    try:
        return fn()
    finally:
        pool.shutdown()


def _serially(monkeypatch, fn):
    """Run ``fn`` as ``REPRO_NUM_THREADS=1`` does: a one-worker pool."""
    with monkeypatch.context() as mp:
        mp.setenv("REPRO_NUM_THREADS", "1")
        mp.setattr(pool_mod, "_shared_pool", None)
        out = fn()
        assert not pool_mod.shared_pool().executor_active
        return out


def _fit(X, y, n, shrink_every, counter):
    kernel = make_kernel("gaussian", gamma=0.5 / n)
    return smo_train(
        X, y, kernel, C=1.0, max_iter=1000, shrink_every=shrink_every,
        counter=counter,
    )


@pytest.mark.parametrize("shrink_every", [0, 20])
def test_above_floor_fit_is_bitwise_serial(monkeypatch, shrink_every):
    m, n = 1100, 1000
    assert m * n >= DEN_PAIR_MIN_ELEMENTS
    x, y = _dense_problem(m, n)
    X = DenseMatrix(x)
    c_par, c_ser = OpCounter(), OpCounter()
    pool = WorkerPool(2)
    par = _with_shared_pool(
        monkeypatch, pool, lambda: _fit(X, y, n, shrink_every, c_par)
    )
    ser = _serially(monkeypatch, lambda: _fit(X, y, n, shrink_every, c_ser))
    assert par.converged
    assert c_par.parallel_blocks > 0  # the pair really split
    if shrink_every:
        # Shrinking took the pair below the floor and back above it.
        assert par.min_active * n < DEN_PAIR_MIN_ELEMENTS
        assert par.unshrink_events > 0
    assert c_ser.parallel_blocks == 0
    assert par.iterations == ser.iterations
    np.testing.assert_array_equal(par.alpha, ser.alpha)
    np.testing.assert_array_equal(par.f, ser.f)
    assert par.b == ser.b
    for name in OpCounter.field_names():
        if not name.startswith("parallel_"):
            assert getattr(c_par, name) == getattr(c_ser, name), name


def test_below_floor_fit_never_builds_the_executor(monkeypatch):
    m, n = 1800, 125  # the connect-4 clone's shape
    assert m * n < DEN_PAIR_MIN_ELEMENTS
    x, y = _dense_problem(m, n, seed=1)
    pool = WorkerPool(2)
    counter = OpCounter()

    def fit():
        _fit(DenseMatrix(x), y, n, 0, counter)
        return pool.executor_active

    assert _with_shared_pool(monkeypatch, pool, fit) is False
    assert counter.parallel_blocks == 0


def test_multiclass_above_floor_finishes_and_is_bitwise_serial(monkeypatch):
    per_class, n = 500, 1000  # every pair: 1000 x 1000 DEN
    assert 2 * per_class * n >= DEN_PAIR_MIN_ELEMENTS
    rng = np.random.default_rng(3)
    centres = rng.standard_normal((3, n))
    x = np.concatenate(
        [c + 2.0 * rng.standard_normal((per_class, n)) for c in centres]
    )
    y = np.repeat([0.0, 1.0, 2.0], per_class)
    X = DenseMatrix(x)

    def fit():
        return MulticlassSVC(
            "gaussian", C=1.0, max_iter=150, gamma=0.5 / np.sqrt(n)
        ).fit(X, y)

    done, errors = [], []

    def guarded():
        try:
            done.append(fit())
        except Exception as exc:  # surfaced below
            errors.append(exc)

    pool = WorkerPool(2)
    monkeypatch.setattr(pool_mod, "_shared_pool", pool)
    t = threading.Thread(target=guarded, daemon=True)
    t.start()
    t.join(timeout=120)
    if t.is_alive():
        # Unblock the deadlocked waits (they raise CancelledError) so
        # the failure does not also hang the interpreter's exit.
        pool._executor.shutdown(wait=False, cancel_futures=True)
    pool.shutdown()
    assert not t.is_alive(), "nested pair map deadlocked the one-vs-one fit"
    assert not errors, errors
    ser = _serially(monkeypatch, fit)
    for a, b in zip(done[0].models_, ser.models_):
        assert a.classes == b.classes
        ra, rb = a.svc.result_, b.svc.result_
        assert ra.iterations == rb.iterations
        np.testing.assert_array_equal(ra.alpha, rb.alpha)
        np.testing.assert_array_equal(ra.f, rb.f)
        assert ra.b == rb.b
