"""Golden SMO trajectories: the six ``train-paper`` clones, pinned.

Each Table V clone (300 rows, seed 0, 5% label noise, the Gaussian
kernel the wall-clock benchmark fits) is trained in every registered
format, with both working-set rules, with and without shrinking.  The
iteration count, the kernel-row work and cache hits, the support size
and the shrink/unshrink events must match the table below.  Every
format walks the same trajectory, so one row of the table covers all
eight.  A change to the SMO loop or a format's ``row()`` that alters
any floating-point step shows here as a moved counter.

The fused dual-row path must also reproduce the unfused multipliers
bitwise on every case.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.data import load_dataset
from repro.formats import FORMAT_CLASSES
from repro.formats.convert import format_class
from repro.svm.kernels import make_kernel
from repro.svm.smo import smo_train

ROWS = 300

#: (dataset, working_set, shrink_every) -> (iterations,
#: kernel_rows_computed, kernel_rows_cached, n_support, shrink_events,
#: unshrink_events), identical for every format.
GOLDEN = {
    ("adult", "first", 0): (213, 282, 144, 282, 0, 0),
    ("adult", "first", 50): (213, 564, 144, 282, 3, 1),
    ("adult", "second", 0): (200, 282, 318, 282, 0, 0),
    ("adult", "second", 50): (200, 564, 318, 282, 2, 1),
    ("aloi", "first", 0): (270, 279, 261, 279, 0, 0),
    ("aloi", "first", 50): (270, 558, 261, 279, 3, 1),
    ("aloi", "second", 0): (258, 279, 495, 279, 0, 0),
    ("aloi", "second", 50): (258, 558, 495, 279, 2, 1),
    ("mnist", "first", 0): (269, 300, 238, 300, 0, 0),
    ("mnist", "first", 50): (269, 600, 238, 300, 3, 1),
    ("mnist", "second", 0): (264, 300, 492, 300, 0, 0),
    ("mnist", "second", 50): (264, 600, 492, 300, 3, 1),
    ("connect-4", "first", 0): (289, 286, 292, 286, 0, 0),
    ("connect-4", "first", 50): (289, 572, 292, 286, 2, 1),
    ("connect-4", "second", 0): (280, 287, 553, 286, 0, 0),
    ("connect-4", "second", 50): (280, 573, 553, 286, 2, 1),
    ("trefethen", "first", 0): (154, 299, 9, 299, 0, 0),
    ("trefethen", "first", 50): (154, 598, 9, 299, 2, 1),
    ("trefethen", "second", 0): (154, 299, 163, 299, 0, 0),
    ("trefethen", "second", 50): (154, 598, 163, 299, 2, 1),
    ("gisette", "first", 0): (319, 300, 338, 300, 0, 0),
    ("gisette", "first", 50): (319, 600, 338, 300, 3, 1),
    ("gisette", "second", 0): (325, 300, 675, 300, 0, 0),
    ("gisette", "second", 50): (325, 600, 675, 300, 3, 1),
}

DATASETS = ("adult", "aloi", "mnist", "connect-4", "trefethen", "gisette")


@lru_cache(maxsize=None)
def _clone(name):
    return load_dataset(name, seed=0, label_noise=0.05, m_override=ROWS)


@pytest.mark.parametrize("shrink_every", (0, 50))
@pytest.mark.parametrize("working_set", ("first", "second"))
@pytest.mark.parametrize("fmt", tuple(FORMAT_CLASSES))
@pytest.mark.parametrize("dataset", DATASETS)
def test_golden_trajectory(dataset, fmt, working_set, shrink_every):
    ds = _clone(dataset)
    X = format_class(fmt).from_coo(ds.rows, ds.cols, ds.values, ds.shape)
    kernel = make_kernel("gaussian", gamma=0.5 / np.sqrt(ds.shape[1]))
    fits = [
        smo_train(
            X,
            ds.y,
            kernel,
            C=1.0,
            tol=1e-3,
            working_set=working_set,
            shrink_every=shrink_every,
            fuse_rows=fuse,
        )
        for fuse in (True, False)
    ]
    r = fits[0]
    got = (
        r.iterations,
        r.kernel_rows_computed,
        r.kernel_rows_cached,
        r.n_support,
        r.shrink_events,
        r.unshrink_events,
    )
    assert got == GOLDEN[(dataset, working_set, shrink_every)]
    assert r.converged
    np.testing.assert_array_equal(fits[1].alpha, r.alpha)
