"""Count-based guards on the scheduler's own overhead (no timing).

Deciding and converting is paid before every adaptive fit, so the work
it repeats is a regression even when no output changes.  These tests
count the expensive calls instead of timing them, so a change that
brings a sort or a second build back onto the hot path fails
deterministically.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import AutoTuner, LayoutScheduler
from repro.data import load_dataset
from repro.formats import FORMAT_NAMES, CSRMatrix
from repro.formats.convert import format_class


@pytest.fixture
def build_counts(monkeypatch):
    """Count each candidate class's ``from_coo`` calls by format name."""
    counts = Counter()
    for name in FORMAT_NAMES:
        cls = format_class(name)
        original = cls.from_coo

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, "from_coo", counted)
    return counts


@pytest.fixture
def lexsort_calls(monkeypatch):
    calls = []
    original = np.lexsort

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls


def test_probe_builds_each_candidate_once(build_counts, small_sparse):
    rows, cols = np.nonzero(small_sparse)
    results = AutoTuner(repeats=1, smsv_per_probe=2).probe(
        rows, cols, small_sparse[rows, cols], small_sparse.shape
    )
    assert sorted(r.fmt for r in results) == sorted(FORMAT_NAMES)
    assert build_counts == Counter({name: 1 for name in FORMAT_NAMES})


@pytest.mark.parametrize("name", ["adult", "connect-4", "trefethen"])
def test_hybrid_apply_on_canonical_csr_never_sorts(name, lexsort_calls):
    ds = load_dataset(name, seed=0, label_noise=0.05, m_override=300)
    X = CSRMatrix.from_coo(ds.rows, ds.cols, ds.values, ds.shape)
    lexsort_calls.clear()
    LayoutScheduler("hybrid").apply(X)
    assert lexsort_calls == []
