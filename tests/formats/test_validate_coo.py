"""``validate_coo``: the already-canonical fast path against a reference.

Canonical input (strictly increasing row-major keys) skips the lexsort;
every other input is sorted and checked for duplicates.  Both paths
must return exactly what the reference implementation below returns —
the sort-always algorithm ``validate_coo`` used before the fast path
existed — and neither may hand back the caller's arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, validate_coo


def reference_validate_coo(rows, cols, values, shape):
    """Sort-always canonicalisation (lexsort + duplicate check)."""
    rows = np.asarray(rows, dtype=INDEX_DTYPE).ravel()
    cols = np.asarray(cols, dtype=INDEX_DTYPE).ravel()
    values = np.asarray(values, dtype=VALUE_DTYPE).ravel()
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    if rows.size > 1:
        same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
        if np.any(same):
            raise ValueError("duplicate coordinates in COO input")
    return rows, cols, values


def _outcome(fn, rows, cols, values, shape):
    try:
        return fn(rows, cols, values, shape)
    except ValueError as exc:
        return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def coo_inputs(draw):
    """Triples in one of four arrangements over 1xN, Mx1 and general
    shapes: sorted, shuffled, sorted with a repeat, shuffled with a
    repeat.  Empty inputs come from zero-entry draws."""
    kind = draw(st.sampled_from(["general", "row", "col"]))
    m = 1 if kind == "row" else draw(st.integers(1, 9))
    n = 1 if kind == "col" else draw(st.integers(1, 9))
    keys = draw(
        st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n)
    )
    keys = np.array(sorted(keys), dtype=np.int64)
    if keys.size and draw(st.booleans()):
        repeat = keys[draw(st.integers(0, keys.size - 1))]
        keys = np.sort(np.append(keys, repeat))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        keys = np.random.default_rng(seed).permutation(keys)
    values = np.arange(1.0, keys.size + 1.0)
    return keys // n, keys % n, values, (m, n)


class TestAgainstReference:
    @given(coo_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        rows, cols, values, shape = case
        _assert_same(
            _outcome(validate_coo, rows, cols, values, shape),
            _outcome(reference_validate_coo, rows, cols, values, shape),
        )

    @pytest.mark.parametrize(
        "shape, rows, cols",
        [
            ((1, 6), [0, 0, 0], [1, 3, 5]),
            ((6, 1), [0, 2, 5], [0, 0, 0]),
            ((3, 3), [0, 1, 2], [2, 1, 0]),
            ((3, 3), [2, 0, 1], [0, 2, 1]),
            ((4, 4), [], []),
        ],
    )
    def test_edge_shapes(self, shape, rows, cols):
        values = np.arange(1.0, len(rows) + 1.0)
        _assert_same(
            validate_coo(rows, cols, values, shape),
            reference_validate_coo(rows, cols, values, shape),
        )


class TestFastPath:
    def test_sorted_repeat_still_raises(self):
        with pytest.raises(ValueError, match="duplicate coordinates"):
            validate_coo(
                np.array([0, 1, 1, 2]),
                np.array([3, 2, 2, 0]),
                np.ones(4),
                (3, 4),
            )

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_returned_arrays_never_alias_the_inputs(self, shuffled):
        rows = np.array([0, 0, 1, 2], dtype=INDEX_DTYPE)
        cols = np.array([1, 3, 0, 2], dtype=INDEX_DTYPE)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        if shuffled:
            rows, cols, values = (a[::-1].copy() for a in (rows, cols, values))
        before = (rows.copy(), cols.copy(), values.copy())
        out = validate_coo(rows, cols, values, (3, 4))
        for arr in out:
            arr[...] = 0
        for arr, kept in zip((rows, cols, values), before):
            assert np.array_equal(arr, kept)

    def test_range_checks_run_before_the_fast_path(self):
        with pytest.raises(ValueError, match="column index out of range"):
            validate_coo(
                np.array([0, 1]), np.array([0, 4]), np.ones(2), (2, 4)
            )
