"""Sanitizer tests: seeded corruption of every format, caught precisely.

The constructors validate what is cheap at build time; these tests
corrupt the backing arrays *after* construction (the failure mode the
sanitizer exists for) and assert that :func:`check_format` raises a
:class:`FormatInvariantError` naming the broken invariant.
"""

import numpy as np
import pytest

from repro.analysis import (
    FormatInvariantError,
    SanitizedMatrix,
    check_format,
    format_violations,
    sanitize_enabled,
    sanitize_format,
)
from repro.formats import FORMAT_CLASSES, from_dense
from repro.formats.csr import CSRMatrix


@pytest.fixture
def dense(rng):
    a = (rng.random((12, 9)) < 0.4) * rng.standard_normal((12, 9))
    a[3, :] = 0.0  # an empty row, the usual edge case
    return a


# -- healthy matrices --------------------------------------------------


class TestHealthy:
    def test_all_formats_pass_structural_check(self, matrix_in_fmt):
        assert format_violations(matrix_in_fmt) == []
        check_format(matrix_in_fmt)  # does not raise

    def test_all_formats_pass_deep_roundtrip_check(self, matrix_in_fmt):
        assert format_violations(matrix_in_fmt, deep=True) == []


# -- seeded corruptions, one per format --------------------------------


class TestSeededCorruption:
    def test_csr_nonmonotonic_row_ptr(self, dense):
        m = from_dense(dense, "CSR")
        m.row_ptr[2] = m.row_ptr[3] + 4
        with pytest.raises(
            FormatInvariantError,
            match=r"CSR: row_ptr not monotonically non-decreasing at row 2",
        ):
            check_format(m)

    def test_csr_column_index_out_of_range(self, dense):
        m = from_dense(dense, "CSR")
        m.col_idx[-1] = dense.shape[1] + 5
        with pytest.raises(
            FormatInvariantError, match=r"CSR: col_idx out of range"
        ):
            check_format(m)

    def test_coo_duplicate_coordinate(self, dense):
        m = from_dense(dense, "COO")
        m.rows[1] = m.rows[0]
        m.cols[1] = m.cols[0]
        with pytest.raises(
            FormatInvariantError, match=r"COO: duplicate coordinate"
        ):
            check_format(m)

    def test_coo_unsorted_rows(self, dense):
        m = from_dense(dense, "COO")
        m.rows[0] = m.shape[0] - 1  # breaks row-major order
        with pytest.raises(
            FormatInvariantError, match=r"COO: coordinates not row-major"
        ):
            check_format(m)

    def test_ell_nonzero_padding_slot(self, dense):
        m = from_dense(dense, "ELL")
        i = int(np.argmin(m.row_lengths))
        assert m.row_lengths[i] < m.data.shape[1]
        m.data[i, -1] = 7.0
        with pytest.raises(
            FormatInvariantError,
            match=r"ELL: padding slot data\[.*\] holds non-zero",
        ):
            check_format(m)

    def test_ell_row_length_exceeds_width(self, dense):
        m = from_dense(dense, "ELL")
        m.row_lengths[0] = m.data.shape[1] + 3
        with pytest.raises(
            FormatInvariantError, match=r"ELL: row_lengths\[0\].*exceeds"
        ):
            check_format(m)

    def test_dia_offset_out_of_bounds(self, dense):
        m = from_dense(dense, "DIA")
        m.offsets[-1] = m.shape[1] + 10
        with pytest.raises(
            FormatInvariantError,
            match=r"DIA: diagonal offset out of bounds",
        ):
            check_format(m)

    def test_dia_nonzero_out_of_span_slot(self):
        a = np.eye(6)
        a[5, 0] = 2.0  # offset -5: valid span is exactly one slot
        m = from_dense(a, "DIA")
        k = int(np.searchsorted(m.offsets, -5))
        m.data[k, 3] = 9.0  # past the diagonal's true length
        with pytest.raises(
            FormatInvariantError, match=r"DIA: out-of-span slot"
        ):
            check_format(m)

    def test_den_wrong_dtype(self, dense):
        m = from_dense(dense, "DEN")
        m.array = m.array.astype(np.float32)
        with pytest.raises(
            FormatInvariantError, match=r"DEN: array has dtype float32"
        ):
            check_format(m)


# -- the SanitizedMatrix proxy -----------------------------------------


class TestSanitizedMatrix:
    def test_wrap_preserves_behaviour(self, dense, rng):
        for name in ("CSR", "COO", "ELL", "DIA", "DEN"):
            s = sanitize_format(from_dense(dense, name))
            x = rng.random(dense.shape[1])
            assert np.allclose(s.matvec(x), dense @ x)
            assert s.name == name  # transparent to name dispatch
            assert s.nnz == np.count_nonzero(dense)

    def test_wrap_rejects_corrupt_matrix_immediately(self, dense):
        m = from_dense(dense, "CSR")
        m.row_ptr[2] = m.row_ptr[3] + 4
        with pytest.raises(FormatInvariantError):
            sanitize_format(m)

    def test_detects_corruption_after_wrap(self, dense, rng):
        m = from_dense(dense, "CSR")
        s = sanitize_format(m)
        x = rng.random(dense.shape[1])
        s.matvec(x)  # healthy
        m.col_idx[-1] = dense.shape[1] + 5  # corrupt in place
        with pytest.raises(FormatInvariantError, match="col_idx"):
            s.matvec(x)

    def test_smsv_and_row_recheck(self, dense):
        m = from_dense(dense, "CSR")
        s = sanitize_format(m)
        assert s.row(0).length == dense.shape[1]
        m.row_ptr[2] = m.row_ptr[3] + 4
        with pytest.raises(FormatInvariantError):
            s.row(0)

    @pytest.mark.parametrize(
        "corrupt,match",
        [
            (lambda i, v: (i[::-1].copy(), v), "not strictly increasing"),
            (lambda i, v: (i + 100, v), r"indices out of range"),
            (lambda i, v: (i.astype(np.int64), v), "indices has dtype int64"),
            (lambda i, v: (i, v.astype(np.float32)), "values has dtype"),
            (lambda i, v: (i, v[:-1]), "indices but"),
            (lambda i, v: (i[None, :], v), "must be 1-D"),
        ],
        ids=["unsorted", "range", "index-dtype", "value-dtype", "length", "2d"],
    )
    @pytest.mark.parametrize("fmt", tuple(FORMAT_CLASSES))
    def test_corrupted_row_trips_row_check(
        self, dense, monkeypatch, fmt, corrupt, match
    ):
        from repro.formats import SparseVector

        m = from_dense(dense, fmt)
        s = sanitize_format(m)
        healthy = s.row(0)
        assert healthy.nnz > 1
        # The storage stays valid; only the row handed out is bad, the
        # case a format's unchecked row() path could produce.
        idx, vals = corrupt(healthy.indices, healthy.values)
        monkeypatch.setattr(
            m, "row", lambda i: SparseVector._trusted(idx, vals, m.shape[1])
        )
        with pytest.raises(FormatInvariantError, match=match):
            s.row(0)

    def test_matmat_and_smsv_multi_delegate_and_check(self, dense, rng):
        from repro.formats import SparseVector

        m = from_dense(dense, "CSR")
        s = sanitize_format(m)
        V = rng.standard_normal((dense.shape[1], 3))
        np.testing.assert_array_equal(s.matmat(V), m.matmat(V))
        vecs = [m.row(0), m.row(5)]
        np.testing.assert_array_equal(
            s.smsv_multi(vecs), m.smsv_multi(vecs)
        )
        assert s.smsv_multi(iter(vecs)).shape == (dense.shape[0], 2)
        assert isinstance(vecs[0], SparseVector)
        # corruption after wrap is caught on the SpMM path too
        m.col_idx[-1] = dense.shape[1] + 5
        with pytest.raises(FormatInvariantError, match="col_idx"):
            s.matmat(V)

    def test_double_wrap_unwraps(self, dense):
        m = from_dense(dense, "COO")
        s = sanitize_format(sanitize_format(m))
        assert s.inner is m

    def test_from_coo_refused(self):
        with pytest.raises(TypeError, match="sanitize_format"):
            SanitizedMatrix.from_coo(
                np.array([0]), np.array([0]), np.array([1.0]), (1, 1)
            )

    def test_transpose_stays_sanitized(self, dense):
        s = sanitize_format(from_dense(dense, "CSR"))
        t = s.transpose()
        assert isinstance(t, SanitizedMatrix)
        assert t.shape == (dense.shape[1], dense.shape[0])

    def test_deep_check_catches_duplicate_ell_columns(self, dense):
        m = from_dense(dense, "ELL")
        i = int(np.argmax(m.row_lengths))
        assert m.row_lengths[i] >= 2
        # Duplicate a column inside the valid region: every structural
        # invariant (dtype, range, padding) still holds, but to_coo now
        # emits a duplicate coordinate — only the deep pass sees it.
        m.indices[i, 1] = m.indices[i, 0]
        assert format_violations(m) == []
        assert any(
            "non-canonical" in v for v in format_violations(m, deep=True)
        )
        with pytest.raises(FormatInvariantError, match="non-canonical"):
            sanitize_format(m)  # wrap-time check is deep


# -- the REPRO_SANITIZE construction hook ------------------------------


class TestEnvHook:
    def test_sanitize_enabled_parsing(self, monkeypatch):
        for raw, expect in [
            ("1", True),
            ("true", True),
            ("ON", True),
            ("0", False),
            ("false", False),
            ("no", False),
            ("off", False),
            ("", False),
            ("  ", False),
        ]:
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert sanitize_enabled() is expect, raw
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize_enabled() is False

    def test_constructor_hook_catches_unsorted_columns(self, monkeypatch):
        # Columns unsorted within a row: cheap constructor checks pass,
        # the sanitizer's structural pass does not.
        args = (
            np.array([1.0, 2.0]),
            np.array([3, 1]),
            np.array([0, 2]),
            (1, 5),
        )
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        CSRMatrix(*args)  # constructs fine unsanitised
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(
            FormatInvariantError, match="col_idx not strictly increasing"
        ):
            CSRMatrix(*args)

    def test_hook_accepts_all_healthy_formats(self, monkeypatch, dense):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for name in FORMAT_CLASSES:
            m = from_dense(dense, name)
            assert format_violations(m) == []
