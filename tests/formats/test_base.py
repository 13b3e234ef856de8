"""SparseVector and shared MatrixFormat contract tests."""

import numpy as np
import pytest

from repro.formats import FORMAT_CLASSES, SparseVector, from_dense
from repro.formats.base import validate_coo


class TestSparseVector:
    def test_from_dense_roundtrip(self, rng):
        x = rng.standard_normal(20)
        x[rng.random(20) < 0.5] = 0.0
        v = SparseVector.from_dense(x)
        assert np.array_equal(v.to_dense(), x)
        assert v.nnz == np.count_nonzero(x)
        assert len(v) == 20

    def test_empty_vector(self):
        v = SparseVector(np.array([], dtype=np.int32), np.array([]), 10)
        assert v.nnz == 0
        assert np.array_equal(v.to_dense(), np.zeros(10))

    def test_unsorted_indices_are_sorted(self):
        v = SparseVector(np.array([3, 1]), np.array([30.0, 10.0]), 5)
        assert list(v.indices) == [1, 3]
        assert list(v.values) == [10.0, 30.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseVector(np.array([2, 2]), np.array([1.0, 2.0]), 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(np.array([5]), np.array([1.0]), 5)
        with pytest.raises(ValueError, match="out of range"):
            SparseVector(np.array([-1]), np.array([1.0]), 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseVector(np.array([1, 2]), np.array([1.0]), 5)

    def test_dot_matches_dense(self, rng):
        for _ in range(5):
            a = rng.standard_normal(30) * (rng.random(30) < 0.4)
            b = rng.standard_normal(30) * (rng.random(30) < 0.4)
            va, vb = SparseVector.from_dense(a), SparseVector.from_dense(b)
            assert va.dot(vb) == pytest.approx(float(a @ b))

    def test_dot_disjoint_supports_is_zero(self):
        a = SparseVector(np.array([0, 1]), np.array([1.0, 2.0]), 6)
        b = SparseVector(np.array([3, 4]), np.array([1.0, 2.0]), 6)
        assert a.dot(b) == 0.0

    def test_dot_dimension_mismatch(self):
        a = SparseVector(np.array([0]), np.array([1.0]), 5)
        b = SparseVector(np.array([0]), np.array([1.0]), 6)
        with pytest.raises(ValueError, match="dimension"):
            a.dot(b)

    def test_norm_sq(self, rng):
        x = rng.standard_normal(15)
        v = SparseVector.from_dense(x)
        assert v.norm_sq() == pytest.approx(float(x @ x))

    def test_scale(self):
        v = SparseVector(np.array([1, 3]), np.array([2.0, -4.0]), 5)
        w = v.scale(0.5)
        assert np.allclose(w.to_dense(), v.to_dense() * 0.5)
        # original untouched
        assert np.allclose(v.values, [2.0, -4.0])


class TestValidateCoo:
    def test_sorts_row_major(self):
        rows, cols, vals = validate_coo(
            np.array([1, 0, 1]),
            np.array([0, 2, 1]),
            np.array([10.0, 20.0, 30.0]),
            (2, 3),
        )
        assert list(rows) == [0, 1, 1]
        assert list(cols) == [2, 0, 1]
        assert list(vals) == [20.0, 10.0, 30.0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_coo(
                np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]), (2, 2)
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="row index"):
            validate_coo(np.array([5]), np.array([0]), np.array([1.0]), (2, 2))
        with pytest.raises(ValueError, match="column index"):
            validate_coo(np.array([0]), np.array([5]), np.array([1.0]), (2, 2))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="equal length"):
            validate_coo(np.array([0]), np.array([0, 1]), np.array([1.0]), (2, 2))


class TestSharedContract:
    """Contract checks run over all five formats via the fmt fixture."""

    def test_roundtrip_to_dense(self, small_sparse, matrix_in_fmt):
        assert np.allclose(matrix_in_fmt.to_dense(), small_sparse)

    def test_matvec_matches_dense(self, small_sparse, matrix_in_fmt, rng):
        x = rng.standard_normal(small_sparse.shape[1])
        assert np.allclose(matrix_in_fmt.matvec(x), small_sparse @ x)

    def test_matvec_rejects_bad_shape(self, matrix_in_fmt, rng):
        with pytest.raises(ValueError, match="matvec expects"):
            matrix_in_fmt.matvec(rng.standard_normal(7))

    def test_smsv_matches_dense(self, small_sparse, matrix_in_fmt, rng):
        xv = rng.standard_normal(small_sparse.shape[1])
        xv[rng.random(len(xv)) < 0.6] = 0.0
        v = __import__("repro.formats", fromlist=["SparseVector"]).SparseVector.from_dense(xv)
        assert np.allclose(matrix_in_fmt.smsv(v), small_sparse @ xv)

    def test_row_extraction(self, small_sparse, matrix_in_fmt):
        for i in (0, 7, small_sparse.shape[0] - 1):  # incl. empty row 7
            assert np.allclose(
                matrix_in_fmt.row(i).to_dense(), small_sparse[i]
            )

    @pytest.mark.parametrize("fmt", tuple(FORMAT_CLASSES))
    def test_row_needs_no_validation(self, small_sparse, fmt):
        # row() skips SparseVector's checks, so what it returns must
        # already be what the checked constructor would build.
        from repro.analysis.sanitize import _row_violations

        m = from_dense(small_sparse, fmt)
        n = small_sparse.shape[1]
        for i in range(small_sparse.shape[0]):
            v = m.row(i)
            assert _row_violations(v, n) == []
            checked = SparseVector(v.indices, v.values, v.length)
            np.testing.assert_array_equal(checked.indices, v.indices)
            np.testing.assert_array_equal(checked.values, v.values)

    def test_row_out_of_range(self, matrix_in_fmt):
        with pytest.raises(IndexError):
            matrix_in_fmt.row(matrix_in_fmt.shape[0])
        with pytest.raises(IndexError):
            matrix_in_fmt.row(-1)

    def test_row_norms(self, small_sparse, matrix_in_fmt):
        assert np.allclose(
            matrix_in_fmt.row_norms_sq(), (small_sparse**2).sum(axis=1)
        )

    def test_nnz_and_density(self, small_sparse, matrix_in_fmt):
        nnz = int(np.count_nonzero(small_sparse))
        assert matrix_in_fmt.nnz == nnz
        assert matrix_in_fmt.density == pytest.approx(
            nnz / small_sparse.size
        )

    def test_storage_bytes_positive(self, matrix_in_fmt):
        assert matrix_in_fmt.storage_bytes() > 0

    def test_counter_reports_traffic(self, matrix_in_fmt, rng):
        from repro.perf import OpCounter

        c = OpCounter()
        x = rng.standard_normal(matrix_in_fmt.shape[1])
        matrix_in_fmt.matvec(x, counter=c)
        assert c.flops > 0
        assert c.bytes_read > 0
        assert c.bytes_written > 0
