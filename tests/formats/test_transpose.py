"""Transpose of every storage format."""

import numpy as np
import pytest

from repro.formats import FORMAT_CLASSES, from_dense


class TestTranspose:
    @pytest.mark.parametrize("fmt", tuple(FORMAT_CLASSES))
    def test_transpose_all_formats(self, small_sparse, fmt):
        m = from_dense(small_sparse, fmt)
        t = m.transpose()
        assert t.name == fmt
        assert t.shape == (30, 40)
        assert np.allclose(t.to_dense(), small_sparse.T)

    def test_double_transpose_identity(self, small_sparse):
        m = from_dense(small_sparse, "CSR")
        assert np.allclose(m.T.T.to_dense(), small_sparse)

    def test_transpose_matvec(self, small_sparse, rng):
        m = from_dense(small_sparse, "CSR")
        x = rng.standard_normal(40)
        assert np.allclose(m.T.matvec(x), small_sparse.T @ x)
