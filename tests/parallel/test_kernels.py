"""Parallel matvec/SMSV: identical results, disjoint writes."""

import numpy as np
import pytest

from repro.formats import SparseVector, from_dense
from repro.parallel import WorkerPool, parallel_matvec, parallel_smsv
from repro.data.synthetic import matrix_with_vdim
from repro.formats.csr import CSRMatrix


@pytest.fixture
def big_sparse(rng):
    a = (rng.random((2000, 150)) < 0.1) * rng.standard_normal((2000, 150))
    a[7] = 0.0  # an empty row inside a block
    return a


class TestParallelMatvec:
    @pytest.mark.parametrize("fmt", ["DEN", "CSR", "ELL", "SELL"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, big_sparse, rng, fmt, workers):
        m = from_dense(big_sparse, fmt)
        x = rng.standard_normal(150)
        with WorkerPool(workers) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=100)
        np.testing.assert_array_equal(y, m.matvec(x))

    @pytest.mark.parametrize("shape", [(1500, 1250), (333, 77)])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dense_bitwise_at_reassociating_shapes(self, rng, shape, workers):
        # Shapes where a GEMV over a row slice sums in a different order
        # than the full-matrix GEMV; DEN must still match exactly.
        m = from_dense(rng.standard_normal(shape), "DEN")
        x = rng.standard_normal(shape[1])
        with WorkerPool(workers) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=50)
        np.testing.assert_array_equal(y, m.matvec(x))

    @pytest.mark.parametrize("fmt", ["COO", "DIA"])
    def test_unsupported_formats_fall_back(self, big_sparse, rng, fmt):
        m = from_dense(big_sparse[:100], fmt)
        x = rng.standard_normal(150)
        with WorkerPool(4) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=10)
        assert np.allclose(y, big_sparse[:100] @ x)

    def test_small_matrix_serial_fast_path(self, rng):
        a = rng.standard_normal((50, 10))
        m = from_dense(a, "CSR")
        x = rng.standard_normal(10)
        with WorkerPool(4) as pool:
            y = parallel_matvec(m, x, pool=pool)  # 50 < 256 rows
        assert np.allclose(y, a @ x)

    def test_shape_validation(self, big_sparse, rng):
        m = from_dense(big_sparse, "CSR")
        with pytest.raises(ValueError, match="matvec expects"):
            parallel_matvec(m, rng.standard_normal(3))

    def test_skewed_rows_balanced_csr(self, rng):
        # A matrix with one huge row: the weighted partitioner must
        # still produce the serial kernel's bits.
        rows, cols, vals, shape = matrix_with_vdim(
            1500, 2000, adim=20, vdim=256.0, seed=0
        )
        m = CSRMatrix.from_coo(rows, cols, vals, shape)
        x = rng.standard_normal(2000)
        with WorkerPool(4) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=100)
        np.testing.assert_array_equal(y, m.matvec(x))


class TestParallelSMSV:
    def test_matches_serial_smsv(self, big_sparse, rng):
        m = from_dense(big_sparse, "CSR")
        xv = rng.standard_normal(150) * (rng.random(150) < 0.4)
        v = SparseVector.from_dense(xv)
        with WorkerPool(4) as pool:
            y = parallel_smsv(m, v, pool=pool, min_rows_per_block=100)
        np.testing.assert_array_equal(y, m.smsv(v))


class TestParallelSell:
    """PR 4: SELL row-block kernels + nnz-balanced work accounting."""

    def _sell(self, rng, m=1200, n=300, chunk=8):
        from repro.data.synthetic import powerlaw_rows_matrix
        from repro.formats.sell import SELLMatrix

        rows, cols, vals, shape = powerlaw_rows_matrix(
            m, n, alpha=1.6, min_nnz=2, max_nnz=n // 2, seed=11
        )
        return SELLMatrix.from_coo(rows, cols, vals, shape, chunk=chunk)

    def test_sell_matvec_bitwise_matches_serial(self, rng):
        from repro.parallel import parallel_matvec

        m = self._sell(rng)
        x = rng.standard_normal(300)
        with WorkerPool(4) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=50)
        assert np.array_equal(y, m.matvec(x))

    def test_sell_matmat_bitwise_matches_serial(self, rng):
        from repro.parallel import parallel_matmat

        m = self._sell(rng)
        V = rng.standard_normal((300, 4))
        with WorkerPool(4) as pool:
            Y = parallel_matmat(m, V, pool=pool, min_rows_per_block=50)
        assert np.array_equal(Y, m.matmat(V))

    def test_sell_matvec_bitwise_matches_csr(self, rng):
        from repro.parallel import parallel_matvec

        m = self._sell(rng)
        r, c, v = m.to_coo()
        ref = CSRMatrix.from_coo(r, c, v, m.shape)
        x = rng.standard_normal(300)
        with WorkerPool(3) as pool:
            y = parallel_matvec(m, x, pool=pool, min_rows_per_block=50)
        assert np.array_equal(y, ref.matvec(x))

    @pytest.mark.parametrize("fmt", ["CSR", "ELL", "SELL"])
    @pytest.mark.parametrize("case", ["empty_rows", "no_entries"])
    def test_row_blocks_are_valid_and_exact(self, rng, fmt, case):
        # Every block of the partition is a valid matrix of its format
        # whose kernels give exactly its rows of the serial product.
        # 203 rows leave SELL's last 8-row slice partial; a matrix with
        # no entries is ELL's width-zero case.
        from repro.analysis.sanitize import check_format
        from repro.formats import format_class
        from repro.parallel import parallel_matmat
        from repro.parallel.kernels import _blocks_for

        a = (rng.random((203, 40)) < 0.2) * rng.standard_normal((203, 40))
        a[[7, 100, 101]] = 0.0  # empty rows inside blocks
        if case == "no_entries":
            a[:] = 0.0
        r, c = np.nonzero(a)
        kw = {"chunk": 8} if fmt == "SELL" else {}
        m = format_class(fmt).from_coo(r, c, a[r, c], a.shape, **kw)
        if fmt == "ELL" and case == "no_entries":
            assert m.mdim == 0
        x = rng.standard_normal(40)
        V = rng.standard_normal((40, 3))
        y, Y = m.matvec(x), m.matmat(V)
        blocks = _blocks_for(m, 4)
        assert len(blocks) > 1
        assert [s for s, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
        assert blocks[-1][1] == 203
        for s, e in blocks:
            block = m._row_block(s, e)
            check_format(block, deep=True)
            np.testing.assert_array_equal(block.matvec(x), y[s:e])
            np.testing.assert_array_equal(block.matmat(V), Y[s:e])
        with WorkerPool(4) as pool:
            opts = dict(pool=pool, min_rows_per_block=16)
            np.testing.assert_array_equal(parallel_matvec(m, x, **opts), y)
            np.testing.assert_array_equal(parallel_matmat(m, V, **opts), Y)

    def test_sell_row_block_must_cover_whole_slices(self, rng):
        m = self._sell(rng)
        with pytest.raises(ValueError, match="whole slices"):
            m._row_block(4, 16)
        with pytest.raises(ValueError, match="whole slices"):
            m._row_block(8, 20)

    def test_counter_reports_nnz_balanced_blocks(self, rng):
        from repro.parallel import parallel_matvec
        from repro.perf.counters import OpCounter

        m = self._sell(rng)
        counter = OpCounter()
        with WorkerPool(4) as pool:
            parallel_matvec(
                m, np.zeros(300), pool=pool,
                min_rows_per_block=50, counter=counter,
            )
        assert counter.parallel_blocks >= 2
        # per-block work sums to the stored (padded) element count...
        assert counter.parallel_work_total == m.padded_elements
        # ...and the nnz-weighted split keeps the largest block well
        # under a naive even-rows split would on this skewed matrix.
        assert (
            counter.parallel_work_max
            < 2 * m.padded_elements / counter.parallel_blocks
        )

    def test_csr_counter_work_is_true_nnz(self, rng):
        from repro.parallel import parallel_matvec
        from repro.perf.counters import OpCounter

        a = (rng.random((1500, 100)) < 0.1) * rng.standard_normal(
            (1500, 100)
        )
        m = from_dense(a, "CSR")
        counter = OpCounter()
        with WorkerPool(4) as pool:
            parallel_matvec(
                m, np.zeros(100), pool=pool,
                min_rows_per_block=50, counter=counter,
            )
        assert counter.parallel_work_total == m.nnz

    def test_fallback_forwards_counter_without_blocks(self, rng):
        from repro.parallel import parallel_matvec
        from repro.perf.counters import OpCounter

        a = (rng.random((400, 60)) < 0.2) * rng.standard_normal((400, 60))
        m = from_dense(a, "COO")  # no row-sliced path
        counter = OpCounter()
        with WorkerPool(2) as pool:
            y = parallel_matvec(
                m, np.zeros(60), pool=pool,
                min_rows_per_block=10, counter=counter,
            )
        assert counter.parallel_blocks == 0
        assert counter.flops > 0  # serial kernel still counted
        assert np.allclose(y, np.zeros(400))

    def test_smsv_multi_forwards_counter(self, rng):
        from repro.parallel import parallel_smsv_multi
        from repro.perf.counters import OpCounter

        m = self._sell(rng)
        vs = [
            SparseVector.from_dense(
                rng.standard_normal(300) * (rng.random(300) < 0.3)
            )
            for _ in range(3)
        ]
        counter = OpCounter()
        with WorkerPool(4) as pool:
            Y = parallel_smsv_multi(
                m, vs, pool=pool, min_rows_per_block=50, counter=counter
            )
        assert np.array_equal(Y, m.smsv_multi(vs))
        assert counter.parallel_blocks >= 2
