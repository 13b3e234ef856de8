"""The parallel entry points on formats without a split: the serial
kernel, bit for bit, with the caller's counter forwarded."""

import numpy as np

from repro.formats import SparseVector, from_dense
from repro.parallel import WorkerPool, parallel_matmat, parallel_smsv_multi
from repro.perf.counters import OpCounter


class TestParallelSell:
    """SELL (and COO) run the serial kernel: no blocks, counter kept."""

    def _sell(self, rng, m=1200, n=300, chunk=8):
        from repro.data.synthetic import powerlaw_rows_matrix
        from repro.formats.sell import SELLMatrix

        rows, cols, vals, shape = powerlaw_rows_matrix(
            m, n, alpha=1.6, min_nnz=2, max_nnz=n // 2, seed=11
        )
        return SELLMatrix.from_coo(rows, cols, vals, shape, chunk=chunk)

    def test_sell_matmat_bitwise_matches_serial(self, rng):
        m = self._sell(rng)
        V = rng.standard_normal((300, 4))
        pool = WorkerPool(4)
        Y = parallel_matmat(m, V, pool=pool)
        assert not pool.executor_active
        assert np.array_equal(Y, m.matmat(V))
        pool.shutdown()

    def test_fallback_forwards_counter_without_blocks(self, rng):
        a = (rng.random((400, 60)) < 0.2) * rng.standard_normal((400, 60))
        m = from_dense(a, "COO")
        counter = OpCounter()
        with WorkerPool(2) as pool:
            Y = parallel_matmat(
                m, np.zeros((60, 2)), pool=pool, counter=counter
            )
        assert counter.parallel_blocks == 0
        assert counter.flops > 0  # serial kernel still counted
        assert counter.spmm_calls == 1
        assert np.array_equal(Y, np.zeros((400, 2)))

    def test_smsv_multi_forwards_counter(self, rng):
        m = self._sell(rng)
        vs = [
            SparseVector.from_dense(
                rng.standard_normal(300) * (rng.random(300) < 0.3)
            )
            for _ in range(3)
        ]
        counter, serial = OpCounter(), OpCounter()
        with WorkerPool(4) as pool:
            Y = parallel_smsv_multi(m, vs, pool=pool, counter=counter)
        assert np.array_equal(Y, m.smsv_multi(vs, serial))
        assert counter.parallel_blocks == 0
        assert counter == serial
