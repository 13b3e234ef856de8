"""DEN column-split SpMM: serial identity, serial fast path."""

import numpy as np
import pytest

from repro.formats import SparseVector, from_dense
from repro.parallel import (
    WorkerPool,
    parallel_matmat,
    parallel_smsv_multi,
)
from repro.perf.counters import OpCounter


@pytest.fixture
def big_sparse(rng):
    a = (rng.random((2000, 150)) < 0.1) * rng.standard_normal((2000, 150))
    a[7] = 0.0  # an empty row inside a block
    return a


def _sparse_vectors(rng, n, k):
    out = []
    for _ in range(k):
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.6] = 0.0
        out.append(SparseVector.from_dense(x))
    return out


class TestParallelMatmat:
    @pytest.mark.parametrize("fmt", ["DEN", "CSR", "ELL", "SELL"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitwise_identical_to_serial(
        self, big_sparse, rng, fmt, workers
    ):
        m = from_dense(big_sparse, fmt)
        V = rng.standard_normal((150, 3))
        with WorkerPool(workers) as pool:
            Y = parallel_matmat(m, V, pool=pool)
        # DEN's blocks run the serial kernel on contiguous column
        # slices and the other formats run it whole, so the result is
        # exactly the serial one — not just close.
        np.testing.assert_array_equal(Y, m.matmat(V))

    @pytest.mark.parametrize("shape", [(1500, 1250), (333, 77)])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dense_bitwise_at_reassociating_shapes(self, rng, shape, workers):
        # Shapes where a GEMV over a row slice sums in a different order
        # than the full-matrix GEMV; DEN must still match exactly.
        m = from_dense(rng.standard_normal(shape), "DEN")
        V = rng.standard_normal((shape[1], 3))
        with WorkerPool(workers) as pool:
            Y = parallel_matmat(m, V, pool=pool)
        np.testing.assert_array_equal(Y, m.matmat(V))

    @pytest.mark.parametrize("fmt", ["COO", "DIA"])
    def test_unsupported_formats_fall_back(self, big_sparse, rng, fmt):
        m = from_dense(big_sparse[:100], fmt)
        V = rng.standard_normal((150, 2))
        with WorkerPool(4) as pool:
            Y = parallel_matmat(m, V, pool=pool)
        np.testing.assert_array_equal(Y, m.matmat(V))

    def test_k_zero_falls_back(self, big_sparse):
        m = from_dense(big_sparse, "DEN")
        with WorkerPool(4) as pool:
            Y = parallel_matmat(m, np.zeros((150, 0)), pool=pool)
        assert Y.shape == (2000, 0)

    def test_shape_validation(self, big_sparse, rng):
        m = from_dense(big_sparse, "CSR")
        with pytest.raises(ValueError, match="matmat expects"):
            parallel_matmat(m, rng.standard_normal((3, 2)))

    def test_single_block_skips_executor(self, big_sparse, rng):
        # One block (a single column) must never construct a
        # ThreadPoolExecutor.
        m = from_dense(big_sparse, "DEN")
        V = rng.standard_normal((150, 1))
        pool = WorkerPool(4)
        Y = parallel_matmat(m, V, pool=pool)
        assert not pool.executor_active
        np.testing.assert_array_equal(Y, m.matmat(V))
        pool.shutdown()

    def test_single_worker_skips_executor(self, big_sparse, rng):
        m = from_dense(big_sparse, "DEN")
        V = rng.standard_normal((150, 2))
        pool = WorkerPool(1)
        Y = parallel_matmat(m, V, pool=pool)
        assert not pool.executor_active
        np.testing.assert_array_equal(Y, m.matmat(V))
        pool.shutdown()

    def test_serial_fallback_forwards_counter(self, big_sparse, rng):
        m = from_dense(big_sparse, "DEN")
        V = rng.standard_normal((150, 2))
        counter, serial = OpCounter(), OpCounter()
        with WorkerPool(1) as pool:
            Y = parallel_matmat(m, V, pool=pool, counter=counter)
        np.testing.assert_array_equal(Y, m.matmat(V, serial))
        assert counter.parallel_blocks == 0
        assert counter == serial and serial.flops > 0


class TestParallelSmsvMulti:
    @pytest.mark.parametrize("fmt", ["DEN", "CSR", "ELL", "SELL"])
    def test_bitwise_identical_to_serial(self, big_sparse, rng, fmt):
        m = from_dense(big_sparse, fmt)
        vectors = _sparse_vectors(rng, 150, 3)
        with WorkerPool(4) as pool:
            Y = parallel_smsv_multi(m, vectors, pool=pool)
        np.testing.assert_array_equal(Y, m.smsv_multi(vectors))

    def test_length_validation(self, big_sparse):
        m = from_dense(big_sparse, "CSR")
        bad = SparseVector.from_dense(np.ones(7))
        with pytest.raises(ValueError, match="length"):
            parallel_smsv_multi(m, [bad])

    def test_empty_batch(self, big_sparse):
        m = from_dense(big_sparse, "CSR")
        with WorkerPool(2) as pool:
            Y = parallel_smsv_multi(m, [], pool=pool)
        assert Y.shape == (2000, 0)


class TestCounterParity:
    """A split product records what the serial kernel it splits records:
    every ``OpCounter`` field but the ``parallel_*`` partition ones."""

    OPS = ("matmat", "smsv_multi")

    @staticmethod
    def _run(m, op, rng_seed, parallel):
        rng = np.random.default_rng(rng_seed)
        n = m.shape[1]
        V = rng.standard_normal((n, 3))
        vs = _sparse_vectors(rng, n, 2)
        counter = OpCounter()
        arg = V if op == "matmat" else vs
        if not parallel:
            return getattr(m, op)(arg, counter), counter
        split = {"matmat": parallel_matmat, "smsv_multi": parallel_smsv_multi}
        with WorkerPool(2) as pool:
            out = split[op](m, arg, pool=pool, counter=counter)
        return out, counter

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("fmt", ["CSR", "ELL", "SELL", "DEN"])
    def test_parallel_counts_equal_serial(self, big_sparse, fmt, op):
        m = from_dense(big_sparse, fmt)
        ser, c_ser = self._run(m, op, 5, parallel=False)
        par, c_par = self._run(m, op, 5, parallel=True)
        if fmt == "DEN":
            assert c_par.parallel_blocks == 2  # the split path ran
            assert c_par.parallel_work_total == m.shape[0] * ser.shape[1]
        else:
            assert c_par.parallel_blocks == 0  # the serial kernel ran
        assert np.array_equal(ser, par)
        for name in c_ser.field_names():
            if not name.startswith("parallel_"):
                assert getattr(c_par, name) == getattr(c_ser, name), name
        assert c_ser.flops > 0 and c_ser.bytes_read > 0
