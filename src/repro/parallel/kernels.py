"""Parallel SpMM over DEN column blocks: SMO's fused kernel-row pair.

The paper parallelises the SMO bottleneck with OpenMP.  The one split
here that a fit runs is over the right-hand-side columns of a DEN
matrix's product: from :data:`DEN_PAIR_MIN_ELEMENTS` up, SMO computes
its fused kernel-row pair through :func:`parallel_smsv_multi`
(:mod:`repro.svm.smo`), one column per pool thread.  Each block is the
serial ``matmat`` on its columns of ``V`` — the full-matrix GEMV that
the serial kernel runs per column — so the split product is bit for
bit the serial one.  DEN never slices rows: BLAS groups a GEMV's rows
by their position, so a GEMV over a row slice can sum a row's products
in a different order than the full-matrix GEMV.

Every other format, a pool of one worker and a single column run the
serial kernel.  A row split for CSR, ELL and SELL lost to the serial
kernel at every Table V clone size in the format the scheduler picks
(``docs/perf.md``), and SMO never meets the sizes where it wins, so it
is not offered.

The blocks run uncounted; every split product records in an
:class:`~repro.perf.counters.OpCounter` what the serial kernel records
(flops, bytes, SpMM calls and columns, via the format's
``_count_sweep``), plus the ``parallel_*`` partition fields, so counts
never depend on the path taken.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.analysis.race import check_disjoint_blocks, get_race_sanitizer
from repro.formats.base import VALUE_DTYPE, MatrixFormat, _scatter
from repro.formats.dense import DenseMatrix
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.partition import row_blocks
from repro.parallel.pool import WorkerPool, shared_pool
from repro.perf.counters import OpCounter

#: Stored elements (``M * N``) from which SMO splits a DEN matrix's
#: fused kernel-row pair across two threads; below it the pair stays
#: serial.  Sized from the break-even table in ``docs/perf.md``.
DEN_PAIR_MIN_ELEMENTS = 750_000


def _run_blocks(
    pool: WorkerPool,
    work,
    blocks,
    op: str,
    matrix: MatrixFormat,
    extent: int,
) -> None:
    """Dispatch the block kernels, observing per-block wall time.

    Disabled tracing takes the bare ``pool.map`` path — no wrapper
    callable, no shards, no clock reads.  Under tracing, one span
    brackets the whole parallel region (contextvars do not propagate
    onto pool threads, so per-block *spans* would detach from the
    tree) and each block times itself into a lock-free
    :class:`~repro.obs.metrics.MetricsShard`, merged into the process
    registry in one locked pass per block — the block kernels
    themselves stay lock-free.  ``extent`` is the length the blocks
    partition (DEN's columns).
    """
    if get_race_sanitizer().enabled:
        # The block closures write raw NumPy slices the attribute
        # descriptors cannot see; their race freedom rests entirely on
        # the partition being disjoint, so check exactly that.
        check_disjoint_blocks(blocks, extent)
    tracer = get_tracer()
    if not tracer.enabled:
        pool.map(work, blocks)
        return
    registry = get_registry()
    shards = [registry.shard() for _ in blocks]
    clock = time.perf_counter

    def timed(ib):
        i, block = ib
        t0 = clock()
        work(block)
        shard = shards[i]
        shard.histogram(
            "repro_parallel.block_seconds",
            help="wall time of one block kernel",
        ).observe(clock() - t0)
        shard.counter(
            "repro_parallel.blocks", help="blocks dispatched"
        ).inc()

    with tracer.span(op) as sp:
        if tracer.enabled:
            sp.set("fmt", matrix.name)
            sp.set("n_blocks", len(blocks))
            sp.set("m", matrix.shape[0])
        pool.map(timed, list(enumerate(blocks)))
    for shard in shards:
        registry.merge(shard)


def parallel_matmat(
    matrix: MatrixFormat,
    V: np.ndarray,
    *,
    pool: Optional[WorkerPool] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """``Y = AV`` for a dense ``(N, k)`` block, DEN's columns split.

    A DEN matrix splits ``V``'s columns into ``min(pool width, k)``
    contiguous blocks; each pool thread runs the serial
    :meth:`~repro.formats.base.MatrixFormat.matmat` on its columns and
    writes a disjoint slice of the output, so the result is bit for bit
    ``matrix.matmat(V)``.  The pool width is read from the pool handed
    in, else from the shared pool, without building an executor; any
    other format, a width of 1 and ``k <= 1`` run the serial kernel
    with ``counter`` forwarded.  On the split path ``counter`` receives
    the serial kernel's counts plus each block's planned work (``M``
    per column).
    """
    V = np.asarray(V, dtype=VALUE_DTYPE)
    if V.ndim != 2 or V.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"matmat expects V of shape ({matrix.shape[1]}, k), "
            f"got {V.shape}"
        )
    m, k = matrix.shape[0], V.shape[1]
    if not isinstance(matrix, DenseMatrix):
        return matrix.matmat(V, counter)
    # Reading the width builds no executor: a serial call never does.
    pool = pool if pool is not None else shared_pool()
    n_blocks = min(pool.n_workers, k)
    if n_blocks <= 1:
        return matrix.matmat(V, counter)

    blocks = row_blocks(k, n_blocks)
    if counter is not None:
        counter.add_parallel_blocks(m * (e - s) for s, e in blocks)
    # One column-major copy of V shared by every block, and the serial
    # kernel's (k, M) accumulator, returned as its (M, k) view.
    V = np.asfortranarray(V)
    yT = np.empty((k, m), dtype=VALUE_DTYPE)

    def work(block):
        s, e = block
        yT[s:e] = matrix.matmat(V[:, s:e]).T

    _run_blocks(pool, work, blocks, "parallel.matmat", matrix, k)
    matrix._count_sweep(counter, k, spmm=True)
    return yT.T


def parallel_smsv_multi(
    matrix: MatrixFormat,
    vectors,
    *,
    pool: Optional[WorkerPool] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Parallel multi-vector SMSV: the serial
    :meth:`~repro.formats.base.MatrixFormat.smsv_multi`'s scatter, then
    :func:`parallel_matmat` — so DEN's column GEMVs read the very
    operand layout the serial kernel reads."""
    return parallel_matmat(
        matrix,
        _scatter(vectors, matrix.shape[1], counter).T,
        pool=pool,
        counter=counter,
    )
