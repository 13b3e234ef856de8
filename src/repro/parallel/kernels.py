"""Parallel matvec / SMSV over row blocks.

The paper parallelises the SMO bottleneck with OpenMP across rows.
These helpers do the shared-memory Python equivalent: partition the
output rows, run each block's kernel on a pool thread (NumPy's ufuncs
and BLAS release the GIL for large blocks), write into disjoint output
slices.  This module splits; the formats compute.  Each block is a
matrix of the same format on views of the parent's arrays (the
format's ``_row_block``), and a block runs that format's own serial
``matvec``/``matmat`` — so the split product is bit-for-bit the serial
one, with no second copy of any kernel to keep in step.

Partitioning is nnz-balanced, not row-count-balanced: CSR weighs its
rows by ``dim_i`` and SELL weighs its slices by their padded size, and
both partition with :func:`~repro.parallel.partition.balanced_chunks`,
so one dense row — or one wide slice — cannot serialise the whole
product on a single hot block.  That is the same load-balancing
concern behind the paper's ``vdim`` parameter.  SELL blocks start on
slice boundaries, so each block's slices are the parent's and their
widths stay tight.  ELL pads every row to the same width and reduces
to equal-count blocks, which *is* its nnz-balanced partition.  The
planned per-block work is reported to an
:class:`~repro.perf.counters.OpCounter` (``parallel_blocks`` /
``parallel_work_total`` / ``parallel_work_max``) so tests and benches
can assert balance.

DEN is the exception: BLAS groups a GEMV's rows by their position, so
a GEMV over a row slice can sum a row's products in a different order
than the full-matrix GEMV and differ in the last bits.  DEN therefore
never slices rows: :func:`parallel_matmat` splits its columns, each
block the serial ``matmat`` on its columns of ``V``, and
:func:`parallel_matvec` runs the serial kernel.

SMO is the production caller: from :data:`DEN_PAIR_MIN_ELEMENTS` up,
a DEN fit computes its fused kernel-row pair through
:func:`parallel_smsv_multi` (:mod:`repro.svm.smo`).  The blocks run
uncounted; every split product then records in an
:class:`~repro.perf.counters.OpCounter` what the serial kernel it
splits records (flops, bytes, SpMM calls and columns, via the format's
``_count_sweep``), plus the ``parallel_*`` partition fields, so counts
never depend on the path taken.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.analysis.race import check_disjoint_blocks, get_race_sanitizer
from repro.formats.base import (
    VALUE_DTYPE,
    MatrixFormat,
    SparseVector,
    _scatter,
)
from repro.formats.csr import CSRMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.sell import SELLMatrix
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.partition import (
    balanced_chunks,
    default_min_rows_per_block,
    row_blocks,
)
from repro.parallel.pool import WorkerPool, shared_pool
from repro.perf.counters import OpCounter

#: Formats with a contiguous row-sliced kernel path.
_SLICEABLE = (CSRMatrix, ELLMatrix, SELLMatrix)

#: Stored elements (``M * N``) from which SMO splits a DEN matrix's
#: fused kernel-row pair across two threads; below it the pair stays
#: serial.  Sized from the break-even table in ``docs/perf.md``.
DEN_PAIR_MIN_ELEMENTS = 750_000


def _blocks_for(
    matrix: MatrixFormat,
    n_blocks: int,
    counter: Optional[OpCounter] = None,
):
    """The row blocks of the partition; each block's planned work goes
    to ``counter``: its entries (CSR), stored slots (SELL) or rows
    (ELL)."""
    m = matrix.shape[0]
    if isinstance(matrix, CSRMatrix):
        starts = matrix.row_ptr
        blocks = balanced_chunks(np.diff(starts), n_blocks)
    elif isinstance(matrix, SELLMatrix):
        # Whole slices, weighed by their padded size C_s * w_s.
        bounds = np.minimum(
            np.arange(matrix.n_slices + 1) * matrix.chunk, m
        )
        starts = matrix.row_starts
        blocks = [
            (int(bounds[s]), int(bounds[e]))
            for s, e in balanced_chunks(np.diff(starts[bounds]), n_blocks)
        ]
    else:  # ELL: every row costs the padded width
        starts = np.arange(m + 1)
        blocks = row_blocks(m, n_blocks)
    if counter is not None:
        counter.add_parallel_blocks(
            int(starts[e] - starts[s]) for s, e in blocks
        )
    return blocks


def _plan_blocks(
    matrix: MatrixFormat,
    pool: Optional[WorkerPool],
    min_rows_per_block: Optional[int],
) -> int:
    """Row-block count for the partition, without touching the executor.

    Uses the width of the pool handed in, else of the shared pool the
    blocks would run on (reading it builds no executor) — so the
    single-block (serial) case is decided *before* any executor exists
    and never constructs one.  A ``None`` granularity takes
    :func:`~repro.parallel.partition.default_min_rows_per_block`.
    """
    if min_rows_per_block is None:
        min_rows_per_block = default_min_rows_per_block()
    workers = (pool if pool is not None else shared_pool()).n_workers
    return min(workers, max(1, matrix.shape[0] // min_rows_per_block))


def _run_blocks(
    pool: WorkerPool,
    work,
    blocks,
    op: str,
    matrix: MatrixFormat,
    extent: Optional[int] = None,
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
    partition: the matrix's rows unless given (DEN's column blocks).
    """
    if get_race_sanitizer().enabled:
        # The block closures write raw NumPy slices the attribute
        # descriptors cannot see; their race freedom rests entirely on
        # the partition being disjoint, so check exactly that.
        check_disjoint_blocks(
            blocks, matrix.shape[0] if extent is None else extent
        )
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
            help="wall time of one row-block kernel",
        ).observe(clock() - t0)
        shard.counter(
            "repro_parallel.blocks", help="row blocks dispatched"
        ).inc()

    with tracer.span(op) as sp:
        if tracer.enabled:
            sp.set("fmt", matrix.name)
            sp.set("n_blocks", len(blocks))
            sp.set("m", matrix.shape[0])
        pool.map(timed, list(enumerate(blocks)))
    for shard in shards:
        registry.merge(shard)


def parallel_matvec(
    matrix: MatrixFormat,
    x: np.ndarray,
    *,
    pool: Optional[WorkerPool] = None,
    min_rows_per_block: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """``y = Ax`` with row blocks on pool threads.

    Supported formats: CSR, ELL, SELL (the row-sliceable layouts).
    Falls back to the serial kernel when the matrix is too small for
    blocking to pay (``min_rows_per_block``) or the format has no
    row-sliced path (COO/DIA partition by elements/diagonals, not
    rows; permuted wrappers scatter outputs, so their row blocks are
    not contiguous in the original index space; a DEN row slice would
    re-associate BLAS's sums).

    The result is bit-for-bit identical to the serial kernel: every
    block runs the format's own kernel on its ``_row_block``.
    ``counter`` receives the serial kernel's counts plus the planned
    per-block work of the partition (``parallel_*`` fields); on the
    serial fallback it is forwarded to the format kernel.
    """
    x = np.asarray(x, dtype=VALUE_DTYPE)
    if x.shape != (matrix.shape[1],):
        raise ValueError(
            f"matvec expects x of shape ({matrix.shape[1]},), got {x.shape}"
        )
    m = matrix.shape[0]
    n_blocks = _plan_blocks(matrix, pool, min_rows_per_block)
    if n_blocks <= 1 or not isinstance(matrix, _SLICEABLE):
        # Serial path: never touches (or lazily constructs) a pool.
        return matrix.matvec(x, counter)
    pool = pool if pool is not None else shared_pool()

    y = np.empty(m, dtype=VALUE_DTYPE)
    blocks = _blocks_for(matrix, n_blocks, counter)

    def work(block):
        s, e = block
        y[s:e] = matrix._row_block(s, e).matvec(x)

    _run_blocks(pool, work, blocks, "parallel.matvec", matrix)
    matrix._count_sweep(counter, 1, spmm=False)
    return y


def parallel_smsv(
    matrix: MatrixFormat,
    v: SparseVector,
    *,
    pool: Optional[WorkerPool] = None,
    min_rows_per_block: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Parallel sparse-matrix x sparse-vector: the serial
    :meth:`~repro.formats.base.MatrixFormat.smsv`'s scatter, then
    :func:`parallel_matvec`."""
    return parallel_matvec(
        matrix,
        _scatter((v,), matrix.shape[1], counter)[0],
        pool=pool,
        min_rows_per_block=min_rows_per_block,
        counter=counter,
    )


def parallel_matmat(
    matrix: MatrixFormat,
    V: np.ndarray,
    *,
    pool: Optional[WorkerPool] = None,
    min_rows_per_block: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Row-block parallel SpMM: ``Y = AV`` for a dense ``(N, k)`` block.

    Each pool thread runs the format's own serial
    :meth:`~repro.formats.base.MatrixFormat.matmat` on its
    ``_row_block`` — so every output element is computed by the exact
    serial op sequence (bit-for-bit identical to ``matrix.matmat(V)``),
    and blocks write disjoint output slices.  DEN splits the columns
    instead: each block runs the serial ``matmat`` on its columns of
    ``V``, at most ``k`` blocks.  Formats without a row-sliced path
    (COO/DIA, permuted wrappers) and single-block partitions fall back
    to the serial kernel without constructing a pool.  ``counter``
    receives the serial kernel's counts plus the partition's planned
    per-block work (``M`` per DEN column), or is forwarded to the
    serial kernel on the fallback path.
    """
    V = np.asarray(V, dtype=VALUE_DTYPE)
    if V.ndim != 2 or V.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"matmat expects V of shape ({matrix.shape[1]}, k), "
            f"got {V.shape}"
        )
    m, k = matrix.shape[0], V.shape[1]
    n_blocks = _plan_blocks(matrix, pool, min_rows_per_block)
    dense = isinstance(matrix, DenseMatrix)
    if dense:
        n_blocks = min(n_blocks, k)
    sliceable = dense or isinstance(matrix, _SLICEABLE)
    if n_blocks <= 1 or k == 0 or not sliceable:
        return matrix.matmat(V, counter)
    pool = pool if pool is not None else shared_pool()

    if dense:
        blocks = row_blocks(k, n_blocks)
        if counter is not None:
            counter.add_parallel_blocks(m * (e - s) for s, e in blocks)
    else:
        blocks = _blocks_for(matrix, n_blocks, counter)
    # One column-major copy of V shared by every block (DEN's and ELL's
    # kernels would otherwise each make their own), and the serial
    # kernels' (k, M) accumulator, returned as its (M, k) view.
    V = np.asfortranarray(V)
    yT = np.empty((k, m), dtype=VALUE_DTYPE)

    def work(block):
        s, e = block
        if dense:
            yT[s:e] = matrix.matmat(V[:, s:e]).T
        else:
            yT[:, s:e] = matrix._row_block(s, e).matmat(V).T

    _run_blocks(
        pool, work, blocks, "parallel.matmat", matrix, k if dense else None
    )
    matrix._count_sweep(counter, k, spmm=True)
    return yT.T


def parallel_smsv_multi(
    matrix: MatrixFormat,
    vectors,
    *,
    pool: Optional[WorkerPool] = None,
    min_rows_per_block: Optional[int] = None,
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
        min_rows_per_block=min_rows_per_block,
        counter=counter,
    )
