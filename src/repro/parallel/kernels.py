"""Parallel matvec / SMSV over row blocks.

The paper parallelises the SMO bottleneck with OpenMP across rows.
These helpers do the shared-memory Python equivalent: partition the
output rows, run each block's kernel on a pool thread (NumPy's ufuncs
and BLAS release the GIL for large blocks), write into disjoint output
slices.

Partitioning is nnz-balanced, not row-count-balanced: every format
with per-row work variation (CSR by ``dim_i``, SELL by its padded
slice width) partitions with :func:`~repro.parallel.partition.
balanced_chunks` over its per-row work weights, so one dense row —
or one wide slice — cannot serialise the whole product on a single
hot block.  That is the same load-balancing concern behind the
paper's ``vdim`` parameter.  ELL pads every row to the same width
and reduces to equal-count blocks, which *is* its nnz-balanced
partition.  The planned per-block work is reported to an
:class:`~repro.perf.counters.OpCounter` (``parallel_blocks`` /
``parallel_work_total`` / ``parallel_work_max``) so tests and benches
can assert balance.

DEN is the exception: BLAS groups a GEMV's rows by their position, so
a GEMV over a row slice can sum a row's products in a different order
than the full-matrix GEMV and differ in the last bits.  DEN therefore
never slices rows: :func:`parallel_matmat` splits its columns, each
one the serial kernel's full-matrix GEMV, and :func:`parallel_matvec`
runs the serial kernel.

SMO is the production caller: from :data:`DEN_PAIR_MIN_ELEMENTS` up,
a DEN fit computes its fused kernel-row pair through
:func:`parallel_smsv_multi` (:mod:`repro.svm.smo`).  Every split
product records in an :class:`~repro.perf.counters.OpCounter` what the
serial kernel it splits records (flops, bytes, SpMM calls and
columns, via the format's ``_count_sweep``), plus the ``parallel_*``
partition fields, so counts never depend on the path taken.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.analysis.race import check_disjoint_blocks, get_race_sanitizer
from repro.formats.base import VALUE_DTYPE, MatrixFormat, SparseVector
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


def _work_weights(matrix: MatrixFormat) -> Optional[np.ndarray]:
    """Per-row work weights, or None when rows cost uniformly.

    CSR streams ``dim_i`` elements per row; SELL streams its padded
    per-row slice width (padding is real work); ELL pads every row to
    the same width, so equal row counts are already balanced.
    """
    if isinstance(matrix, CSRMatrix):
        return np.asarray(matrix.row_lengths, dtype=np.int64)
    if isinstance(matrix, SELLMatrix):
        return np.diff(matrix.row_starts)
    return None


def _blocks_for(
    matrix: MatrixFormat,
    n_blocks: int,
    counter: Optional[OpCounter] = None,
):
    weights = _work_weights(matrix)
    if weights is not None:
        blocks = balanced_chunks(weights, n_blocks)
    else:
        blocks = row_blocks(matrix.shape[0], n_blocks)
    if counter is not None:
        m = matrix.shape[0]
        if weights is None:
            weights = np.ones(m, dtype=np.int64)
        starts = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(weights, out=starts[1:])
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
    """``y = A @ x`` with row blocks on pool threads.

    Supported formats: CSR, ELL, SELL (the row-sliceable layouts).
    Falls back to the serial kernel when the matrix is too small for
    blocking to pay (``min_rows_per_block``) or the format has no
    row-sliced path (COO/DIA partition by elements/diagonals, not
    rows; permuted wrappers scatter outputs, so their row blocks are
    not contiguous in the original index space; a DEN row slice would
    re-associate BLAS's sums).

    The result is bit-for-bit identical to the serial kernel: every
    block runs the serial kernel's op sequence on its contiguous slice.
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

    if isinstance(matrix, ELLMatrix):
        data, indices = matrix.data, matrix.indices

        def work(block):
            s, e = block
            if data.shape[1]:
                y[s:e] = np.einsum(
                    "ij,ij->i", data[s:e], x[indices[s:e]]
                )
            else:
                y[s:e] = 0.0

    elif isinstance(matrix, SELLMatrix):
        data, indices = matrix.data, matrix.indices
        flat_starts = matrix.row_starts
        valid, cstarts = matrix._valid, matrix._csr_starts

        def work(block):
            s, e = block
            lo, hi = int(flat_starts[s]), int(flat_starts[e])
            y[s:e] = 0.0
            if hi > lo:
                # Padded multiply over the block's flat slots, then
                # compress — the serial kernel's exact op sequence.
                prod = (data[lo:hi] * x[indices[lo:hi]])[valid[lo:hi]]
                clo = int(cstarts[s])
                starts = cstarts[s:e] - clo
                nonempty = starts < (cstarts[s + 1 : e + 1] - clo)
                if np.any(nonempty):
                    seg = np.add.reduceat(prod, starts[nonempty])
                    out = np.zeros(e - s)
                    out[nonempty] = seg
                    y[s:e] = out

    else:  # CSR
        vals, cols, ptr = matrix.values, matrix.col_idx, matrix.row_ptr

        def work(block):
            s, e = block
            lo, hi = int(ptr[s]), int(ptr[e])
            y[s:e] = 0.0
            if hi > lo:
                prod = vals[lo:hi] * x[cols[lo:hi]]
                starts = ptr[s:e] - lo
                nonempty = starts < (ptr[s + 1 : e + 1] - lo)
                if np.any(nonempty):
                    seg = np.add.reduceat(prod, starts[nonempty])
                    out = np.zeros(e - s)
                    out[nonempty] = seg
                    y[s:e] = out

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
    """Parallel sparse-matrix x sparse-vector (scatter + blocked matvec)."""
    x = v.to_dense()
    if counter is not None:
        counter.add_write(x.nbytes)  # the scatter, as the serial smsv
    return parallel_matvec(
        matrix,
        x,
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
    """Row-block parallel SpMM: ``Y = A @ V`` for a dense ``(N, k)`` block.

    Each pool thread runs the serial :meth:`~repro.formats.base.
    MatrixFormat.matmat` column recipe on its contiguous row block —
    so every output element is computed by the exact serial op sequence
    (bit-for-bit identical to ``matrix.matmat(V)``), and blocks write
    disjoint ``y[s:e]`` slices.  DEN splits the columns instead: each
    block runs the serial kernel's full-matrix GEMV for its columns,
    at most ``k`` blocks.  Formats without a row-sliced path (COO/DIA,
    permuted wrappers) and single-block partitions fall back to the
    serial kernel without constructing a pool.  ``counter`` receives
    the serial kernel's counts plus the partition's per-block work
    (rows swept; ``M`` per DEN column), or is forwarded to the serial
    kernel on the fallback path.
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
        VF = np.asfortranarray(V)
        # The serial kernel's (k, M) accumulator: column c is its GEMV.
        yT = np.empty((k, m), dtype=VALUE_DTYPE)

        def work(block):
            s, e = block
            for c in range(s, e):
                yT[c] = matrix.array @ VF[:, c]

        _run_blocks(pool, work, blocks, "parallel.matmat", matrix, k)
        matrix._count_sweep(counter, k, spmm=True)
        return yT.T

    y = np.empty((m, k), dtype=VALUE_DTYPE)
    blocks = _blocks_for(matrix, n_blocks, counter)

    if isinstance(matrix, ELLMatrix):
        data, indices = matrix.data, matrix.indices
        VT = np.ascontiguousarray(V.T)

        def work(block):
            s, e = block
            if data.shape[1]:
                gathered = VT.take(indices[s:e], axis=1)
                for c in range(k):
                    y[s:e, c] = np.einsum(
                        "ij,ij->i", data[s:e], gathered[c]
                    )
            else:
                y[s:e] = 0.0

    elif isinstance(matrix, SELLMatrix):
        data, indices = matrix.data, matrix.indices
        flat_starts = matrix.row_starts
        valid, cstarts = matrix._valid, matrix._csr_starts

        def work(block):
            s, e = block
            lo, hi = int(flat_starts[s]), int(flat_starts[e])
            y[s:e] = 0.0
            if hi > lo:
                bvalid = valid[lo:hi]
                clo = int(cstarts[s])
                nnz_blk = int(cstarts[e]) - clo
                starts = cstarts[s:e] - clo
                nonempty = starts < (cstarts[s + 1 : e + 1] - clo)
                prod = np.empty((k, nnz_blk), dtype=VALUE_DTYPE)
                for c in range(k):
                    np.compress(
                        bvalid,
                        data[lo:hi] * V[:, c].take(indices[lo:hi]),
                        out=prod[c],
                    )
                if np.any(nonempty):
                    segs = np.add.reduceat(prod, starts[nonempty], axis=1)
                    out = np.zeros((e - s, k), dtype=VALUE_DTYPE)
                    out[nonempty] = segs.T
                    y[s:e] = out

    else:  # CSR
        vals, cols, ptr = matrix.values, matrix.col_idx, matrix.row_ptr

        def work(block):
            s, e = block
            lo, hi = int(ptr[s]), int(ptr[e])
            y[s:e] = 0.0
            if hi > lo:
                starts = ptr[s:e] - lo
                nonempty = starts < (ptr[s + 1 : e + 1] - lo)
                prod = np.empty((k, hi - lo), dtype=VALUE_DTYPE)
                for c in range(k):
                    np.multiply(
                        vals[lo:hi], V[:, c].take(cols[lo:hi]), out=prod[c]
                    )
                if np.any(nonempty):
                    segs = np.add.reduceat(prod, starts[nonempty], axis=1)
                    out = np.zeros((e - s, k), dtype=VALUE_DTYPE)
                    out[nonempty] = segs.T
                    y[s:e] = out

    _run_blocks(pool, work, blocks, "parallel.matmat", matrix)
    matrix._count_sweep(counter, k, spmm=True)
    return y


def parallel_smsv_multi(
    matrix: MatrixFormat,
    vectors,
    *,
    pool: Optional[WorkerPool] = None,
    min_rows_per_block: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Parallel multi-vector SMSV (scatter the block + blocked SpMM).

    The block is scattered as the serial
    :meth:`~repro.formats.base.MatrixFormat.smsv_multi` scatters it —
    ``(k, N)`` C-order, passed as its ``(N, k)`` view — so DEN's column
    GEMVs read the very operand layout the serial kernel reads.
    """
    vectors = list(vectors)
    n = matrix.shape[1]
    Vk = np.zeros((len(vectors), n), dtype=VALUE_DTYPE)
    for c, v in enumerate(vectors):
        if v.length != n:
            raise ValueError(
                f"smsv_multi expects vectors of length {n}, got {v.length}"
            )
        Vk[c, v.indices] = v.values
    if counter is not None:
        counter.add_write(Vk.nbytes)  # the scatter, as the serial kernel
    return parallel_matmat(
        matrix,
        Vk.T,
        pool=pool,
        min_rows_per_block=min_rows_per_block,
        counter=counter,
    )
