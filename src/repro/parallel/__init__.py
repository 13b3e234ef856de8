"""Shared-memory parallel substrate.

The paper parallelises the SMO bottleneck (the two SMSVs and the f-vector
update, Eqs. (3)-(4)) with OpenMP across row blocks.  The Python-level
equivalent here is a chunked, row-partitioned thread pool: NumPy releases
the GIL inside large ufunc and BLAS calls, so threads over disjoint row
blocks genuinely overlap for the memory-bound kernels this library runs.

The module intentionally mirrors the ``mpi4py``-style split: a high-level
convenience API (:func:`parallel_map`) plus buffer-oriented primitives
(:func:`row_blocks`, :class:`WorkerPool`) for kernels that want to manage
their own output arrays.
"""

from repro.parallel.pool import WorkerPool, parallel_map
from repro.parallel.partition import balanced_chunks, row_blocks
from repro.parallel.kernels import (
    parallel_matmat,
    parallel_matvec,
    parallel_smsv,
    parallel_smsv_multi,
)

__all__ = [
    "WorkerPool",
    "parallel_map",
    "row_blocks",
    "balanced_chunks",
    "parallel_matvec",
    "parallel_smsv",
    "parallel_matmat",
    "parallel_smsv_multi",
]
