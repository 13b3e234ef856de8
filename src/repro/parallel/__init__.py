"""Shared-memory parallel substrate.

The paper parallelises the SMO bottleneck (the two SMSVs and the f-vector
update, Eqs. (3)-(4)) with OpenMP.  The Python-level equivalent here is a
thread pool: NumPy releases the GIL inside large BLAS calls, so threads
genuinely overlap.  The one kernel split a fit runs is SMO's fused
kernel-row pair on a large DEN matrix, one right-hand-side column per
thread (:func:`parallel_smsv_multi`); every other product stays serial.

The module intentionally mirrors the ``mpi4py``-style split: a high-level
convenience API (:func:`parallel_map`) plus buffer-oriented primitives
(:func:`row_blocks`, :class:`WorkerPool`) for kernels that want to manage
their own output arrays.
"""

from repro.parallel.pool import WorkerPool, parallel_map
from repro.parallel.partition import row_blocks
from repro.parallel.kernels import parallel_matmat, parallel_smsv_multi

__all__ = [
    "WorkerPool",
    "parallel_map",
    "row_blocks",
    "parallel_matmat",
    "parallel_smsv_multi",
]
