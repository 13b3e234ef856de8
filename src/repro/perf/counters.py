"""Explicit flop and byte counters.

The paper's analysis (Section III, Eq. (7)) reasons about *transferred
memory* and *computation* rather than wall time, because wall time on a
given box is just those two quantities divided by the machine's effective
throughput.  Making the counts explicit lets us:

- unit-test that a format kernel performs exactly the padded amount of
  work Table II predicts (e.g. an ELL SMSV touches ``2 * M * mdim``
  elements, padding included), and
- feed the same counts into the roofline / vector-machine models in
  :mod:`repro.hardware` without re-deriving them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Tuple


@dataclass
class OpCounter:
    """Accumulator for floating point operations and memory traffic.

    Attributes
    ----------
    flops:
        Scalar floating point operations (a fused multiply-add counts
        as two, matching the usual HPC convention).
    bytes_read / bytes_written:
        Memory traffic in bytes.  Padded (zero) elements count: the whole
        point of the paper is that padding is traffic you still pay for.
    vector_ops:
        Width-``W`` SIMD instructions issued, as counted by the
        vector-machine model.  Zero unless that model is in use.
    spmm_calls / spmm_columns:
        Number of blocked multi-vector sweeps (``matmat`` /
        ``smsv_multi``) and the total right-hand-side columns they
        carried.  ``spmm_columns / spmm_calls`` is the achieved batch
        width — the quantity the ``batch_k`` cost-model knob predicts.
    parallel_blocks / parallel_work_total / parallel_work_max:
        Block partition accounting from :mod:`repro.parallel`'s DEN
        column split: blocks dispatched, their summed work weight
        (stored elements, ``M`` per column), and the heaviest single
        block seen.  ``parallel_work_max * parallel_blocks /
        parallel_work_total`` ~ 1 means the partition was balanced; a
        large value means one hot block would have serialised the pool.
    """

    flops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    vector_ops: int = 0
    spmm_calls: int = 0
    spmm_columns: int = 0
    parallel_blocks: int = 0
    parallel_work_total: int = 0
    parallel_work_max: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    #: Fields that fold with ``max`` instead of ``+`` in :meth:`merge`
    #: (high-water marks, not additive totals).  Everything else sums.
    _MAX_FIELDS = frozenset({"parallel_work_max"})

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """Every accounting field, straight from the dataclass.

        ``reset``/``snapshot``/``merge``/``as_dict`` all iterate this
        list, so a field added by a future PR is covered by
        construction — the exhaustiveness regression test only has to
        check the *semantics* (sum vs max), never the coverage.
        """
        return tuple(
            f.name for f in fields(cls) if not f.name.startswith("_")
        )

    def add_flops(self, n: int) -> None:
        with self._lock:
            self.flops += int(n)

    def add_read(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_read += int(nbytes)

    def add_write(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_written += int(nbytes)

    def add_vector_ops(self, n: int) -> None:
        with self._lock:
            self.vector_ops += int(n)

    def add_spmm(self, k: int) -> None:
        """Record one blocked sweep carrying ``k`` right-hand sides."""
        with self._lock:
            self.spmm_calls += 1
            self.spmm_columns += int(k)

    def add_parallel_blocks(self, block_work) -> None:
        """Record one block partition's per-block work weights."""
        work = [int(w) for w in block_work]
        if not work:
            return
        with self._lock:
            self.parallel_blocks += len(work)
            self.parallel_work_total += sum(work)
            self.parallel_work_max = max(self.parallel_work_max, max(work))

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def reset(self) -> None:
        with self._lock:
            for name in self.field_names():
                setattr(self, name, 0)

    def snapshot(self) -> "OpCounter":
        """Return an independent copy of the current totals."""
        with self._lock:
            out = OpCounter()
            for name in self.field_names():
                setattr(out, name, getattr(self, name))
            return out

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's totals into this one (thread-safe).

        Additive fields sum; high-water marks (``_MAX_FIELDS``) take
        the max.  Iterating the dataclass fields means a field added
        later can never silently drop out of the merge.
        """
        with self._lock:
            for name in self.field_names():
                if name in self._MAX_FIELDS:
                    setattr(
                        self,
                        name,
                        max(getattr(self, name), getattr(other, name)),
                    )
                else:
                    setattr(
                        self,
                        name,
                        getattr(self, name) + getattr(other, name),
                    )

    def as_dict(self) -> Dict[str, int]:
        """All accounting fields as a plain dict (metrics-view input)."""
        with self._lock:
            return {
                name: getattr(self, name) for name in self.field_names()
            }

    def arithmetic_intensity(self) -> float:
        """Flops per byte of traffic; the x-axis of a roofline plot."""
        total = self.bytes_total
        if total == 0:
            return 0.0
        return self.flops / total


_global = OpCounter()


def global_counter() -> OpCounter:
    """Process-wide counter that kernels report into when enabled."""
    return _global


@contextmanager
def counting() -> Iterator[OpCounter]:
    """Context manager yielding a fresh counter scoped to the block.

    Example
    -------
    >>> from repro.perf import counting
    >>> with counting() as c:
    ...     c.add_flops(10)
    >>> c.flops
    10
    """
    counter = OpCounter()
    yield counter
