"""Zero-copy matrix transport over ``multiprocessing.shared_memory``.

The fleet tier (:mod:`repro.serve.fleet`) shards serving across worker
*processes*; what must never happen on that path is pickling a
support-vector matrix per request — or even per worker.  This module
publishes a :class:`~repro.serve.engine.ServedModel`'s heavy arrays
**once** into named shared-memory segments and hands workers a small
picklable :class:`ModelHandle` (segment names + dtypes + shapes, a few
hundred bytes regardless of nnz).  A worker reconstructs the matrix as
NumPy *views* over the mapped segments: no copy, no validation sort, no
per-request traffic beyond the O(batch) query vectors and answers.

Why views are safe
------------------
Every stored format in this repo is immutable after construction
(mutation always rebuilds through ``from_coo``), so many processes can
read one mapping concurrently.  Attached views are additionally marked
read-only (``writeable = False``) so a buggy kernel cannot scribble on
a segment another worker is sweeping.

Lifecycle discipline (the part that keeps ``/dev/shm`` clean)
-------------------------------------------------------------
*Ownership is asymmetric.*  The process that **publishes** owns the
segments: :class:`SegmentGroup` unlinks them on ``close()``, and every
live group is also registered with :mod:`atexit` so an owner that
forgets (or crashes out of Python normally) still unlinks.  Workers
that **attach** only ever ``close()`` their mapping, never unlink.

The stdlib ``resource_tracker`` needs one extra rule.  Registrations
land in a per-tracker-process set, and *forked* workers (and
same-process attachments) talk to the owner's tracker — there the
owner's unlink is the one balanced unregister, so attachers must stay
silent.  A *spawned* worker owns a private tracker which would
helpfully unlink the owner's segments when the worker exits; such
attachers pass ``unregister=True`` so their tracker forgets the name
right after mapping it (the stdlib's well-known double-unlink race,
resolved toward the owner).  A worker killed with ``SIGKILL``
therefore leaks nothing either way: its mappings die with the process
and the owner's unlink removes the names (``tests/serve/test_shm.py``
kills a worker and scans ``/dev/shm`` to prove it).
"""

from __future__ import annotations

import atexit
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.formats.base import MatrixFormat
from repro.formats.convert import format_class
from repro.formats.coo import COOMatrix
from repro.formats.reorder import PermutedMatrix
from repro.serve.engine import PairSlice, ServedModel
from repro.svm.kernels import Kernel, make_kernel
from repro.svm.persist import _kernel_config

#: Every segment this module creates carries this prefix, so the leak
#: tests (and an operator staring at /dev/shm) can attribute them.
SHM_PREFIX = "repro_shm_"


def _new_segment_name() -> str:
    # Short random suffix: names must be unique across processes and
    # survive pid reuse (an atexit unlink from a previous run must not
    # collide with a fresh publish).
    return f"{SHM_PREFIX}{secrets.token_hex(6)}"


@dataclass(frozen=True)
class ArraySpec:
    """Picklable description of one published array."""

    segment: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = int(np.dtype(self.dtype).itemsize)
        for d in self.shape:
            n *= int(d)
        return n


@dataclass(frozen=True)
class MatrixHandle:
    """Picklable description of one published matrix.

    ``arrays`` maps the format's constructor-attribute names to segment
    specs; ``meta`` carries the non-array constructor arguments (SELL's
    chunk); ``inner`` is the stored core of a permutation wrapper,
    packed recursively.
    """

    fmt: str
    shape: Tuple[int, int]
    arrays: Dict[str, ArraySpec]
    meta: Dict[str, Any] = field(default_factory=dict)
    inner: Optional["MatrixHandle"] = None


@dataclass(frozen=True)
class ModelHandle:
    """Everything a worker needs to reconstruct a ServedModel.

    The matrix, coefficients and cached row norms travel as shared
    memory; the pair table, kernel configuration and class labels are
    tiny and ride the pickle.
    """

    matrix: MatrixHandle
    coef: ArraySpec
    sv_norms: ArraySpec
    pairs: Tuple[PairSlice, ...]
    kernel: Dict[str, Any]
    classes: Optional[Tuple[float, ...]]

    def control_plane_bytes(self) -> int:
        """Pickled size of this handle — O(1) in nnz by construction."""
        import pickle

        return len(pickle.dumps(self))


# -- owner side -----------------------------------------------------------

_LIVE_GROUPS: List["SegmentGroup"] = []
_ATEXIT_REGISTERED = False


def _atexit_unlink_all() -> None:  # pragma: no cover - exit hook
    for group in list(_LIVE_GROUPS):
        group.close()


class SegmentGroup:
    """Owner-side bundle of shared-memory segments.

    ``close()`` unlinks every segment exactly once and is safe to call
    repeatedly (shutdown paths, ``atexit`` and tests all hit it).  The
    group registers itself for interpreter-exit cleanup at creation so
    an owner that never calls ``close`` still leaves ``/dev/shm``
    empty.
    """

    def __init__(self) -> None:
        global _ATEXIT_REGISTERED
        self._segments: List[shared_memory.SharedMemory] = []
        self._closed = False
        _LIVE_GROUPS.append(self)
        if not _ATEXIT_REGISTERED:
            atexit.register(_atexit_unlink_all)
            _ATEXIT_REGISTERED = True

    def publish(self, arr: np.ndarray) -> ArraySpec:
        """Copy one array into a fresh segment; returns its spec."""
        arr = np.ascontiguousarray(arr)
        # SharedMemory rejects size=0; publish a 1-byte segment and let
        # the spec's shape reconstruct the empty view.
        shm = shared_memory.SharedMemory(
            create=True, size=max(arr.nbytes, 1), name=_new_segment_name()
        )
        if arr.nbytes:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            dst[...] = arr
        self._segments.append(shm)
        return ArraySpec(shm.name, str(arr.dtype), tuple(arr.shape))

    @property
    def segment_names(self) -> List[str]:
        return [s.name for s in self._segments]

    @property
    def total_bytes(self) -> int:
        return sum(s.size for s in self._segments)

    def close(self) -> None:
        """Unmap and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # already gone (double owner close)
                pass
        if self in _LIVE_GROUPS:
            _LIVE_GROUPS.remove(self)

    def __enter__(self) -> "SegmentGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- attacher side --------------------------------------------------------


class Attachment:
    """Worker-side bundle of mapped segments (close-only, never unlink).

    ``unregister=True`` is for spawned workers whose private resource
    tracker would otherwise unlink the owner's segments at worker
    exit; forked workers and same-process attachments share the
    owner's tracker and must leave its bookkeeping alone (see the
    module docstring).
    """

    def __init__(self, *, unregister: bool = False) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._unregister = unregister
        self._closed = False

    def attach(self, spec: ArraySpec) -> np.ndarray:
        """Map one spec as a read-only view (no copy)."""
        shm = shared_memory.SharedMemory(name=spec.segment)
        if self._unregister:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker impl detail
                pass
        self._segments.append(shm)
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
        view.flags.writeable = False
        return view

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            shm.close()


# -- matrix pack / attach -------------------------------------------------

# (array attribute names, meta builder) per format; attach calls the
# real constructor so structural invariants (and any derived slicing
# arrays, e.g. SELL's) are rebuilt over the mapped views without
# copying the payload arrays themselves.
_PackSpec = Tuple[Tuple[str, ...], Callable[[MatrixFormat], Dict[str, Any]]]

_NO_META: Callable[[MatrixFormat], Dict[str, Any]] = lambda m: {}

_PACK_SPECS: Dict[str, _PackSpec] = {
    "CSR": (("values", "col_idx", "row_ptr"), _NO_META),
    "COO": (("rows", "cols", "values"), _NO_META),
    "ELL": (("data", "indices", "row_lengths"), _NO_META),
    "DIA": (("offsets", "data"), _NO_META),
    "DEN": (("array",), _NO_META),
    "SELL": (
        ("data", "indices", "row_lengths"),
        lambda m: {"chunk": int(m.chunk)},
    ),
}


def pack_matrix(matrix: MatrixFormat, group: SegmentGroup) -> MatrixHandle:
    """Publish a matrix's backing arrays; returns the picklable handle."""
    if isinstance(matrix, PermutedMatrix):
        inner = pack_matrix(matrix.stored, group)
        return MatrixHandle(
            fmt=matrix.name,
            shape=matrix.shape,
            arrays={"perm": group.publish(matrix.perm)},
            inner=inner,
        )
    spec = _PACK_SPECS.get(matrix.name)
    if spec is None:
        raise ValueError(
            f"no shared-memory pack spec for format {matrix.name!r}"
        )
    attrs, meta_fn = spec
    return MatrixHandle(
        fmt=matrix.name,
        shape=matrix.shape,
        arrays={a: group.publish(getattr(matrix, a)) for a in attrs},
        meta=meta_fn(matrix),
    )


def attach_matrix(handle: MatrixHandle, att: Attachment) -> MatrixFormat:
    """Reconstruct a matrix as views over the published segments."""
    cls = format_class(handle.fmt)
    if handle.inner is not None:
        stored = attach_matrix(handle.inner, att)
        perm = att.attach(handle.arrays["perm"])
        return cls(stored, perm)
    views = {a: att.attach(s) for a, s in handle.arrays.items()}
    if handle.fmt == "COO":
        # COOMatrix's constructor canonicalises through validate_coo,
        # which always returns fresh copies.  The published triples came
        # from a validated instance and are canonical already, so
        # assemble the object directly — the one format where the
        # constructor cannot be reused zero-copy.
        m = object.__new__(COOMatrix)
        m.rows = views["rows"]
        m.cols = views["cols"]
        m.values = views["values"]
        m.shape = (int(handle.shape[0]), int(handle.shape[1]))
        return m
    if handle.fmt == "DEN":
        return cls(views["array"])
    args = [views[a] for a in _PACK_SPECS[handle.fmt][0]]
    return cls(*args, handle.shape, **handle.meta)


# -- model pack / attach --------------------------------------------------


def pack_model(model: ServedModel, group: SegmentGroup) -> ModelHandle:
    """Publish a ServedModel's heavy arrays into ``group``."""
    return ModelHandle(
        matrix=pack_matrix(model.matrix, group),
        coef=group.publish(model.coef),
        sv_norms=group.publish(model.sv_norms),
        pairs=tuple(model.pairs),
        kernel=_kernel_config(model.kernel),
        classes=(
            tuple(float(c) for c in model.classes)
            if model.classes is not None
            else None
        ),
    )


def attach_model(handle: ModelHandle, att: Attachment) -> ServedModel:
    """Reconstruct a ServedModel over the mapped segments (no copy)."""
    kernel: Kernel = make_kernel(
        handle.kernel["name"], **handle.kernel["params"]
    )
    return ServedModel(
        attach_matrix(handle.matrix, att),
        att.attach(handle.coef),
        list(handle.pairs),
        kernel,
        classes=(
            np.asarray(handle.classes, dtype=float)
            if handle.classes is not None
            else None
        ),
        sv_norms=att.attach(handle.sv_norms),
    )


class ModelPublication:
    """One published model: the handle plus owned segments.

    The front door creates one per served model and closes it when the
    fleet shuts down; the handle is what crosses the process boundary.
    """

    def __init__(self, model: ServedModel) -> None:
        self.group = SegmentGroup()
        try:
            self.handle = pack_model(model, self.group)
        except Exception:
            self.group.close()
            raise

    @property
    def shared_bytes(self) -> int:
        return self.group.total_bytes

    def close(self) -> None:
        self.group.close()


def leaked_segments() -> List[str]:
    """Names under ``/dev/shm`` carrying our prefix (the leak check)."""
    import os

    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(root) if name.startswith(SHM_PREFIX)
    )
