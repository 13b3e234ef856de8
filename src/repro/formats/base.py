"""Base classes shared by all storage formats.

Two abstractions live here:

- :class:`SparseVector` — an (indices, values) pair used for the sparse
  side of the SMSV (sparse-matrix x sparse-vector) product that
  dominates each SMO step.  The paper stresses (Related Work) that SMO's
  kernel is *not* SpMV: the vector is itself a sparse row of the matrix,
  picked at random each iteration.
- :class:`MatrixFormat` — the interface every format implements.  The
  SMO solver, the scheduler, and the hardware models all program against
  this interface only.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.perf.counters import OpCounter

#: Canonical format order used in tables/figures throughout the paper.
FORMAT_NAMES: Tuple[str, ...] = ("ELL", "CSR", "COO", "DEN", "DIA")

#: dtype used for all numeric payloads; 8-byte floats as in the paper's
#: double-precision kernels.
VALUE_DTYPE = np.float64
#: dtype for index arrays (4-byte ints, the common HPC choice).
INDEX_DTYPE = np.int32

VALUE_ITEMSIZE = np.dtype(VALUE_DTYPE).itemsize
INDEX_ITEMSIZE = np.dtype(INDEX_DTYPE).itemsize


class SparseVector:
    """Immutable sparse vector: sorted indices + matching values.

    Parameters
    ----------
    indices:
        Strictly increasing positions of the (potentially) non-zero
        entries.
    values:
        Entry values, same length as ``indices``.  Explicit zeros are
        allowed (they arise from format round trips) and are preserved.
    length:
        Logical dimension of the vector.
    """

    __slots__ = ("indices", "values", "length")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        length: int,
    ) -> None:
        indices = np.asarray(indices, dtype=INDEX_DTYPE)
        values = np.asarray(values, dtype=VALUE_DTYPE)
        if indices.ndim != 1 or values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if indices.shape[0] != values.shape[0]:
            raise ValueError("indices and values must have equal length")
        if length < 0:
            raise ValueError("length must be non-negative")
        if indices.size:
            if np.any(np.diff(indices) <= 0):
                order = np.argsort(indices, kind="stable")
                indices = indices[order]
                values = values[order]
                if np.any(np.diff(indices) == 0):
                    raise ValueError("duplicate indices in SparseVector")
            if indices[0] < 0 or indices[-1] >= length:
                raise ValueError("index out of range")
        self.indices = indices
        self.values = values
        self.length = int(length)

    @classmethod
    def _trusted(
        cls, indices: np.ndarray, values: np.ndarray, length: int
    ) -> "SparseVector":
        """Wrap arrays already known to be valid, skipping every check.

        For a format's own ``row()``: its storage invariants already
        guarantee 1-D ``INDEX_DTYPE`` indices, strictly increasing and
        inside ``[0, length)``, with matching ``VALUE_DTYPE`` values.
        The SMO loop extracts thousands of rows per fit, so the public
        constructor's sort and range checks would be pure overhead
        there.  The sanitizer's per-operation proxy
        (:class:`~repro.analysis.sanitize.SanitizedMatrix`, ``repro
        train --sanitize``) re-checks every row it hands out.
        """
        v = object.__new__(cls)
        v.indices = indices
        v.values = values
        v.length = length
        return v

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseVector":
        x = np.asarray(x, dtype=VALUE_DTYPE).ravel()
        idx = np.nonzero(x)[0].astype(INDEX_DTYPE)
        return cls(idx, x[idx], x.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.length, dtype=VALUE_DTYPE)
        out[self.indices] = self.values
        return out

    def dot(self, other: "SparseVector") -> float:
        """Sparse-sparse dot product via sorted-index intersection."""
        if self.length != other.length:
            raise ValueError("dimension mismatch")
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        del common
        if ia.size == 0:
            return 0.0
        return float(self.values[ia] @ other.values[ib])

    def norm_sq(self) -> float:
        return float(self.values @ self.values)

    def scale(self, alpha: float) -> "SparseVector":
        return SparseVector(self.indices.copy(), self.values * alpha, self.length)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseVector(nnz={self.nnz}, length={self.length})"


def _scatter(
    vectors, n: int, counter: Optional[OpCounter] = None
) -> np.ndarray:
    """Scatter sparse vectors into the dense ``(k, N)`` block whose rows
    are the right-hand sides of an SMSV.

    The one scatter of :meth:`MatrixFormat.smsv` (row 0),
    :meth:`MatrixFormat.smsv_multi` (the ``(N, k)`` transposed view) and
    its :mod:`repro.parallel` split; the block's bytes count as
    written.  C-order, so each scatter writes a contiguous row and each
    column of the transposed view that the format kernels gather from
    is contiguous too.
    """
    vectors = list(vectors)
    for v in vectors:
        if v.length != n:
            raise ValueError(
                f"smsv expects vectors of length {n}, got {v.length}"
            )
    Vk = np.zeros((len(vectors), n), dtype=VALUE_DTYPE)
    for c, v in enumerate(vectors):
        Vk[c, v.indices] = v.values
    if counter is not None:
        counter.add_write(Vk.nbytes)
    return Vk


class MatrixFormat(abc.ABC):
    """Abstract matrix stored in one particular layout.

    Subclasses are immutable after construction; all mutation happens by
    rebuilding through :meth:`from_coo`.  Kernels accept an optional
    :class:`~repro.perf.counters.OpCounter` so callers can audit traffic
    and flops without a global flag.
    """

    #: Short uppercase name as used in the paper's tables.
    name: ClassVar[str] = "ABSTRACT"

    shape: Tuple[int, int]

    # -- construction -------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "MatrixFormat":
        """Build from coordinate triples (duplicates are an error)."""

    @abc.abstractmethod
    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return row-major-sorted coordinate triples of stored non-zeros.

        Explicit zeros introduced by padding are *not* returned; round
        trips therefore preserve the logical matrix exactly.
        """

    # -- structure ----------------------------------------------------
    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored logical non-zeros (padding excluded)."""

    @abc.abstractmethod
    def storage_elements(self) -> int:
        """Number of stored array elements, padding *included*.

        This is the quantity Table II bounds; the per-format unit tests
        check it against :func:`repro.formats.storage.
        storage_elements_analytic`.
        """

    def storage_bytes(self) -> int:
        """Actual bytes of the backing arrays (values + indices)."""
        return int(
            sum(arr.nbytes for arr in self._backing_arrays())
        )

    @abc.abstractmethod
    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        """The arrays that constitute the stored representation."""

    # -- kernels ------------------------------------------------------
    @abc.abstractmethod
    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Dense ``y = A @ x``; the computational core of the SMSV."""

    def smsv(
        self, v: SparseVector, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Sparse-matrix x sparse-vector product ``y = A @ v``.

        Default implementation scatters ``v`` to dense (O(N), negligible
        next to the matvec) then runs the format's matvec — exactly the
        strategy the paper's kernels use, since the matrix side dominates.
        Formats with a cheaper gather path override this.
        """
        x = _scatter((v,), self.shape[1], counter)[0]
        return self.matvec(x, counter)

    def _coerce_rhs_block(self, V: np.ndarray) -> np.ndarray:
        """Validate a ``(N, k)`` right-hand-side block for :meth:`matmat`."""
        V = np.asarray(V, dtype=VALUE_DTYPE)
        if V.ndim != 2 or V.shape[0] != self.shape[1]:
            raise ValueError(
                f"matmat expects V of shape ({self.shape[1]}, k), "
                f"got {V.shape}"
            )
        return V

    def _sweep_cost(self, k: int) -> Tuple[int, int]:
        """``(flops, bytes_read)`` of one product with ``k`` right-hand
        sides; defined by the formats that count via :meth:`_count_sweep`."""
        raise NotImplementedError(f"{self.name} does not price a sweep")

    def _count_sweep(
        self, counter: Optional[OpCounter], k: int, *, spmm: bool
    ) -> None:
        """Record one product: a matvec (``k=1``, ``spmm=False``) or a
        ``k``-column matmat.  The serial kernels and the
        :mod:`repro.parallel` split of DEN's matmat both count here, so
        a split product records exactly what the serial one does."""
        if counter is None:
            return
        flops, bytes_read = self._sweep_cost(k)
        if spmm:
            counter.add_spmm(k)
        counter.add_flops(flops)
        counter.add_read(bytes_read)
        counter.add_write(self.shape[0] * k * VALUE_ITEMSIZE)

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Blocked product ``Y = A @ V`` for a dense ``(N, k)`` block.

        Column ``c`` of the result is bit-for-bit identical to
        ``matvec(V[:, c])`` — the contract every override must keep, so
        fused SpMM callers (the dual-row SMO path) reproduce the exact
        floating-point trajectory of the single-vector kernels.  The
        default runs k independent matvec sweeps; formats override it to
        traverse their storage once and amortise index gathers across
        the column block.
        """
        V = self._coerce_rhs_block(V)
        k = V.shape[1]
        if counter is not None:
            counter.add_spmm(k)
        y = np.empty((self.shape[0], k), dtype=VALUE_DTYPE)
        for c in range(k):  # repro: noqa RDL001 — fallback path: trip count is batch_k, each pass a full vectorised matvec
            y[:, c] = self.matvec(V[:, c], counter)
        return y

    def smsv_multi(
        self, vectors, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Multi-vector SMSV: ``Y[:, c] = A @ vectors[c]`` in one sweep.

        Each sparse vector is scattered into a column of one dense
        ``(N, k)`` block (exactly what :meth:`smsv` does per vector), so
        column ``c`` matches ``smsv(vectors[c])`` bit-for-bit; the block
        then goes through :meth:`matmat` so the matrix is traversed once
        for all k right-hand sides.
        """
        Vk = _scatter(vectors, self.shape[1], counter)
        return self.matmat(Vk.T, counter)

    @abc.abstractmethod
    def row(self, i: int) -> SparseVector:
        """Extract row ``i`` as a sparse vector (SMO's X_high / X_low)."""

    def row_norms_sq(self) -> np.ndarray:
        """Squared 2-norm of every row (needed by the Gaussian kernel).

        Default goes through :meth:`to_coo`; formats override when they
        can do better.
        """
        rows, _cols, values = self.to_coo()
        out = np.zeros(self.shape[0], dtype=VALUE_DTYPE)
        np.add.at(out, rows, values * values)
        return out

    def to_dense(self) -> np.ndarray:
        rows, cols, values = self.to_coo()
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        out[rows, cols] = values
        return out

    def transpose(self) -> "MatrixFormat":
        """The transposed matrix, in this same format.

        Goes through COO (swap the coordinate roles); note the format
        family changes meaning under transposition — a CSR transpose
        stored as CSR is what a CSC view of the original would be, and
        an ELL transpose pads by *column* lengths of the original.
        """
        rows, cols, values = self.to_coo()
        return type(self).from_coo(
            cols, rows, values, (self.shape[1], self.shape[0])
        )

    @property
    def T(self) -> "MatrixFormat":
        """Alias for :meth:`transpose` (NumPy idiom)."""
        return self.transpose()

    # -- misc ---------------------------------------------------------
    def _sanitize_check(self) -> None:
        """Validate structural invariants when ``REPRO_SANITIZE=1``.

        Every concrete format calls this at the end of ``__init__`` so
        the sanitizer sees each matrix the moment it exists.  A no-op
        unless the environment opts in, keeping construction free on
        the hot path.  See :mod:`repro.analysis.sanitize`.
        """
        import os

        if os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
            "", "0", "false", "no", "off",
        ):
            return
        from repro.analysis.sanitize import check_format

        check_format(self)

    @property
    def density(self) -> float:
        m, n = self.shape
        total = m * n
        return self.nnz / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"storage={self.storage_elements()})"
        )


def validate_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and canonicalise COO triples (sort row-major, no dups).

    Shared by every ``from_coo`` implementation so all formats agree on
    what a legal matrix is.  The returned arrays never alias the inputs
    (formats store them), even when the input was already canonical.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE).ravel()
    cols = np.asarray(cols, dtype=INDEX_DTYPE).ravel()
    values = np.asarray(values, dtype=VALUE_DTYPE).ravel()
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols, values must have equal length")
    rows, cols, order = canonical_coords(rows, cols, shape)
    if order is None:
        return rows.copy(), cols.copy(), values.copy()
    return rows, cols, values[order]


def canonical_coords(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Range-check coordinates and put them in row-major order.

    Returns ``(rows, cols, order)``.  Coordinates whose row-major keys
    ``row * N + col`` already strictly increase are canonical and free
    of duplicates; they come back as given with ``order=None`` after one
    O(nnz) test.  Anything else is lexsorted (``order`` is the
    permutation applied) and checked for duplicate coordinates.
    """
    m, n = shape
    if m < 0 or n < 0:
        raise ValueError("shape must be non-negative")
    if rows.size:
        if rows.min() < 0 or rows.max() >= m:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n:
            raise ValueError("column index out of range")
    keys = rows.astype(np.int64) * n + cols
    if np.all(keys[1:] > keys[:-1]):
        return rows, cols, None
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
    if np.any(same):
        raise ValueError("duplicate coordinates in COO input")
    return rows, cols, order
