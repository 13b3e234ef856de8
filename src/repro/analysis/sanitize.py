"""Runtime format sanitizer: structural invariants, checked on demand.

Every storage format keeps invariants the kernels rely on but never
re-verify (they sit on the hot path): CSR's row pointer is monotone
with canonical endpoints, COO triples are row-major sorted and
duplicate-free, ELL padding slots hold exactly ``(0.0, index 0)`` and
no row exceeds the padded width, DIA offsets stay inside ``(-M, N)``
with zeroed out-of-span slots, and all payloads stay
``VALUE_DTYPE``/``INDEX_DTYPE``.  This module makes those invariants
checkable:

- :func:`check_format` validates one matrix and raises
  :class:`FormatInvariantError` with a precise diagnostic;
- :func:`sanitize_format` additionally wraps the matrix in a
  :class:`SanitizedMatrix` proxy that re-validates before every
  operation — the tool for debugging suspected corruption;
- setting ``REPRO_SANITIZE=1`` makes every format constructor validate
  itself (via ``MatrixFormat._sanitize_check``), which is how CI runs
  the whole test suite under sanitisation.

Checks dispatch on the format's ``name`` attribute rather than its
class, so this module never imports the format submodules and cannot
create an import cycle with :mod:`repro.formats.base`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.formats.base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    MatrixFormat,
    SparseVector,
    validate_coo,
)
from repro.perf.counters import OpCounter


class FormatInvariantError(ValueError):
    """A storage format violated one of its structural invariants."""


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for construction-time checks."""
    raw = os.environ.get("REPRO_SANITIZE", "")
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


# -- per-format checkers ----------------------------------------------


def _check_dtype(
    label: str, arr: np.ndarray, expected: np.dtype
) -> List[str]:
    if arr.dtype != np.dtype(expected):
        return [
            f"{label} has dtype {arr.dtype}, expected "
            f"{np.dtype(expected)}"
        ]
    return []


def _check_index_range(
    label: str, arr: np.ndarray, upper: int
) -> List[str]:
    if arr.size == 0:
        return []
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= upper:
        return [
            f"{label} out of range: values span [{lo}, {hi}], "
            f"valid range is [0, {upper})"
        ]
    return []


def _check_csr(m: MatrixFormat) -> List[str]:
    rows, cols = m.shape
    v: List[str] = []
    v += _check_dtype("values", m.values, VALUE_DTYPE)
    v += _check_dtype("col_idx", m.col_idx, INDEX_DTYPE)
    ptr = m.row_ptr
    if ptr.shape != (rows + 1,):
        return v + [
            f"row_ptr has shape {ptr.shape}, expected ({rows + 1},)"
        ]
    if ptr[0] != 0 or ptr[-1] != m.values.shape[0]:
        v.append(
            f"row_ptr endpoints ({int(ptr[0])}, {int(ptr[-1])}) "
            f"inconsistent with nnz={m.values.shape[0]}"
        )
    diffs = np.diff(ptr)
    bad = np.nonzero(diffs < 0)[0]
    if bad.size:
        v.append(
            f"row_ptr not monotonically non-decreasing at row "
            f"{int(bad[0])} ({int(ptr[bad[0]])} -> "
            f"{int(ptr[bad[0] + 1])})"
        )
        return v  # row segmentation is meaningless past this point
    v += _check_index_range("col_idx", m.col_idx, cols)
    if m.col_idx.size > 1:
        d = np.diff(m.col_idx.astype(np.int64))
        boundary = np.zeros(d.shape[0], dtype=bool)
        ends = ptr[1:-1].astype(np.int64) - 1
        ends = ends[(ends >= 0) & (ends < d.shape[0])]
        boundary[ends] = True
        bad_col = np.nonzero((d <= 0) & ~boundary)[0]
        if bad_col.size:
            v.append(
                f"col_idx not strictly increasing within a row at "
                f"position {int(bad_col[0])}"
            )
    return v


def _check_coo(m: MatrixFormat) -> List[str]:
    rows_n, cols_n = m.shape
    v: List[str] = []
    v += _check_dtype("values", m.values, VALUE_DTYPE)
    v += _check_dtype("rows", m.rows, INDEX_DTYPE)
    v += _check_dtype("cols", m.cols, INDEX_DTYPE)
    if not (m.rows.shape == m.cols.shape == m.values.shape):
        return v + [
            f"triple arrays disagree in length: rows={m.rows.shape}, "
            f"cols={m.cols.shape}, values={m.values.shape}"
        ]
    v += _check_index_range("rows", m.rows, rows_n)
    v += _check_index_range("cols", m.cols, cols_n)
    if m.rows.size > 1:
        dr = np.diff(m.rows.astype(np.int64))
        dc = np.diff(m.cols.astype(np.int64))
        if np.any(dr < 0):
            v.append(
                f"coordinates not row-major sorted at position "
                f"{int(np.nonzero(dr < 0)[0][0])}"
            )
        else:
            dup_or_unsorted = np.nonzero((dr == 0) & (dc <= 0))[0]
            if dup_or_unsorted.size:
                k = int(dup_or_unsorted[0])
                kind = (
                    "duplicate coordinate"
                    if dc[k] == 0
                    else "columns unsorted within a row"
                )
                v.append(f"{kind} at position {k}")
    return v


def _check_ell(m: MatrixFormat) -> List[str]:
    rows_n, cols_n = m.shape
    v: List[str] = []
    v += _check_dtype("data", m.data, VALUE_DTYPE)
    v += _check_dtype("indices", m.indices, INDEX_DTYPE)
    if m.data.ndim != 2 or m.data.shape != m.indices.shape:
        return v + [
            f"data {m.data.shape} and indices {m.indices.shape} must "
            f"be 2-D with equal shape"
        ]
    if m.data.shape[0] != rows_n:
        return v + [
            f"data has {m.data.shape[0]} rows, shape says {rows_n}"
        ]
    width = m.data.shape[1]
    lengths = m.row_lengths
    if lengths.shape != (rows_n,):
        return v + [
            f"row_lengths has shape {lengths.shape}, expected "
            f"({rows_n},)"
        ]
    too_long = np.nonzero(lengths > width)[0]
    if too_long.size:
        v.append(
            f"row_lengths[{int(too_long[0])}] = "
            f"{int(lengths[too_long[0]])} exceeds padded width (mdim) "
            f"{width}"
        )
        return v
    if np.any(lengths < 0):
        v.append("row_lengths contains negative entries")
        return v
    if width:
        pad = np.arange(width)[None, :] >= lengths[:, None]
        bad_val = np.nonzero(pad & (m.data != 0.0))
        if bad_val[0].size:
            i, j = int(bad_val[0][0]), int(bad_val[1][0])
            v.append(
                f"padding slot data[{i}, {j}] holds non-zero value "
                f"{m.data[i, j]!r} (padding must be 0.0)"
            )
        bad_idx = np.nonzero(pad & (m.indices != 0))
        if bad_idx[0].size:
            i, j = int(bad_idx[0][0]), int(bad_idx[1][0])
            v.append(
                f"padding slot indices[{i}, {j}] holds column "
                f"{int(m.indices[i, j])} (padding must be index 0)"
            )
        valid = ~pad
        if valid.any():
            v += _check_index_range(
                "indices (valid region)", m.indices[valid], cols_n
            )
    return v


def _check_sell(m: MatrixFormat) -> List[str]:
    rows_n, cols_n = m.shape
    v: List[str] = []
    v += _check_dtype("data", m.data, VALUE_DTYPE)
    v += _check_dtype("indices", m.indices, INDEX_DTYPE)
    if m.data.ndim != 1 or m.data.shape != m.indices.shape:
        return v + [
            f"data {m.data.shape} and indices {m.indices.shape} must "
            f"be flat with equal length"
        ]
    lengths = m.row_lengths
    if lengths.shape != (rows_n,):
        return v + [
            f"row_lengths has shape {lengths.shape}, expected "
            f"({rows_n},)"
        ]
    if np.any(lengths < 0):
        return v + ["row_lengths contains negative entries"]
    C = int(m.chunk)
    if C < 1:
        return v + [f"chunk must be >= 1, got {C}"]
    # Tight slice widths: each slice padded exactly to its own longest
    # row (recomputed here rather than trusted from the instance).
    n_slices = -(-rows_n // C) if rows_n else 0
    padded_len = np.zeros(n_slices * C, dtype=np.int64)
    padded_len[:rows_n] = lengths
    widths = (
        padded_len.reshape(n_slices, C).max(axis=1)
        if n_slices
        else np.zeros(0, dtype=np.int64)
    )
    if not np.array_equal(np.asarray(m.slice_widths), widths):
        v.append(
            "slice_widths not tight against row_lengths "
            f"(expected {widths.tolist()}, got "
            f"{np.asarray(m.slice_widths).tolist()})"
        )
        return v
    widths_per_row = (
        np.repeat(widths, C)[:rows_n]
        if rows_n
        else np.zeros(0, dtype=np.int64)
    )
    starts = np.zeros(rows_n + 1, dtype=np.int64)
    np.cumsum(widths_per_row, out=starts[1:])
    if m.data.shape[0] != int(starts[-1]):
        return v + [
            f"data length {m.data.shape[0]} inconsistent with slice "
            f"widths (expected {int(starts[-1])})"
        ]
    total = m.data.shape[0]
    if total:
        row_of_flat = np.repeat(
            np.arange(rows_n, dtype=np.int64), widths_per_row
        )
        pos = np.arange(total, dtype=np.int64) - starts[row_of_flat]
        pad = pos >= lengths[row_of_flat]
        bad_val = np.nonzero(pad & (m.data != 0.0))[0]
        if bad_val.size:
            j = int(bad_val[0])
            v.append(
                f"padding slot data[{j}] holds non-zero value "
                f"{m.data[j]!r} (padding must be 0.0)"
            )
        bad_idx = np.nonzero(pad & (m.indices != 0))[0]
        if bad_idx.size:
            j = int(bad_idx[0])
            v.append(
                f"padding slot indices[{j}] holds column "
                f"{int(m.indices[j])} (padding must be index 0)"
            )
        valid = ~pad
        if valid.any():
            v += _check_index_range(
                "indices (valid region)", m.indices[valid], cols_n
            )
            cols = m.indices[valid].astype(np.int64)
            if cols.size > 1:
                csr_starts = np.zeros(rows_n + 1, dtype=np.int64)
                np.cumsum(lengths, out=csr_starts[1:])
                d = np.diff(cols)
                boundary = np.zeros(d.shape[0], dtype=bool)
                ends = csr_starts[1:-1] - 1
                ends = ends[(ends >= 0) & (ends < d.shape[0])]
                boundary[ends] = True
                bad_col = np.nonzero((d <= 0) & ~boundary)[0]
                if bad_col.size:
                    v.append(
                        f"columns not strictly increasing within a row "
                        f"at compressed position {int(bad_col[0])}"
                    )
    return v


def _check_permuted(m: MatrixFormat) -> List[str]:
    rows_n, _ = m.shape
    v: List[str] = []
    perm = np.asarray(m.perm)
    if perm.shape != (rows_n,):
        return v + [
            f"perm has shape {perm.shape}, expected ({rows_n},)"
        ]
    if rows_n and not np.array_equal(
        np.sort(perm.astype(np.int64)), np.arange(rows_n)
    ):
        return v + ["perm is not a permutation of 0..M-1"]
    inv = np.asarray(m.inv_perm)
    if rows_n and not np.array_equal(
        inv.astype(np.int64)[perm.astype(np.int64)], np.arange(rows_n)
    ):
        v.append("inv_perm is not the inverse of perm")
    if tuple(m.stored.shape) != tuple(m.shape):
        v.append(
            f"stored matrix shape {m.stored.shape} disagrees with "
            f"wrapper shape {m.shape}"
        )
        return v
    # Structural pass on the wrapped core, prefixed for attribution.
    checker = _CHECKERS.get(getattr(m.stored, "name", ""))
    if checker is not None:
        v += [f"stored {m.stored.name}: {text}" for text in checker(m.stored)]
    return v


def _check_dia(m: MatrixFormat) -> List[str]:
    rows_n, cols_n = m.shape
    ldiag = min(rows_n, cols_n)
    v: List[str] = []
    v += _check_dtype("data", m.data, VALUE_DTYPE)
    offs = m.offsets
    if offs.ndim != 1:
        return v + ["offsets must be 1-D"]
    if m.data.shape != (offs.shape[0], ldiag):
        return v + [
            f"data has shape {m.data.shape}, expected "
            f"(ndig, min(M, N)) = ({offs.shape[0]}, {ldiag})"
        ]
    if offs.size > 1 and np.any(np.diff(offs) <= 0):
        v.append("offsets not strictly increasing")
    if offs.size:
        lo, hi = int(offs.min()), int(offs.max())
        if lo <= -rows_n or hi >= cols_n:
            v.append(
                f"diagonal offset out of bounds: offsets span "
                f"[{lo}, {hi}], valid range is ({-rows_n}, {cols_n})"
            )
            return v
        i0 = np.maximum(0, -offs.astype(np.int64))
        i1 = np.minimum(rows_n, cols_n - offs.astype(np.int64))
        span = np.maximum(0, i1 - i0)
        if ldiag:
            outside = np.arange(ldiag)[None, :] >= span[:, None]
            bad = np.nonzero(outside & (m.data != 0.0))
            if bad[0].size:
                k, t = int(bad[0][0]), int(bad[1][0])
                v.append(
                    f"out-of-span slot data[{k}, {t}] of diagonal "
                    f"offset {int(offs[k])} holds non-zero value "
                    f"{m.data[k, t]!r}"
                )
    return v


def _check_den(m: MatrixFormat) -> List[str]:
    v: List[str] = []
    v += _check_dtype("array", m.array, VALUE_DTYPE)
    if m.array.ndim != 2:
        return v + [f"array must be 2-D, got ndim={m.array.ndim}"]
    if tuple(m.array.shape) != tuple(m.shape):
        v.append(
            f"array shape {m.array.shape} disagrees with declared "
            f"shape {m.shape}"
        )
    return v


_CHECKERS: Dict[str, Callable[[MatrixFormat], List[str]]] = {
    "CSR": _check_csr,
    "COO": _check_coo,
    "ELL": _check_ell,
    "DIA": _check_dia,
    "DEN": _check_den,
    "SELL": _check_sell,
    "RCSR": _check_permuted,
    "RSELL": _check_permuted,
    "PERM": _check_permuted,
}


def _check_roundtrip(m: MatrixFormat) -> List[str]:
    """Deep check: the logical matrix survives a COO round trip."""
    try:
        # Several to_coo implementations validate internally, so a
        # corrupt matrix may raise here rather than emit bad triples.
        rows, cols, values = m.to_coo()
        validate_coo(rows, cols, values, m.shape)
    except ValueError as exc:
        return [f"to_coo emitted non-canonical triples: {exc}"]
    try:
        rebuilt = type(m).from_coo(rows, cols, values, m.shape)
    except ValueError as exc:
        return [f"from_coo rejected its own to_coo output: {exc}"]
    r2, c2, v2 = rebuilt.to_coo()
    if not (
        np.array_equal(rows, r2)
        and np.array_equal(cols, c2)
        and np.array_equal(values, v2)
    ):
        return [
            f"COO round trip does not conserve the logical matrix "
            f"({values.shape[0]} stored triples -> {v2.shape[0]})"
        ]
    if not np.isclose(m.density, rebuilt.density):
        return [
            f"density not conserved by round trip: {m.density!r} -> "
            f"{rebuilt.density!r}"
        ]
    return []


def format_violations(
    matrix: MatrixFormat, *, deep: bool = False
) -> List[str]:
    """All invariant violations of ``matrix`` (empty list = healthy).

    ``deep=True`` adds the O(nnz log nnz) COO round-trip conservation
    check on top of the structural pass.
    """
    inner = getattr(matrix, "inner", matrix)
    name = getattr(inner, "name", type(inner).__name__)
    violations: List[str] = []
    m, n = inner.shape
    if m < 0 or n < 0:
        violations.append(f"negative shape {inner.shape}")
    checker = _CHECKERS.get(name)
    if checker is not None:
        violations.extend(checker(inner))
    if deep and not violations:
        violations.extend(_check_roundtrip(inner))
    return [f"{name}: {text}" for text in violations]


def check_format(matrix: MatrixFormat, *, deep: bool = False) -> None:
    """Raise :class:`FormatInvariantError` if any invariant is broken."""
    violations = format_violations(matrix, deep=deep)
    if violations:
        raise FormatInvariantError("; ".join(violations))


def _row_violations(v: SparseVector, n: int) -> List[str]:
    """What makes ``v`` an illegal row of an ``N = n`` column matrix."""
    if v.length != n:
        return [f"has length {v.length}, expected {n}"]
    idx, vals = v.indices, v.values
    if idx.ndim != 1 or vals.ndim != 1:
        return [
            f"indices/values must be 1-D, got {idx.ndim}-D/{vals.ndim}-D"
        ]
    out = _check_dtype("indices", idx, INDEX_DTYPE)
    out += _check_dtype("values", vals, VALUE_DTYPE)
    if idx.shape[0] != vals.shape[0]:
        out.append(
            f"has {idx.shape[0]} indices but {vals.shape[0]} values"
        )
    bad = np.nonzero(idx[1:] <= idx[:-1])[0]
    if bad.size:
        out.append(
            f"indices not strictly increasing at position {int(bad[0]) + 1}"
        )
    out += _check_index_range("indices", idx, n)
    return out


# -- the per-operation wrapper ----------------------------------------


class SanitizedMatrix(MatrixFormat):
    """Proxy that re-validates the wrapped format before every operation.

    The wrapped matrix is checked deeply at wrap time and structurally
    before each kernel call, and kernel outputs are themselves checked
    for shape/dtype.  Use for debugging suspected in-place corruption;
    the overhead is a small constant factor over the kernel itself.
    """

    name = "SANITIZED"

    def __init__(self, inner: MatrixFormat, *, deep: bool = True) -> None:
        if isinstance(inner, SanitizedMatrix):
            inner = inner.inner
        check_format(inner, deep=deep)
        self.inner = inner
        self.shape = inner.shape
        # Shadow the ClassVar so the proxy is transparent to callers
        # that dispatch on the paper name (e.g. the scheduler).
        self.name = inner.name

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "SanitizedMatrix":
        raise TypeError(
            "SanitizedMatrix wraps an existing matrix; build the "
            "concrete format first and call sanitize_format() on it"
        )

    def _recheck(self) -> None:
        check_format(self.inner)

    def _check_vector(self, y: np.ndarray, op: str) -> np.ndarray:
        if y.shape != (self.shape[0],):
            raise FormatInvariantError(
                f"{self.name}: {op} returned shape {y.shape}, "
                f"expected ({self.shape[0]},)"
            )
        if y.dtype != np.dtype(VALUE_DTYPE):
            raise FormatInvariantError(
                f"{self.name}: {op} returned dtype {y.dtype}, "
                f"expected {np.dtype(VALUE_DTYPE)}"
            )
        return y

    # -- delegated interface ------------------------------------------
    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._recheck()
        return self.inner.to_coo()

    @property
    def nnz(self) -> int:
        return self.inner.nnz

    def storage_elements(self) -> int:
        return self.inner.storage_elements()

    def _backing_arrays(self) -> Tuple[np.ndarray, ...]:
        return self.inner._backing_arrays()

    def matvec(
        self, x: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        self._recheck()
        return self._check_vector(
            self.inner.matvec(x, counter), "matvec"
        )

    def smsv(
        self, v: SparseVector, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        self._recheck()
        return self._check_vector(self.inner.smsv(v, counter), "smsv")

    def _check_block(self, Y: np.ndarray, k: int, op: str) -> np.ndarray:
        if Y.shape != (self.shape[0], k):
            raise FormatInvariantError(
                f"{self.name}: {op} returned shape {Y.shape}, "
                f"expected ({self.shape[0]}, {k})"
            )
        if Y.dtype != np.dtype(VALUE_DTYPE):
            raise FormatInvariantError(
                f"{self.name}: {op} returned dtype {Y.dtype}, "
                f"expected {np.dtype(VALUE_DTYPE)}"
            )
        return Y

    def matmat(
        self, V: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        self._recheck()
        k = int(np.asarray(V).shape[1]) if np.asarray(V).ndim == 2 else -1
        return self._check_block(
            self.inner.matmat(V, counter), k, "matmat"
        )

    def smsv_multi(
        self, vectors, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        self._recheck()
        vectors = list(vectors)
        return self._check_block(
            self.inner.smsv_multi(vectors, counter),
            len(vectors),
            "smsv_multi",
        )

    def row(self, i: int) -> SparseVector:
        # Formats hand out rows unchecked (SparseVector._trusted), so
        # the proxy re-checks what the public constructor would have.
        self._recheck()
        out = self.inner.row(i)
        violations = _row_violations(out, self.shape[1])
        if violations:
            raise FormatInvariantError(
                f"{self.name}: row({i}) " + "; ".join(violations)
            )
        return out

    def row_norms_sq(self) -> np.ndarray:
        self._recheck()
        out = self.inner.row_norms_sq()
        if out.shape != (self.shape[0],):
            raise FormatInvariantError(
                f"{self.name}: row_norms_sq returned shape "
                f"{out.shape}, expected ({self.shape[0]},)"
            )
        return out

    def transpose(self) -> "SanitizedMatrix":
        self._recheck()
        return SanitizedMatrix(self.inner.transpose(), deep=False)


def sanitize_format(
    matrix: MatrixFormat, *, deep: bool = True
) -> SanitizedMatrix:
    """Validate ``matrix`` and wrap it so every later use re-validates.

    Raises :class:`FormatInvariantError` immediately if the matrix is
    already corrupt.  Used by ``repro train --sanitize`` and by tests
    that want hard guarantees around a suspect code path.
    """
    return SanitizedMatrix(matrix, deep=deep)
