"""Conversions between formats, and scipy/NumPy interop.

All conversions route through canonical COO triples, so any pair of
formats round-trips exactly (a hypothesis-tested invariant).  Conversion
cost is O(nnz log nnz) for the sort plus the target format's build cost,
which ``AdaptiveSVC.convert_seconds_`` reports alongside each fit.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp

from repro.formats.base import FORMAT_NAMES, VALUE_DTYPE, MatrixFormat
from repro.obs.trace import get_tracer
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.dense import DenseMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.reorder import RCSRMatrix, RSELLMatrix
from repro.formats.sell import SELLMatrix

#: Registry keyed by format name.  The first five are the paper's basic
#: formats in ``FORMAT_NAMES`` order (the scheduler's default candidate
#: set); SELL and the reordered layouts (RCSR / RSELL = SELL-C-sigma)
#: are the padding-variance cures.  The cost model prices every entry,
#: and its rank ties break by this order.
FORMAT_CLASSES: Dict[str, Type[MatrixFormat]] = {
    "ELL": ELLMatrix,
    "CSR": CSRMatrix,
    "COO": COOMatrix,
    "DEN": DenseMatrix,
    "DIA": DIAMatrix,
    "SELL": SELLMatrix,
    "RCSR": RCSRMatrix,
    "RSELL": RSELLMatrix,
}

#: The named candidate families, declared here once; every module that
#: restricts a decision imports its family from this table.  Order
#: inside a family matters: cost-model rank ties break by input order.
#:
#: ``paper``     the five basic layouts of Section III-A, the
#:               scheduler's default candidate set (``FORMAT_NAMES``).
#: ``serve``     canonical float64 values, each row accumulated in
#:               ascending column order: a layout swap inside the family
#:               is bitwise on sparse row/query overlaps (at most two
#:               non-zero products per sum) and within 1 ULP otherwise.
#:               BLAS-backed DEN re-associates freely and is excluded.
#: ``bitwise``   kernels that reduce exactly CSR's product array in
#:               CSR's order (the reordered wrappers only scatter
#:               finished row sums), so a swap is bitwise on any
#:               overlap.
FORMAT_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "paper": FORMAT_NAMES,
    "serve": ("CSR", "COO", "ELL", "DIA", "SELL", "RCSR", "RSELL"),
    "bitwise": ("CSR", "SELL", "RCSR", "RSELL"),
}


def format_class(name: str) -> Type[MatrixFormat]:
    """Look up a format class by (case-insensitive) paper name."""
    key = name.upper()
    try:
        return FORMAT_CLASSES[key]
    except KeyError:
        raise ValueError(
            f"unknown format {name!r}; expected one of {sorted(FORMAT_CLASSES)}"
        ) from None


def convert(
    matrix: MatrixFormat, target: Union[str, Type[MatrixFormat]]
) -> MatrixFormat:
    """Convert ``matrix`` to another format (no-op if already there)."""
    cls = format_class(target) if isinstance(target, str) else target
    if isinstance(matrix, cls):
        return matrix
    tracer = get_tracer()
    with tracer.span("formats.convert") as sp:
        if tracer.enabled:
            sp.set("from", matrix.name)
            sp.set("to", cls.name)
            sp.set("nnz", int(matrix.nnz))
        rows, cols, values = matrix.to_coo()
        return cls.from_coo(rows, cols, values, matrix.shape)


def from_dense(
    array: np.ndarray, target: Union[str, Type[MatrixFormat]] = "DEN"
) -> MatrixFormat:
    """Build any format from a dense 2-D array."""
    array = np.asarray(array, dtype=VALUE_DTYPE)
    if array.ndim != 2:
        raise ValueError("expected a 2-D array")
    cls = format_class(target) if isinstance(target, str) else target
    if cls is DenseMatrix:
        return DenseMatrix(array)
    rows, cols = np.nonzero(array)
    return cls.from_coo(rows, cols, array[rows, cols], array.shape)


def from_scipy(
    matrix: sp.spmatrix | sp.sparray,
    target: Union[str, Type[MatrixFormat]] = "CSR",
) -> MatrixFormat:
    """Import a scipy.sparse matrix (any scipy format) into ours."""
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()
    cls = format_class(target) if isinstance(target, str) else target
    return cls.from_coo(coo.row, coo.col, coo.data, coo.shape)


def to_scipy(matrix: MatrixFormat) -> sp.csr_matrix:
    """Export to a scipy CSR matrix (used by tests as the oracle)."""
    rows, cols, values = matrix.to_coo()
    return sp.csr_matrix((values, (rows, cols)), shape=matrix.shape)
