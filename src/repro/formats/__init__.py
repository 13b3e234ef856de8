"""Sparse / dense matrix storage formats.

Implements, from scratch, the five basic storage formats the paper
schedules between (Section III.A):

========  =======================================  ====================
Format    Class                                    Work per SMSV
========  =======================================  ====================
DEN       :class:`repro.formats.dense.DenseMatrix`   ``M * N``
CSR       :class:`repro.formats.csr.CSRMatrix`       ``nnz`` (+ row loop)
COO       :class:`repro.formats.coo.COOMatrix`       ``nnz`` (3 streams)
ELL       :class:`repro.formats.ell.ELLMatrix`       ``M * mdim`` (padded)
DIA       :class:`repro.formats.dia.DIAMatrix`       ``ndig * Ldiag`` (padded)
========  =======================================  ====================

Design rules, shared by all formats:

- **Padding costs are real.**  ELL and DIA kernels compute over their
  padded arrays, so the measured slowdowns of Figs. 2-3 come from actual
  work, not from a model.
- **Exact storage accounting.**  ``storage_elements()`` returns the count
  Table II's formulas predict; tests pin the two against each other.
- **Canonical construction path.**  Every format converts through COO
  triples (``from_coo`` / ``to_coo``), which makes all pairwise
  conversions available and property-testable (round trips).
"""

from repro.formats.base import FORMAT_NAMES, MatrixFormat, SparseVector
from repro.formats.dense import DenseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.coo import COOMatrix
from repro.formats.ell import ELLMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.sell import (
    DEFAULT_CHUNK,
    SELLMatrix,
    sell_storage_elements,
    slice_widths_for,
)
from repro.formats.reorder import (
    PermutedMatrix,
    RCSRMatrix,
    RSELLMatrix,
    invert_permutation,
    sigma_window_permutation,
)
from repro.formats.convert import (
    FORMAT_CLASSES,
    FORMAT_FAMILIES,
    convert,
    format_class,
    from_dense,
    from_scipy,
    to_scipy,
)
from repro.formats.storage import (
    StorageModel,
    storage_elements_analytic,
    storage_max,
    storage_min,
)

__all__ = [
    "MatrixFormat",
    "SparseVector",
    "FORMAT_NAMES",
    "DenseMatrix",
    "CSRMatrix",
    "COOMatrix",
    "ELLMatrix",
    "DIAMatrix",
    "SELLMatrix",
    "DEFAULT_CHUNK",
    "sell_storage_elements",
    "slice_widths_for",
    "PermutedMatrix",
    "RCSRMatrix",
    "RSELLMatrix",
    "sigma_window_permutation",
    "invert_permutation",
    "FORMAT_CLASSES",
    "FORMAT_FAMILIES",
    "convert",
    "format_class",
    "from_dense",
    "from_scipy",
    "to_scipy",
    "StorageModel",
    "storage_elements_analytic",
    "storage_min",
    "storage_max",
]
