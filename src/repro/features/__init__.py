"""Dataset statistics — the paper's nine influencing parameters.

Table IV of the paper defines nine parameters of the data matrix that
drive format performance: M, N, nnz, ndig, dnnz, mdim, adim, vdim and
density.  :class:`DatasetProfile` holds them; :func:`extract_profile`
computes them from any :class:`~repro.formats.base.MatrixFormat` (or raw
COO triples) in one O(nnz) pass.
"""

from repro.features.profile import (
    PARAMETER_NAMES,
    CorrelationSign,
    DatasetProfile,
    TABLE_IV_SIGNS,
)
from repro.features.extract import (
    LayoutFeatures,
    extract_profile,
    layout_features,
    layout_features_from_matrix,
    profile_from_coo,
    profile_from_dense,
)

__all__ = [
    "DatasetProfile",
    "PARAMETER_NAMES",
    "CorrelationSign",
    "TABLE_IV_SIGNS",
    "extract_profile",
    "profile_from_coo",
    "profile_from_dense",
    "LayoutFeatures",
    "layout_features",
    "layout_features_from_matrix",
]
