"""Fixed-format SVMs: the non-adaptive baselines.

Existing tools hardcode one layout (paper Section I): LIBSVM uses CSR
everywhere, GPUSVM uses DEN everywhere.  :class:`FixedFormatSVC`
captures the pattern — convert the input to the fixed format, then train
identically to :class:`~repro.svm.svc.SVC` — so every speedup comparison
in the benchmark suite differs from the adaptive system *only* in the
layout decision.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.formats.base import MatrixFormat
from repro.formats.convert import convert, format_class
from repro.perf.counters import OpCounter
from repro.svm.kernels import Kernel
from repro.svm.svc import SVC, MatrixLike, _as_matrix


class FixedFormatSVC(SVC):
    """An SVC that always stores the training matrix in one format.

    Parameters
    ----------
    fmt:
        The hardcoded storage format name.
    (rest as for :class:`SVC`)
    """

    def __init__(
        self,
        fmt: str,
        kernel: Union[str, Kernel] = "linear",
        *,
        C: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 100_000,
        cache_rows: Optional[int] = None,
        **kernel_params: float,
    ) -> None:
        super().__init__(
            kernel,
            C=C,
            tol=tol,
            max_iter=max_iter,
            cache_rows=cache_rows,
            **kernel_params,
        )
        # Validate eagerly: a typo should fail at construction.
        format_class(fmt)
        self.fmt = fmt.upper()

    def fit(
        self,
        X: MatrixLike,
        y: np.ndarray,
        *,
        counter: Optional[OpCounter] = None,
    ) -> "FixedFormatSVC":
        matrix = convert(_as_matrix(X), self.fmt)
        super().fit(matrix, y, counter=counter)
        return self


class GPUSVMStyleSVC(FixedFormatSVC):
    """GPUSVM emulation: dense storage for every dataset.

    Strong on genuinely dense data (gisette, epsilon), pays the full
    ``M * N`` storage and compute on sparse data (sector's density of
    0.003 makes DEN the worst format there, Table VI).
    """

    def __init__(self, kernel: Union[str, Kernel] = "linear", **kw) -> None:
        super().__init__("DEN", kernel, **kw)
