"""AdaptiveSVC — the paper's full system.

Before training, a :class:`~repro.core.scheduler.LayoutScheduler`
extracts the nine Table IV parameters from the input, decides the
storage format, converts, and only then runs SMO.  The decision, its
reasoning, and the conversion overhead are all recorded on the fitted
model so experiments can audit the adaptive system's behaviour.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from repro.core.scheduler import Decision, LayoutScheduler
from repro.perf.counters import OpCounter
from repro.svm.kernels import Kernel
from repro.svm.svc import SVC, MatrixLike, _as_matrix


class AdaptiveSVC(SVC):
    """An :class:`~repro.svm.svc.SVC` that schedules its data layout.

    Parameters
    ----------
    kernel, C, tol, max_iter, cache_rows, kernel_params:
        As for :class:`SVC`.
    scheduler:
        The layout scheduler; defaults to the hybrid strategy.

    Attributes
    ----------
    decision_:
        The layout decision made at ``fit`` time.
    convert_seconds_:
        Wall time of the whole scheduling step before SMO: extracting
        the profile, deciding (including any probe the strategy runs)
        and converting the input — the runtime overhead the paper's
        speedups are net of.
    """

    def __init__(
        self,
        kernel: Union[str, Kernel] = "linear",
        *,
        C: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 100_000,
        cache_rows: Optional[int] = None,
        cache_mb: Optional[float] = None,
        working_set: str = "first",
        shrink_every: int = 0,
        scheduler: Optional[LayoutScheduler] = None,
        **kernel_params: float,
    ) -> None:
        super().__init__(
            kernel,
            C=C,
            tol=tol,
            max_iter=max_iter,
            cache_rows=cache_rows,
            cache_mb=cache_mb,
            working_set=working_set,
            shrink_every=shrink_every,
            **kernel_params,
        )
        self.scheduler = scheduler or LayoutScheduler("hybrid")
        self.decision_: Optional[Decision] = None
        self.convert_seconds_: float = 0.0

    def fit(
        self,
        X: MatrixLike,
        y: np.ndarray,
        *,
        counter: Optional[OpCounter] = None,
    ) -> "AdaptiveSVC":
        matrix = _as_matrix(X)
        t0 = time.perf_counter()
        matrix, decision = self.scheduler.apply(matrix)
        self.convert_seconds_ = time.perf_counter() - t0
        self.decision_ = decision
        super().fit(matrix, y, counter=counter)
        return self

    @property
    def chosen_format(self) -> str:
        """The format the scheduler selected (raises before fit)."""
        if self.decision_ is None:
            raise RuntimeError("AdaptiveSVC is not fitted; call fit() first")
        return self.decision_.fmt
