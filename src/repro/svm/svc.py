"""Public SVM classifier API on top of the SMO solver.

- :class:`SVC` — binary classifier: ``fit`` / ``decision_function`` /
  ``predict`` / ``score``, sparse-aware end to end.
- :class:`MulticlassSVC` — one-vs-one composition (the paper: "multi-
  class SVMs are generally implemented as several independent
  binary-class SVMs ... easily trained in parallel"); pairs train
  through :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.formats.base import MatrixFormat, SparseVector
from repro.formats.convert import from_dense
from repro.parallel.pool import parallel_map
from repro.perf.counters import OpCounter
from repro.svm.kernels import Kernel, make_kernel
from repro.svm.smo import SMOResult, smo_train

MatrixLike = Union[MatrixFormat, np.ndarray]


def _as_matrix(X: MatrixLike, fmt: str = "CSR") -> MatrixFormat:
    if isinstance(X, MatrixFormat):
        return X
    return from_dense(np.asarray(X), fmt)


class SVC:
    """Binary support vector classifier trained with SMO.

    Parameters
    ----------
    kernel:
        Kernel name (``linear`` / ``polynomial`` / ``gaussian`` /
        ``sigmoid``) or a :class:`~repro.svm.kernels.Kernel` instance.
    C, tol, max_iter, cache_rows, cache_mb, working_set, shrink_every:
        Passed through to :func:`repro.svm.smo.smo_train`
        (``working_set="second"`` enables LIBSVM's second-order pair
        selection; ``shrink_every > 0`` enables shrinking; ``cache_mb``
        sizes the row cache by memory budget, LIBSVM ``-m`` style, and
        leaving both cache sizes ``None`` runs the tuning catalogue's
        ``row_cache_mb`` default).  Fits always run SMO's fused
        dual-row SpMM path; ``smo_train(fuse_rows=False)`` is the
        unfused reference the tests compare it with.
    sv_block:
        Support vectors per blocked SpMM sweep in
        :meth:`decision_function` (``1`` disables blocking and
        reproduces the historical per-vector loop).  Each sweep's
        columns are bit-for-bit identical to the per-vector SMSVs and
        the accumulation order is unchanged, so the blocked path is
        bitwise identical to the sequential one for any block size.
    kernel_params:
        Keyword parameters for a kernel given by name (e.g.
        ``gamma=0.5``).

    Notes
    -----
    The training matrix's storage format is whatever the caller built —
    this class never converts.  :class:`~repro.svm.adaptive.AdaptiveSVC`
    is the variant that schedules the layout first.
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
        sv_block: int = 32,
        **kernel_params: float,
    ) -> None:
        if isinstance(kernel, str):
            kernel = make_kernel(kernel, **kernel_params)
        elif kernel_params:
            raise ValueError(
                "kernel_params only apply when kernel is given by name"
            )
        if sv_block < 1:
            raise ValueError("sv_block must be >= 1")
        self.kernel = kernel
        self.C = C
        self.tol = tol
        self.max_iter = max_iter
        self.cache_rows = cache_rows
        self.cache_mb = cache_mb
        self.working_set = working_set
        self.shrink_every = shrink_every
        self.sv_block = int(sv_block)
        # fitted state
        self.result_: Optional[SMOResult] = None
        self._sv_vectors: List[SparseVector] = []
        self._sv_coef: Optional[np.ndarray] = None
        self._sv_matrix: Optional[MatrixFormat] = None

    # -- training --------------------------------------------------------
    def fit(
        self,
        X: MatrixLike,
        y: np.ndarray,
        *,
        counter: Optional[OpCounter] = None,
    ) -> "SVC":
        """Train on M samples; ``y`` must be ±1."""
        X = _as_matrix(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        result = smo_train(
            X,
            y,
            self.kernel,
            C=self.C,
            tol=self.tol,
            max_iter=self.max_iter,
            cache_rows=self.cache_rows,
            cache_mb=self.cache_mb,
            working_set=self.working_set,
            shrink_every=self.shrink_every,
            counter=counter,
        )
        self.result_ = result
        sv_idx = np.nonzero(result.alpha > 1e-12 * self.C)[0]
        self._sv_vectors = [X.row(int(i)) for i in sv_idx]
        self._sv_coef = result.alpha[sv_idx] * y[sv_idx]
        return self

    @property
    def fitted(self) -> bool:
        return self.result_ is not None

    @property
    def n_support(self) -> int:
        self._check_fitted()
        return len(self._sv_vectors)

    def _check_fitted(self) -> None:
        if self.result_ is None:
            raise RuntimeError("SVC is not fitted; call fit() first")

    # -- inference ---------------------------------------------------------
    def decision_function(
        self, X: MatrixLike, *, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """``sum_sv coef_s K(X_s, x) - b`` for every query row.

        Support vectors are evaluated against the query matrix in
        blocks of ``sv_block`` through one fused SpMM per block
        (:meth:`~repro.svm.kernels.Kernel.rows`) instead of one SMSV
        per support vector: the matrix side — the queries — is
        traversed once per block rather than once per vector.  Each
        SpMM column is bit-for-bit the corresponding single-vector
        kernel row and the per-vector accumulation order is preserved,
        so the result is bitwise identical to the sequential loop.
        """
        self._check_fitted()
        X = _as_matrix(X)
        m = X.shape[0]
        out = np.full(m, -self.result_.b, dtype=np.float64)
        # Blocked SMSVs of the *support vectors* against the query
        # matrix: queries usually outnumber SVs, so this orientation
        # does the fewest kernel evaluations.
        norms = X.row_norms_sq()
        n_sv = len(self._sv_vectors)
        if self.sv_block > 1 and n_sv > 1:
            for lo in range(0, n_sv, self.sv_block):
                block = self._sv_vectors[lo : lo + self.sv_block]
                K = self.kernel.rows(
                    X,
                    block,
                    np.array([sv.norm_sq() for sv in block]),
                    norms,
                    counter,
                )
                for c, coef in enumerate(
                    self._sv_coef[lo : lo + self.sv_block]
                ):
                    out += coef * K[:, c]
            return out
        for coef, sv in zip(self._sv_coef, self._sv_vectors):
            krow = self.kernel.row(X, sv, sv.norm_sq(), norms, counter)
            out += coef * krow
        return out

    def predict(
        self, X: MatrixLike, *, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """±1 labels for every query row."""
        return np.where(
            self.decision_function(X, counter=counter) >= 0.0, 1.0, -1.0
        )

    def score(self, X: MatrixLike, y: np.ndarray) -> float:
        """Classification accuracy on (X, y)."""
        y = np.asarray(y, dtype=np.float64).ravel()
        return float(np.mean(self.predict(X) == y))

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted model (see :mod:`repro.svm.persist`)."""
        from repro.svm.persist import save_svc

        save_svc(self, path)

    @classmethod
    def load(cls, path) -> "SVC":
        """Load a model saved by :meth:`save`; prediction-identical."""
        from repro.svm.persist import load_svc

        return load_svc(path)


@dataclass
class _PairModel:
    classes: Tuple[float, float]
    svc: SVC


class MulticlassSVC:
    """One-vs-one multiclass SVM: k*(k-1)/2 independent binary SVMs.

    Pairwise models vote at prediction time; ties resolve to the lowest
    class label (deterministic).  Training parallelises across pairs via
    :func:`repro.parallel.parallel_map`, matching the paper's note that
    binary subproblems are embarrassingly parallel.

    With ``adaptive=True`` every pairwise subproblem gets its *own*
    layout decision (pair submatrices have different profiles — e.g.
    dropping a dense class can leave a much sparser pair).
    """

    def __init__(
        self,
        kernel: Union[str, Kernel] = "linear",
        *,
        C: float = 1.0,
        tol: float = 1e-3,
        max_iter: int = 100_000,
        n_workers: Optional[int] = None,
        adaptive: bool = False,
        scheduler=None,
        **kernel_params: float,
    ) -> None:
        self._svc_args = dict(
            kernel=kernel, C=C, tol=tol, max_iter=max_iter, **kernel_params
        )
        self.n_workers = n_workers
        self.adaptive = adaptive or scheduler is not None
        self._scheduler = scheduler
        self.models_: List[_PairModel] = []
        self.classes_: Optional[np.ndarray] = None

    def _make_svc(self) -> SVC:
        if not self.adaptive:
            return SVC(**self._svc_args)
        from repro.svm.adaptive import AdaptiveSVC  # local: avoid cycle

        kwargs = dict(self._svc_args)
        if self._scheduler is not None:
            kwargs["scheduler"] = self._scheduler
        return AdaptiveSVC(**kwargs)

    def fit(self, X: MatrixLike, y: np.ndarray) -> "MulticlassSVC":
        X = _as_matrix(X)
        y = np.asarray(y, dtype=np.float64).ravel()
        self.classes_ = np.unique(y)
        if self.classes_.shape[0] < 2:
            raise ValueError("need at least two classes")
        pairs = list(combinations(self.classes_.tolist(), 2))
        rows, cols, values = X.to_coo()

        def train_pair(pair: Tuple[float, float]) -> _PairModel:
            a, b = pair
            mask = (y == a) | (y == b)
            idx = np.nonzero(mask)[0]
            lookup = np.full(X.shape[0], -1, dtype=np.int64)
            lookup[idx] = np.arange(idx.shape[0])
            keep = lookup[rows] >= 0
            sub = type(X).from_coo(
                lookup[rows[keep]],
                cols[keep],
                values[keep],
                (idx.shape[0], X.shape[1]),
            )
            y_bin = np.where(y[idx] == a, 1.0, -1.0)
            svc = self._make_svc()
            svc.fit(sub, y_bin)
            return _PairModel(classes=(a, b), svc=svc)

        self.models_ = parallel_map(train_pair, pairs, n_workers=self.n_workers)
        return self

    def predict(
        self, X: MatrixLike, *, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        if not self.models_:
            raise RuntimeError("MulticlassSVC is not fitted; call fit() first")
        # Convert once; every pairwise model then votes through the
        # blocked SpMM inference path of SVC.decision_function.
        X = _as_matrix(X)
        m = X.shape[0]
        class_index: Dict[float, int] = {
            c: i for i, c in enumerate(self.classes_.tolist())
        }
        votes = np.zeros((m, len(class_index)), dtype=np.int64)
        for pm in self.models_:
            pred = pm.svc.predict(X, counter=counter)
            a, b = pm.classes
            votes[:, class_index[a]] += pred > 0
            votes[:, class_index[b]] += pred < 0
        return self.classes_[np.argmax(votes, axis=1)]

    def score(self, X: MatrixLike, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=np.float64).ravel()
        return float(np.mean(self.predict(X) == y))

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted model (see :mod:`repro.svm.persist`)."""
        from repro.svm.persist import save_multiclass

        save_multiclass(self, path)

    @classmethod
    def load(cls, path) -> "MulticlassSVC":
        """Load a model saved by :meth:`save`; prediction-identical."""
        from repro.svm.persist import load_multiclass

        return load_multiclass(path)
