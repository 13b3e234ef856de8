"""The inference engine: a served model behind a swappable layout.

:class:`ServedModel` flattens a fitted SVM into serving shape — every
support vector of every pairwise model stacked into **one** sparse
matrix, coefficients in one array, and per-pair ``(lo, hi, bias)``
slices into it.  One blocked kernel sweep (``smsv_multi`` via
:meth:`~repro.svm.kernels.Kernel.rows`) then answers a whole micro-
batch for *all* pairwise classifiers at once.

:class:`InferenceEngine` holds the model with its matrix in a
scheduler-chosen format and swaps that format in place when the
re-scheduler says the observed batch-size distribution moved the cost
ranking (the paper's runtime scheduling, applied at serving time).

Bitwise contract
----------------
Batched and single-vector answers are bit-for-bit identical *within
any one format*:

* the blocked kernels guarantee each SpMM column equals the
  single-vector kernel row (PR 2 contract);
* both paths contract coefficients with the same routine on a
  contiguous buffer: ``np.dot(coef[lo:hi], col[lo:hi]) - bias``.

Across a format swap the guarantee is conditional.  Every format in
:data:`EXACT_SERVE_FORMATS` stores the same canonical float64 values
and accumulates each output element over a row's non-zeros in
ascending column order, but the *association* of those adds differs
(CSR segments via ``np.add.reduceat``, COO via ``np.bincount``, ELL
via ``einsum``, DIA per diagonal).  When a kernel-row sum touches at
most two non-zero products — the regime of the sparse query streams
this subsystem targets — every association yields the same bits, so a
mid-stream re-schedule is exactly invisible; the bench's re-schedule
demo asserts that at runtime.  On dense row/query overlaps the formats
can drift by 1 ULP, which is why DEN (BLAS-backed, freely
re-associating) is excluded from the candidate set outright and why
the general cross-format claim is agreement to ``atol=1e-12``, not
bit equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.race import make_lock, track_shared
from repro.formats.base import MatrixFormat, SparseVector
from repro.formats.convert import FORMAT_FAMILIES, convert, format_class
from repro.obs.trace import get_tracer
from repro.perf.counters import OpCounter
from repro.svm.kernels import Kernel

#: The serving candidate family, ``FORMAT_FAMILIES["serve"]``: its
#: exactness contract is declared with it in :mod:`repro.formats.convert`
#: and explained in the module docstring.
EXACT_SERVE_FORMATS: Tuple[str, ...] = FORMAT_FAMILIES["serve"]


@dataclass(frozen=True)
class PairSlice:
    """One binary classifier's slice of the stacked SV arena."""

    classes: Tuple[float, float]
    lo: int
    hi: int
    bias: float


class ServedModel:
    """A fitted SVM flattened for serving.

    Parameters
    ----------
    matrix:
        All support vectors stacked row-wise, any sparse format.
    coef:
        Signed dual coefficients, one per stacked row.
    pairs:
        Slice descriptors; one entry for a binary model, ``k(k-1)/2``
        for one-vs-one multiclass.
    kernel:
        The (shared) kernel all pairs were trained with.
    classes:
        Sorted class labels for multiclass voting; ``None`` for a
        binary model (labels are ±1 from the single decision value).
    sv_norms:
        Precomputed squared row norms.  The fleet's shared-memory
        transport passes the published norms here so attaching a model
        in a worker neither copies nor recomputes them; when omitted
        they are computed from the matrix as before.
    """

    def __init__(
        self,
        matrix: MatrixFormat,
        coef: np.ndarray,
        pairs: Sequence[PairSlice],
        kernel: Kernel,
        classes: Optional[np.ndarray] = None,
        sv_norms: Optional[np.ndarray] = None,
    ) -> None:
        if not pairs:
            raise ValueError("a served model needs at least one pair slice")
        coef = np.ascontiguousarray(coef, dtype=np.float64)
        if coef.shape != (matrix.shape[0],):
            raise ValueError(
                f"coef shape {coef.shape} does not match "
                f"{matrix.shape[0]} stacked support vectors"
            )
        for p in pairs:
            if not 0 <= p.lo <= p.hi <= matrix.shape[0]:
                raise ValueError(f"pair slice [{p.lo}, {p.hi}) out of range")
        self.matrix = matrix
        self.coef = coef
        self.pairs = list(pairs)
        self.kernel = kernel
        self.classes = (
            np.asarray(classes, dtype=float) if classes is not None else None
        )
        if self.classes is not None:
            self._class_index: Dict[float, int] = {
                c: i for i, c in enumerate(self.classes.tolist())
            }
        else:
            self._class_index = {}
        # Row norms come from the canonical COO expansion, so this
        # array survives format conversions bitwise — compute once
        # (or accept the published copy from a fleet handle).
        if sv_norms is not None:
            if sv_norms.shape != (matrix.shape[0],):
                raise ValueError(
                    f"sv_norms shape {sv_norms.shape} does not match "
                    f"{matrix.shape[0]} stacked support vectors"
                )
            self.sv_norms = sv_norms
        else:
            self.sv_norms = matrix.row_norms_sq()

    def clone(self) -> "ServedModel":
        """A new ServedModel sharing the heavy arrays.

        Stored matrices are immutable here (conversion always builds a
        new object), so clones can share the current matrix, coef and
        norms; only the ``matrix`` *reference* is per-clone state — the
        piece an engine's runtime re-scheduling mutates.
        """
        out = object.__new__(ServedModel)
        out.matrix = self.matrix
        out.coef = self.coef
        out.pairs = self.pairs
        out.kernel = self.kernel
        out.classes = self.classes
        out._class_index = self._class_index
        out.sv_norms = self.sv_norms
        return out

    @property
    def n_support(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def _stack(
        sv_lists: Sequence[Sequence[SparseVector]],
        n_features: int,
        fmt: str,
    ) -> MatrixFormat:
        svs = [sv for block in sv_lists for sv in block]
        if not svs:
            raise ValueError("model has no support vectors to serve")
        rows = np.concatenate(
            [np.full(sv.nnz, i, dtype=np.int64) for i, sv in enumerate(svs)]
        )
        cols = np.concatenate([np.asarray(sv.indices) for sv in svs])
        values = np.concatenate([np.asarray(sv.values) for sv in svs])
        return format_class(fmt).from_coo(
            rows, cols, values, (len(svs), n_features)
        )

    @classmethod
    def from_svc(cls, svc, fmt: str = "CSR") -> "ServedModel":
        """Flatten a fitted binary :class:`~repro.svm.svc.SVC`."""
        svc._check_fitted()
        n = int(svc._sv_vectors[0].length) if svc._sv_vectors else 0
        matrix = cls._stack([svc._sv_vectors], n, fmt)
        return cls(
            matrix,
            np.asarray(svc._sv_coef),
            [
                PairSlice(
                    classes=(1.0, -1.0),
                    lo=0,
                    hi=len(svc._sv_vectors),
                    bias=float(svc.result_.b),
                )
            ],
            svc.kernel,
            classes=None,
        )

    @classmethod
    def from_multiclass(cls, model, fmt: str = "CSR") -> "ServedModel":
        """Flatten a fitted :class:`~repro.svm.svc.MulticlassSVC`."""
        if not model.models_:
            raise RuntimeError(
                "MulticlassSVC is not fitted; call fit() first"
            )
        n = 0
        for pm in model.models_:
            if pm.svc._sv_vectors:
                n = int(pm.svc._sv_vectors[0].length)
                break
        matrix = cls._stack(
            [pm.svc._sv_vectors for pm in model.models_], n, fmt
        )
        coef = np.concatenate(
            [np.asarray(pm.svc._sv_coef) for pm in model.models_]
        )
        pairs = []
        lo = 0
        for pm in model.models_:
            hi = lo + len(pm.svc._sv_vectors)
            pairs.append(
                PairSlice(
                    classes=(float(pm.classes[0]), float(pm.classes[1])),
                    lo=lo,
                    hi=hi,
                    bias=float(pm.svc.result_.b),
                )
            )
            lo = hi
        return cls(matrix, coef, pairs, model.models_[0].svc.kernel,
                   classes=model.classes_)

    @classmethod
    def from_model(cls, model, fmt: str = "CSR") -> "ServedModel":
        """Flatten either model kind (registry loading path)."""
        from repro.svm.svc import SVC, MulticlassSVC

        if isinstance(model, SVC):
            return cls.from_svc(model, fmt)
        if isinstance(model, MulticlassSVC):
            return cls.from_multiclass(model, fmt)
        raise TypeError(
            f"cannot serve a {type(model).__name__}; expected SVC or "
            f"MulticlassSVC"
        )


class InferenceEngine:
    """Answers queries from a :class:`ServedModel`, one SpMM per batch.

    The matrix reference is swapped atomically under a lock by
    :meth:`convert_to`; each ``predict`` call reads the reference once,
    so a concurrent re-schedule never splits a batch across formats.
    Converted matrices are kept in a warm per-format cache — flipping
    back to a previously used layout is a dictionary lookup.
    """

    def __init__(
        self,
        model: ServedModel,
        *,
        counter: Optional[OpCounter] = None,
    ) -> None:
        self.model = model
        self.counter = counter if counter is not None else OpCounter()
        self._lock = make_lock("serve.engine")
        self._warm: Dict[str, MatrixFormat] = {
            model.matrix.name: model.matrix
        }
        # The matrix *reference* is the engine's one piece of shared
        # mutable state (REPRO_RACE watches it); the matrices behind it
        # are immutable, which is what makes publish-then-swap safe.
        track_shared(self, ("_warm",))
        track_shared(self.model, ("matrix",))

    # -- layout ----------------------------------------------------------
    @property
    def format(self) -> str:
        with self._lock:
            return self.model.matrix.name

    def convert_to(self, fmt: str) -> bool:
        """Swap the SV matrix's storage format in place.

        Returns ``True`` if a swap happened.  The converted matrix is
        cached so later swaps back are free ("warm format cache").

        Publish-then-swap: ``convert`` always *builds a new matrix*
        (stored formats are immutable after construction), so the only
        mutation is the reference assignment under ``_lock``.  A reader
        that grabbed the old reference via :meth:`_matrix` keeps a
        fully valid matrix for its whole sweep — a concurrent swap can
        never mutate a matrix a reader may hold, which is what keeps
        mid-stream re-scheduling bitwise invisible.
        """
        fmt = fmt.upper()
        tracer = get_tracer()
        with self._lock:
            if self.model.matrix.name == fmt:
                return False
            with tracer.span("serve.convert") as sp:
                warm = self._warm.get(fmt)
                if tracer.enabled:
                    sp.set("from", self.model.matrix.name)
                    sp.set("to", fmt)
                    sp.set("warm", warm is not None)
                if warm is None:
                    warm = convert(self.model.matrix, fmt)
                    self._warm[fmt] = warm
                self.model.matrix = warm
            return True

    def _matrix(self) -> MatrixFormat:
        with self._lock:
            return self.model.matrix

    # -- decision values -------------------------------------------------
    def _contract(self, col: np.ndarray) -> np.ndarray:
        """Per-pair ``coef . K - b`` from one contiguous kernel column.

        This exact routine runs for both the batched and the single-
        vector path — same slices, same contiguous buffer, same
        ``np.dot`` — which is what makes them bitwise comparable.
        """
        m = self.model
        out = np.empty(m.n_pairs, dtype=np.float64)
        for p, pair in enumerate(m.pairs):
            out[p] = (
                np.dot(m.coef[pair.lo : pair.hi], col[pair.lo : pair.hi])
                - pair.bias
            )
        return out

    def decision_function(
        self, vectors: Sequence[SparseVector]
    ) -> np.ndarray:
        """Decision values for a micro-batch: shape ``(k, n_pairs)``.

        One blocked kernel sweep (SpMM) computes all ``k`` kernel
        columns; each column is then contracted per pair.
        """
        q = list(vectors)
        if not q:
            return np.zeros((0, self.model.n_pairs), dtype=np.float64)
        matrix = self._matrix()
        m = self.model
        tracer = get_tracer()
        with tracer.span("serve.sweep") as sp:
            if tracer.enabled:
                sp.set("k", len(q))
                sp.set("fmt", matrix.name)
                sp.set("n_pairs", m.n_pairs)
            q_norms = np.array([v.norm_sq() for v in q], dtype=np.float64)
            K = m.kernel.rows(matrix, q, q_norms, m.sv_norms, self.counter)
            out = np.empty((len(q), m.n_pairs), dtype=np.float64)
            for j in range(len(q)):
                # Contiguous copy: np.dot on a strided column can take
                # a different BLAS path than on the contiguous single-
                # vector kernel row; the copy pins both paths to
                # identical inputs.
                out[j] = self._contract(np.ascontiguousarray(K[:, j]))
        return out

    def decision_one(self, v: SparseVector) -> np.ndarray:
        """Single-vector (unbatched / degraded) path: ``(n_pairs,)``."""
        matrix = self._matrix()
        m = self.model
        col = m.kernel.row(
            matrix, v, v.norm_sq(), m.sv_norms, self.counter
        )
        return self._contract(col)

    # -- labels ----------------------------------------------------------
    def _labels(self, dec: np.ndarray) -> np.ndarray:
        """Decision values ``(k, n_pairs)`` -> predicted labels ``(k,)``.

        Binary: the sign of the single decision value.  Multiclass:
        one-vs-one voting identical to
        :meth:`~repro.svm.svc.MulticlassSVC.predict` — ``d >= 0`` votes
        the first class of the pair, ``d < 0`` the second, argmax ties
        resolve to the lowest class label.
        """
        m = self.model
        if m.classes is None:
            return np.where(dec[:, 0] >= 0.0, 1.0, -1.0)
        votes = np.zeros((dec.shape[0], m.classes.shape[0]), dtype=np.int64)
        for p, pair in enumerate(m.pairs):
            ia = m._class_index[pair.classes[0]]
            ib = m._class_index[pair.classes[1]]
            votes[:, ia] += dec[:, p] >= 0.0
            votes[:, ib] += dec[:, p] < 0.0
        return m.classes[np.argmax(votes, axis=1)]

    def predict(self, vectors: Sequence[SparseVector]) -> np.ndarray:
        """Labels for a micro-batch (one SpMM sweep)."""
        return self._labels(self.decision_function(vectors))

    def predict_one(self, v: SparseVector) -> float:
        """Label for one query via the single-vector path."""
        return float(self._labels(self.decision_one(v)[None, :])[0])

    def predict_with_decisions(
        self, vectors: Sequence[SparseVector]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Labels *and* decision values from one SpMM sweep.

        Fleet workers return both to the front door (the bitwise
        equivalence contract is over decision values, not just
        labels), and paying a second sweep for them would double the
        hot-path cost.
        """
        dec = self.decision_function(vectors)
        return self._labels(dec), dec

    def predict_one_with_decision(
        self, v: SparseVector
    ) -> Tuple[float, np.ndarray]:
        """Degraded-path twin of :meth:`predict_with_decisions`."""
        dec = self.decision_one(v)
        return float(self._labels(dec[None, :])[0]), dec
