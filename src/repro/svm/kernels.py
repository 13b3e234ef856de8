"""SVM kernel functions (paper Table I).

Every kernel evaluates a full kernel-matrix *row* ``K(X, x_i)`` as an
elementwise transform of a single SMSV ``X @ x_i`` — the exact
computation SMO needs twice per iteration, and the one whose cost the
data layout controls:

=========  ======================================
Linear     ``x . y``
Polynomial ``(a * x . y + r)^d``
Gaussian   ``exp(-gamma * ||x - y||^2)``
Sigmoid    ``tanh(a * x . y + r)``
=========  ======================================

The Gaussian kernel expands ``||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y``
so it too reduces to the dot-product SMSV plus cached row norms.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Type

import numpy as np

from repro.formats.base import MatrixFormat, SparseVector
from repro.perf.counters import OpCounter


class Kernel(abc.ABC):
    """A Mercer kernel evaluated against all rows of a stored matrix.

    A kernel is a Mercer :meth:`transform` of dot products: :meth:`row`
    and :meth:`rows` take the dots from the matrix's SMSV / multi-SMSV
    and transform them in place.  Callers that compute the dots
    another way — SMO's fused pair through :mod:`repro.parallel` —
    apply the same transform, so every path yields the same bits.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def transform(
        self,
        dots: np.ndarray,
        v_norms_sq,
        row_norms_sq: np.ndarray,
    ) -> np.ndarray:
        """Turn dot products into kernel values, in place on ``dots``.

        ``dots`` is one row ``X @ v`` of shape ``(M,)`` with a scalar
        ``v_norms_sq``, or a block ``X @ [v_1 .. v_k]`` of shape
        ``(M, k)`` with one squared norm per column.  The transform is
        elementwise, so a block's column ``c`` is bit-for-bit the row
        of ``v_c``.  ``row_norms_sq`` holds the rows' squared norms
        (only the Gaussian kernel reads the norms; passing them in
        keeps the hot loop allocation-free).
        """

    def row(
        self,
        X: MatrixFormat,
        v: SparseVector,
        v_norm_sq: float,
        row_norms_sq: np.ndarray,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Kernel row ``[K(X_1, v), ..., K(X_M, v)]`` from one SMSV.

        ``v`` is the selected sample (``X_high`` or ``X_low``) as a
        sparse vector; ``v_norm_sq`` / ``row_norms_sq`` are cached
        squared norms.
        """
        return self.transform(X.smsv(v, counter), v_norm_sq, row_norms_sq)

    def rows(
        self,
        X: MatrixFormat,
        vectors,
        v_norms_sq: np.ndarray,
        row_norms_sq: np.ndarray,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Blocked kernel rows: column ``c`` is ``row(X, vectors[c])``.

        One fused SpMM (:meth:`MatrixFormat.smsv_multi`) replaces the k
        per-vector SMSVs, and the transform runs once over the whole
        ``(M, k)`` block.  Because the SpMM contract is bit-for-bit per
        column and the transforms are elementwise, every column is
        identical to the single-row path — the property the fused SMO
        hot path relies on.
        """
        vectors = list(vectors)
        v_norms_sq = np.asarray(v_norms_sq, dtype=float)
        if v_norms_sq.shape[0] != len(vectors):
            raise ValueError("v_norms_sq must have one entry per vector")
        dots = X.smsv_multi(vectors, counter)
        return self.transform(dots, v_norms_sq, row_norms_sq)

    def single(self, x: SparseVector, y: SparseVector) -> float:
        """``K(x, y)`` for two individual samples (prediction path)."""
        return float(
            self._transform_scalar(x.dot(y), x.norm_sq(), y.norm_sq())
        )

    def diagonal(self, row_norms_sq: np.ndarray) -> np.ndarray:
        """``K(X_i, X_i)`` for every row, from cached squared norms.

        Needed once per training run by the second-order working-set
        selection (eta = K_hh + K_jj - 2 K_hj requires the diagonal).
        """
        return np.array(
            [
                self._transform_scalar(n, n, n)
                for n in np.asarray(row_norms_sq, dtype=float)
            ]
        )

    @abc.abstractmethod
    def _transform_scalar(self, dot: float, nx: float, ny: float) -> float:
        ...


class LinearKernel(Kernel):
    """``K(x, y) = x . y``"""

    name = "linear"

    def transform(self, dots, v_norms_sq, row_norms_sq):
        return dots

    def _transform_scalar(self, dot, nx, ny):
        return dot


class PolynomialKernel(Kernel):
    """``K(x, y) = (a * x . y + r)^d``"""

    name = "polynomial"

    def __init__(self, a: float = 1.0, r: float = 0.0, degree: int = 3) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.a = float(a)
        self.r = float(r)
        self.degree = int(degree)

    def transform(self, dots, v_norms_sq, row_norms_sq):
        dots *= self.a
        dots += self.r
        dots **= self.degree
        return dots

    def _transform_scalar(self, dot, nx, ny):
        return (self.a * dot + self.r) ** self.degree


class GaussianKernel(Kernel):
    """``K(x, y) = exp(-gamma * ||x - y||^2)`` (a.k.a. RBF)."""

    name = "gaussian"

    def __init__(self, gamma: float = 1.0) -> None:
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def diagonal(self, row_norms_sq: np.ndarray) -> np.ndarray:
        # ||x - x||^2 = 0 always: the RBF diagonal is exactly one.
        return np.ones(np.asarray(row_norms_sq).shape[0])

    def transform(self, dots, v_norms_sq, row_norms_sq):
        # ||X_i - v||^2 = ||X_i||^2 + ||v||^2 - 2 X_i.v, computed in
        # place on the dots buffer (guide: in-place over fresh
        # allocations in hot loops); a block broadcasts the row norms
        # down its columns and one vector norm per column.
        row_norms_sq = np.asarray(row_norms_sq, dtype=float)
        dots *= -2.0
        dots += row_norms_sq[:, None] if dots.ndim == 2 else row_norms_sq
        dots += v_norms_sq
        np.clip(dots, 0.0, None, out=dots)  # guard fp cancellation
        dots *= -self.gamma
        return np.exp(dots, out=dots)

    def _transform_scalar(self, dot, nx, ny):
        d2 = max(nx + ny - 2.0 * dot, 0.0)
        return np.exp(-self.gamma * d2)


class SigmoidKernel(Kernel):
    """``K(x, y) = tanh(a * x . y + r)``"""

    name = "sigmoid"

    def __init__(self, a: float = 1.0, r: float = 0.0) -> None:
        self.a = float(a)
        self.r = float(r)

    def transform(self, dots, v_norms_sq, row_norms_sq):
        dots *= self.a
        dots += self.r
        return np.tanh(dots, out=dots)

    def _transform_scalar(self, dot, nx, ny):
        return np.tanh(self.a * dot + self.r)


KERNELS: Dict[str, Type[Kernel]] = {
    "linear": LinearKernel,
    "polynomial": PolynomialKernel,
    "gaussian": GaussianKernel,
    "rbf": GaussianKernel,
    "sigmoid": SigmoidKernel,
}


def make_kernel(name: str, **params: float) -> Kernel:
    """Instantiate a kernel by name with keyword parameters.

    >>> make_kernel("gaussian", gamma=0.5).name
    'gaussian'
    """
    try:
        cls = KERNELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {sorted(KERNELS)}"
        ) from None
    return cls(**params)
