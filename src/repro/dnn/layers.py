"""Neural-network layers with exact backward passes.

Every layer follows the same contract:

- ``forward(x, training)`` caches whatever the backward pass needs;
- ``backward(grad_out)`` returns ``grad_in`` and fills ``grads``;
- ``params`` / ``grads`` expose parameter arrays by name for the
  optimiser (momentum buffers key off these names).

Gradients are verified against central finite differences in
``tests/dnn/test_gradients.py`` — the standard correctness oracle for a
from-scratch framework.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.dnn.im2col import col2im, conv_out_size, im2col


class Layer(abc.ABC):
    """Base layer: stateless by default; parametric layers override
    ``params`` and accumulate into ``grads``."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    @abc.abstractmethod
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ...

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ...

    @property
    def n_params(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.n_params})"


class Conv2d(Layer):
    """2-D convolution via im2col + GEMM.

    Parameters
    ----------
    in_channels, out_channels, field:
        Filter bank shape (square ``field x field`` kernels).
    stride, pad:
        Spatial stride and symmetric zero padding.
    seed:
        Weight-init determinism (He-style scaling).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        field: int,
        *,
        stride: int = 1,
        pad: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, field, stride) < 1 or pad < 0:
            raise ValueError("invalid Conv2d geometry")
        rng = np.random.default_rng(seed)
        fan_in = in_channels * field * field
        self.params["W"] = rng.standard_normal(
            (out_channels, fan_in)
        ) * np.sqrt(2.0 / fan_in)
        self.params["b"] = np.zeros(out_channels)
        self.field = field
        self.stride = stride
        self.pad = pad
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        cols, oh, ow = im2col(x, self.field, self.pad, self.stride)
        out = cols @ self.params["W"].T + self.params["b"]
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cache = (cols, x.shape, oh, ow)
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        cols, x_shape, oh, ow = self._cache
        n = x_shape[0]
        g = grad_out.transpose(0, 2, 3, 1).reshape(
            n * oh * ow, self.out_channels
        )
        self.grads["W"] = g.T @ cols
        self.grads["b"] = g.sum(axis=0)
        grad_cols = g @ self.params["W"]
        return col2im(grad_cols, x_shape, self.field, self.pad, self.stride)


class MaxPool2d(Layer):
    """Non-overlapping max pooling (``field == stride``)."""

    def __init__(self, field: int) -> None:
        super().__init__()
        if field < 1:
            raise ValueError("field must be >= 1")
        self.field = field
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        f = self.field
        if h % f or w % f:
            raise ValueError(
                f"spatial dims ({h},{w}) not divisible by pool field {f}"
            )
        xr = x.reshape(n, c, h // f, f, w // f, f)
        out = xr.max(axis=(3, 5))
        if training:
            # Break ties deterministically: keep only the first max in
            # each window (cumulative trick), so gradients stay exact.
            mask_r = np.moveaxis(xr, 3, 4).reshape(n, c, h // f, w // f, f * f)
            is_max = mask_r == out[..., None]
            first = np.cumsum(is_max, axis=-1) == 1
            keep = is_max & first
            self._cache = (keep, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        keep, x_shape = self._cache
        n, c, h, w = x_shape
        f = self.field
        g = keep * grad_out[..., None]
        g = g.reshape(n, c, h // f, w // f, f, f)
        g = np.moveaxis(g, 4, 3)  # back to (n, c, hf, f, wf, f)
        return g.reshape(n, c, h, w)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class Flatten(Layer):
    """``(N, ...) -> (N, prod(...))``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward before forward")
        return grad_out.reshape(self._shape)


class Linear(Layer):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, *, seed: int = 0) -> None:
        super().__init__()
        if min(in_features, out_features) < 1:
            raise ValueError("invalid Linear geometry")
        rng = np.random.default_rng(seed)
        self.params["W"] = rng.standard_normal(
            (out_features, in_features)
        ) * np.sqrt(2.0 / in_features)
        self.params["b"] = np.zeros(out_features)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        self.grads["W"] = grad_out.T @ self._x
        self.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ self.params["W"]


class Dropout(Layer):
    """Inverted dropout: active only in training mode."""

    def __init__(self, rate: float = 0.5, *, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must lie in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
