"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU", "Sigmoid"]


class ReLU(Layer):
    """Rectified linear unit, ``max(x, 0)``.

    One ``np.maximum`` pass: NaN propagates (a fault upstream stays
    visible to the sanitizer instead of becoming 0) and a zero output
    keeps whichever sign the maximum picks — nothing downstream can
    tell ``-0.0`` from ``+0.0`` (DESIGN §12).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self._buf("out", x.shape, x.dtype)
        np.maximum(x, 0, out=out)
        self._mask = None
        if training:
            self._mask = self._buf("mask", x.shape, np.bool_)
            np.greater(x, 0, out=self._mask)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        grad_in = self._buf("grad_in", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._mask, out=grad_in)
        return grad_in

    def flops(self, input_shape: tuple) -> int:
        return int(np.prod(input_shape))


class Sigmoid(Layer):
    """Logistic sigmoid with numerically stable split evaluation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out * self._out * (1.0 - self._out)

    def flops(self, input_shape: tuple) -> int:
        return 4 * int(np.prod(input_shape))
