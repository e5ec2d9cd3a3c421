"""Shape adapters between convolutional and dense stages."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["Flatten"]


class Flatten(Layer):
    """Collapse all per-sample dimensions: (N, ...) -> (N, prod(...))."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out.reshape(self._shape)

    def output_shape(self, input_shape: tuple) -> tuple:
        return (int(np.prod(input_shape)),)
