"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer
from repro.utils.rng import fallback_rng

__all__ = ["Dropout"]


class Dropout(Layer):
    """Inverted dropout: scaling happens at train time, eval is identity.

    Parameters
    ----------
    rate:
        Probability of zeroing each activation during training.
    rng:
        Generator for mask sampling; injectable for reproducibility.
    """

    def __init__(self, rate: float = 0.5, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.rng = rng if rng is not None else fallback_rng()
        self._mask: np.ndarray | float | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            self._mask = None
            return x
        if self.rate == 0.0:
            self._mask = 1.0  # nothing dropped, nothing drawn
            return x
        keep = 1.0 - self.rate
        # cast the boolean mask to the input dtype before scaling: the
        # draw itself stays float64 (identical RNG sequence across
        # dtypes) but bool / float would otherwise produce a float64
        # mask that upcasts a float32 activation stream
        self._mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        return grad_out * self._mask

    def get_config(self) -> dict:
        return {"rate": self.rate}
