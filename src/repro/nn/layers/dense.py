"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import dtype_label, resolve_dtype
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter
from repro.utils.rng import fallback_rng

__all__ = ["Dense"]


class Dense(Layer):
    """Affine map ``y = x @ W + b`` on ``(batch, in_features)`` inputs.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    use_bias:
        Whether to add the bias term.
    weight_init, bias_init:
        Initializer names from :mod:`repro.nn.initializers`.
    rng:
        Generator for weight initialization (deterministic builds).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        use_bias: bool = True,
        weight_init: str = "he_normal",
        bias_init: str = "zeros",
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"features must be positive, got in={in_features}, out={out_features}"
            )
        rng = rng if rng is not None else fallback_rng()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.use_bias = bool(use_bias)
        self.weight_init = weight_init
        self.bias_init = bias_init
        self.dtype = resolve_dtype(dtype)
        self.params["weight"] = Parameter(
            get_initializer(weight_init)(
                (self.in_features, self.out_features), rng, dtype=self.dtype
            ),
            dtype=self.dtype,
        )
        if self.use_bias:
            self.params["bias"] = Parameter(
                get_initializer(bias_init)((self.out_features,), rng, dtype=self.dtype),
                dtype=self.dtype,
            )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        out = self._buf("out", (x.shape[0], self.out_features), x.dtype)
        np.matmul(x, self.params["weight"].value, out=out)
        if self.use_bias:
            out += self.params["bias"].value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training-mode forward")
        dt = grad_out.dtype
        dw = self._tmp("dw", self.params["weight"].shape, dt)
        np.matmul(self._x.T, grad_out, out=dw)
        self.params["weight"].grad += dw
        if self.use_bias:
            db = self._tmp("db", (self.out_features,), dt)
            np.sum(grad_out, axis=0, out=db)
            self.params["bias"].grad += db
        grad_in = self._buf("grad_in", self._x.shape, dt)
        np.matmul(grad_out, self.params["weight"].value.T, out=grad_in)
        return grad_in

    def output_shape(self, input_shape: tuple) -> tuple:
        if tuple(input_shape) != (self.in_features,):
            raise ValueError(
                f"Dense({self.in_features}) cannot take per-sample shape {input_shape}"
            )
        return (self.out_features,)

    def flops(self, input_shape: tuple) -> int:
        # matmul: 2 * in * out; bias add: out
        flops = 2 * self.in_features * self.out_features
        if self.use_bias:
            flops += self.out_features
        return flops

    def get_config(self) -> dict:
        return {
            "in_features": self.in_features,
            "out_features": self.out_features,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init,
            "bias_init": self.bias_init,
            "dtype": dtype_label(self.dtype),
        }
