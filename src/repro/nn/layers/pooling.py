"""Spatial pooling layers (max and average) and global average pooling.

``MaxPool2D`` never gathers its windows: cell ``(i, j)`` of every window
is one strided view of the input (a *tap*), the forward is the running
``np.maximum`` over the ``k*k`` taps, and the backward re-reads the same
taps to route each output gradient to the first one equal to its
window's maximum.  Outputs and gradients go through
:meth:`~repro.nn.layers.base.Layer._buf` scratch and the routing masks
through call-local :meth:`~repro.nn.layers.base.Layer._tmp` scratch, so
a layer bound to a :class:`~repro.nn.arena.BufferArena` allocates
nothing per batch.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class _Pool2D(Layer):
    """Shared shape logic for fixed-window pooling."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self._cache: tuple | None = None

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.pool_size, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"{type(self).__name__}(k={k}, s={s}) empty output for input {h}x{w}"
            )
        return oh, ow

    def _windows(self, x: np.ndarray) -> np.ndarray:
        # (N, C, oh, ow, k, k) strided view
        view = sliding_window_view(x, (self.pool_size, self.pool_size), axis=(2, 3))
        return view[:, :, :: self.stride, :: self.stride, :, :]

    def _taps(self, x: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
        """Window cell ``(i, j)`` of every window, as ``k*k`` views, row-major."""
        k, s = self.pool_size, self.stride
        rows, cols = (oh - 1) * s + 1, (ow - 1) * s + 1
        return [
            x[:, :, i : i + rows : s, j : j + cols : s]
            for i in range(k)
            for j in range(k)
        ]

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        oh, ow = self._out_hw(h, w)
        return (c, oh, ow)

    def get_config(self) -> dict:
        return {"pool_size": self.pool_size, "stride": self.stride}


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes gradient to each window's first maximum.

    "First" is row-major within the window, ``np.argmax``'s tie rule.
    ``backward`` reads the layer's *input* again, so the caller must
    leave it untouched between the two passes (the lifetime every
    arena-bound producer already guarantees).
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        taps = self._taps(x, oh, ow)
        out = self._buf("out", (n, c, oh, ow), x.dtype)
        np.copyto(out, taps[0])
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        self._cache = (x, out) if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x, out = self._cache
        k, s = self.pool_size, self.stride
        oh, ow = grad_out.shape[2:]
        # route[t]: tap t holds its window's maximum and no earlier tap does
        route = self._tmp("route", (k * k, *grad_out.shape), np.bool_)
        taken = self._tmp("taken", grad_out.shape, np.bool_)
        for t, tap in enumerate(self._taps(x, oh, ow)):
            np.equal(tap, out, out=route[t])
            if t == 0:
                np.copyto(taken, route[0])
            else:
                np.greater(route[t], taken, out=route[t])  # and not taken
                np.logical_or(taken, route[t], out=taken)
        grad_x = self._buf("grad_x", x.shape, grad_out.dtype)
        grad_x[...] = 0.0
        share = self._tmp("share", grad_out.shape, grad_out.dtype)
        grad_taps = self._taps(grad_x, oh, ow)
        # last tap first: a cell shared by overlapping windows then sums
        # its gradients in window order, like a loop over the windows
        for t in reversed(range(k * k)):
            i, j = divmod(t, k)
            if i + s < k or j + s < k:
                # tap (i + s, j) or (i, j + s) already wrote some of these cells
                np.multiply(grad_out, route[t], out=share)
                grad_taps[t] += share
            else:
                np.multiply(grad_out, route[t], out=grad_taps[t])
        return grad_x

    def flops(self, input_shape: tuple) -> int:
        c, oh, ow = self.output_shape(input_shape)
        # k*k - 1 comparisons per output element
        return (self.pool_size * self.pool_size - 1) * c * oh * ow


class AvgPool2D(_Pool2D):
    """Average pooling; backward spreads gradient uniformly over the window."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        windows = self._windows(x)
        out = self._buf("out", windows.shape[:4], x.dtype)
        np.mean(windows, axis=(-2, -1), out=out)
        self._cache = x.shape if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        x_shape = self._cache
        grad_x = self._buf("grad_x", x_shape, grad_out.dtype)
        grad_x[...] = 0.0
        share = self._tmp("share", grad_out.shape, grad_out.dtype)
        np.true_divide(grad_out, self.pool_size**2, out=share)
        for tap in self._taps(grad_x, *grad_out.shape[2:]):
            tap += share
        return grad_x

    def flops(self, input_shape: tuple) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return self.pool_size * self.pool_size * c * oh * ow


class GlobalAvgPool2D(Layer):
    """Collapse each channel's spatial map to its mean: NCHW -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape if training else None
        out = self._buf("out", x.shape[:2], x.dtype)
        np.mean(x, axis=(2, 3), out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        n, c, h, w = self._cache
        scaled = self._tmp("scaled", (n, c), grad_out.dtype)
        np.true_divide(grad_out, h * w, out=scaled)
        grad_x = self._buf("grad_x", (n, c, h, w), grad_out.dtype)
        grad_x[...] = scaled[:, :, None, None]
        return grad_x

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        return (c,)

    def flops(self, input_shape: tuple) -> int:
        c, h, w = input_shape
        return c * h * w
