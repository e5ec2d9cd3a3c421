"""2-D convolution via im2col.

The im2col transform turns convolution into one large matrix multiply,
which is the standard way to get BLAS-speed convolutions out of NumPy
(vectorize the loop, let the optimized GEMM do the work).

:class:`Conv2D` runs it on *channel-major* columns ``(N, C*k*k, oh*ow)``
written into :meth:`~repro.nn.layers.base.Layer._buf` scratch in channel
blocks (the transpose-copy's working set stays cache-sized), with every
GEMM running ``np.matmul(..., out=...)`` on views: the forward product
lands directly in NCHW layout (no output transpose), the weight gradient
is a batched GEMM against the column transpose-view, and the input
gradient is a second convolution through the same gather and GEMM — the
output gradient, zero-dilated by the stride and zero-padded, correlated
with the flipped, channel-transposed kernel (DESIGN §12) — so nothing is
ever scattered.  1x1/stride-1/unpadded convs skip the column copy in
both directions.

:func:`im2col` / :func:`col2im` are the textbook sample-major
formulation ``(N, oh*ow, C*k*k)``.  The layer does not call them; they
stay public as the reference the tests hold the kernel to (equal at
dtype tolerance — the reshaped GEMMs accumulate in a different order).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.dtype import dtype_label, resolve_dtype
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter
from repro.utils.rng import fallback_rng

__all__ = ["Conv2D", "im2col", "col2im"]

#: Channel-block width for the im2col copy.  Small enough that one
#: block's strided transpose fits in cache, and a no-op (single copy)
#: for the narrow layers the decoder emits.
_CHANNEL_BLOCK = 16


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Extract sliding patches: ``(N, C, H, W) -> (N, oh*ow, C*kh*kw)``."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    # windows: (N, C, H-kh+1, W-kw+1, kh, kw) — a view, no copy yet
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # one contiguous copy: (N, oh, ow, C, kh, kw) -> (N, oh*ow, C*kh*kw)
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n, oh * ow, c * kh * kw
    )


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kh: int,
    kw: int,
    stride: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter-add column gradients back to image layout (im2col adjoint).

    With ``out=`` the scatter accumulates into the caller's buffer
    (zeroed first) instead of allocating ``np.zeros(x_shape)`` per call;
    the default signature keeps the allocating behaviour for external
    callers.
    """
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    grads = cols.reshape(n, oh, ow, c, kh, kw)
    if out is None:
        out = np.zeros(x_shape, dtype=cols.dtype)
    else:
        if out.shape != tuple(x_shape):
            raise ValueError(f"out has shape {out.shape}, expected {tuple(x_shape)}")
        out[...] = 0.0
    # kh*kw is tiny (<= 49); vectorize over batch and spatial dims instead.
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                grads[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    return out


class Conv2D(Layer):
    """Cross-correlation conv layer on NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride:
        Spatial stride (same in both dims).
    padding:
        Zero padding.  An int pads symmetrically; a ``(before, after)``
        pair pads asymmetrically (applied to both H and W).  ``"same"``
        computes exact output-preserving padding — ``k // 2`` on each
        side for odd kernels, ``((k - 1) // 2, k // 2)`` for even ones —
        and requires ``stride == 1`` (with a larger stride the padding
        that preserves ``ceil(size / stride)`` depends on the input
        size, so it cannot be fixed at construction; pass an explicit
        value instead).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        *,
        stride: int = 1,
        padding: int | str = "same",
        use_bias: bool = True,
        weight_init: str = "he_normal",
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("channels, kernel_size and stride must be positive")
        if padding == "same":
            if stride != 1:
                raise ValueError(
                    f"padding='same' is undefined for stride {stride}: the "
                    "output-preserving padding depends on the input size; "
                    "pass an explicit int or (before, after) padding"
                )
            pad_before, pad_after = (kernel_size - 1) // 2, kernel_size // 2
        elif isinstance(padding, str):
            raise ValueError(f"unknown padding mode {padding!r}; use 'same' or an int")
        elif isinstance(padding, (tuple, list)):
            if len(padding) != 2:
                raise ValueError(
                    f"tuple padding must be (before, after), got {padding!r}"
                )
            pad_before, pad_after = int(padding[0]), int(padding[1])
        else:
            pad_before = pad_after = int(padding)
        if min(pad_before, pad_after) < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        rng = rng if rng is not None else fallback_rng()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad_before = pad_before
        self.pad_after = pad_after
        # canonical config form: an int when symmetric, else the pair
        self.padding = pad_before if pad_before == pad_after else (pad_before, pad_after)
        self.use_bias = bool(use_bias)
        self.weight_init = weight_init
        self.dtype = resolve_dtype(dtype)
        kernel_shape = (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)
        self.params["weight"] = Parameter(
            get_initializer(weight_init)(kernel_shape, rng, dtype=self.dtype),
            dtype=self.dtype,
        )
        if self.use_bias:
            self.params["bias"] = Parameter(
                np.zeros(self.out_channels, dtype=self.dtype), dtype=self.dtype
            )
        self._cache: tuple | None = None

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.kernel_size, self.stride
        total = self.pad_before + self.pad_after
        oh = (h + total - k) // s + 1
        ow = (w + total - k) // s + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"Conv2D(k={k}, s={s}, p={self.padding}) produces empty output "
                f"for input {h}x{w}"
            )
        return oh, ow

    def _columns(
        self, name: str, padded: np.ndarray, stride: int, oh: int, ow: int
    ) -> np.ndarray:
        """Channel-major im2col of ``padded`` into ``name`` scratch.

        ``(N, C, H, W) -> (N, C*k*k, oh*ow)``, viewed ``(N, C, k, k, oh,
        ow)``: each channel's ``k*k`` taps are contiguous runs of ``ow``
        output pixels, so the transpose-copy stays sequential.
        """
        n, c = padded.shape[:2]
        k = self.kernel_size
        cols = self._buf(name, (n, c * k * k, oh * ow), padded.dtype)
        cols6 = cols.reshape(n, c, k, k, oh, ow)
        windows = sliding_window_view(padded, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
        for c0 in range(0, c, _CHANNEL_BLOCK):
            c1 = min(c0 + _CHANNEL_BLOCK, c)
            np.copyto(cols6[:, c0:c1], windows[:, c0:c1].transpose(0, 1, 4, 5, 2, 3))
        return cols

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        oh, ow = self._out_hw(x.shape[2], x.shape[3])
        k, s, c = self.kernel_size, self.stride, self.in_channels
        pb, pa = self.pad_before, self.pad_after
        dt = x.dtype
        if pb or pa:
            padded = self._buf(
                "padded", (n, c, x.shape[2] + pb + pa, x.shape[3] + pb + pa), dt
            )
            padded[...] = 0.0
            padded[:, :, pb : pb + x.shape[2], pb : pb + x.shape[3]] = x
        else:
            padded = x
        p = oh * ow
        if k == 1 and s == 1 and not (pb or pa) and x.flags.c_contiguous:
            # 1x1 conv: im2col is the identity, so the (N, C, P) view of
            # the input IS the column matrix — no copy, no scatter later
            cols = x.reshape(n, c, p)
        else:
            cols = self._columns("cols", padded, s, oh, ow)
        kernel = self.params["weight"].value.reshape(self.out_channels, -1)
        out = self._buf("out", (n, self.out_channels, oh, ow), dt)
        # (out_c, C*k*k) @ (N, C*k*k, oh*ow) -> (N, out_c, oh*ow): the
        # product lands directly in NCHW layout, no output transpose
        np.matmul(kernel, cols, out=out.reshape(n, self.out_channels, p))
        if self.use_bias:
            out += self.params["bias"].value.reshape(1, -1, 1, 1)
        self._cache = (cols, x.shape) if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        cols, x_shape = self._cache
        k, s, c = self.kernel_size, self.stride, self.in_channels
        n, oc, oh, ow = grad_out.shape
        h, w = x_shape[2:]
        dt = grad_out.dtype
        g3 = grad_out.reshape(n, oc, oh * ow)
        weight = self.params["weight"]
        # dW: (N, out_c, P) @ (N, P, C*k*k) per batch item, reduced over N
        dw_batch = self._buf("dw_batch", (n, oc, c * k * k), dt)
        np.matmul(g3, cols.transpose(0, 2, 1), out=dw_batch)
        dw = self._buf("dw", (oc, c * k * k), dt)
        np.sum(dw_batch, axis=0, out=dw)
        weight.grad += dw.reshape(weight.shape)
        if self.use_bias:
            db = self._buf("db", (oc,), dt)
            np.sum(g3, axis=(0, 2), out=db)
            self.params["bias"].grad += db
        if k == 1 and s == 1 and not (self.pad_before or self.pad_after):
            # 1x1 conv: column space IS image space, dX = W^T g
            flipped, gcols = weight.value.reshape(oc, c).T, g3
        else:
            # dX[a] = sum_i W[i] g[(a + pad - i) / s]: a stride-1 correlation
            # of the flipped kernel with g laid out on a zero canvas, output
            # p at row ``first + p * s`` (dilation undoes the stride, the
            # k - 1 border is the "full" correlation's padding)
            first = k - 1 - self.pad_before
            canvas = self._buf("gcanvas", (n, oc, h + k - 1, w + k - 1), dt)
            canvas[...] = 0.0
            # padding wider than k - 1 puts outputs that saw only padding
            # off the canvas: crop them (input rows no window reached stay 0)
            lo = max(0, -(first // s))
            hi_h = min(oh, (h + k - 2 - first) // s + 1)
            hi_w = min(ow, (w + k - 2 - first) // s + 1)
            if lo < hi_h and lo < hi_w:
                canvas[
                    :,
                    :,
                    first + lo * s : first + (hi_h - 1) * s + 1 : s,
                    first + lo * s : first + (hi_w - 1) * s + 1 : s,
                ] = grad_out[:, :, lo:hi_h, lo:hi_w]
            gcols = self._columns("gcols", canvas, 1, h, w)
            flipped = self._buf("wflip", (c, oc * k * k), dt)
            np.copyto(
                flipped.reshape(c, oc, k, k),
                weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
            )
        grad_in = self._buf("grad_in", x_shape, dt)
        np.matmul(flipped, gcols, out=grad_in.reshape(n, c, h * w))
        return grad_in

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"Conv2D expects {self.in_channels} channels, got shape {input_shape}"
            )
        oh, ow = self._out_hw(h, w)
        return (self.out_channels, oh, ow)

    def flops(self, input_shape: tuple) -> int:
        _, oh, ow = self.output_shape(input_shape)
        k2c = self.kernel_size * self.kernel_size * self.in_channels
        per_output = 2 * k2c + (1 if self.use_bias else 0)
        return per_output * self.out_channels * oh * ow

    def get_config(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
            "padding": self.padding
            if isinstance(self.padding, int)
            else list(self.padding),
            "use_bias": self.use_bias,
            "weight_init": self.weight_init,
            "dtype": dtype_label(self.dtype),
        }
