"""2-D convolution as ``k`` GEMMs over row columns.

A ``k x k`` window gather copies every input pixel ``k*k`` times before
one GEMM can run; at the widths the decoder emits that copy cost more
than the GEMM.  :class:`Conv2D` copies only the ``k`` *horizontal* taps
— row columns ``R[n, c, j, r, w] = xpad[n, c, r, w + j]``, written
straight from ``x`` with the borders zeroed, so there is no padded copy
either — and reads vertical tap ``i`` as a view of the same buffer: rows
``i .. i + oh - 1`` of ``R`` are one contiguous run of ``oh*ow`` columns
per ``(c, j)``, which ``np.matmul`` hands to BLAS uncopied.  Forward is
``out[n] = sum_i W[:, :, i, :] @ R_i[n]`` (landing directly in NCHW
layout), the weight gradient is the same ``k`` views transposed against
the output gradient (one block of ``weight.grad`` per tap), and the
input gradient is forward's routine again — the output gradient,
zero-dilated by the stride and behind ``k - 1 - pad`` zeros, against the
flipped, channel-transposed taps (DESIGN §12) — so nothing is ever
scattered.  A stride ``s > 1`` splits ``R``'s row axis by residue mod
``s``, which keeps every tap a contiguous run.  What ``backward`` keeps
is ``R`` (``k`` times the input); the per-tap partial products, the
gradient's row columns and the tap-major weight copies are call-local
(:meth:`~repro.nn.layers.base.Layer._tmp`).  1x1/stride-1/unpadded
convs skip the copy in both directions: the input is the one tap.

:func:`im2col` / :func:`col2im` are the textbook sample-major
formulation ``(N, oh*ow, C*k*k)``.  The layer does not call them; they
stay public as the reference the tests hold the kernel to (equal at
dtype tolerance — ``k`` GEMMs accumulate in a different order than one).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.dtype import dtype_label, resolve_dtype
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter
from repro.utils.rng import fallback_rng

__all__ = ["Conv2D", "im2col", "col2im"]


def _span(before: int, size: int, stride: int, count: int) -> tuple[int, int]:
    """``lo <= i < hi`` in ``range(count)`` with ``0 <= i*stride - before < size``."""
    lo = min(count, max(0, -(-before // stride)))
    return lo, max(lo, min(count, -(-(before + size) // stride)))


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

    def _row_taps(
        self, alloc, name: str, src: np.ndarray, before: int, stride: int, oh: int, ow: int
    ) -> list[np.ndarray]:
        """Gather ``src``'s row columns; return the ``k`` vertical-tap views.

        ``rows[n, c, j, r % s, r // s, w] = srcpad[n, c, r, w*s + j]`` in
        ``alloc(name, ...)`` scratch, ``srcpad`` being ``src`` behind
        ``before`` zeros (a negative ``before`` crops instead): ``k``
        strided copies per row residue, borders zeroed, nothing else
        touched.  With the row axis split by residue mod ``s``, tap ``i``
        — rows ``p*s + i`` — is the run of ``oh*ow`` columns starting at
        ``((i % s)*Q + i // s) * ow`` of the ``(N, C*k, s*Q*ow)`` view.
        """
        n, c, h, w = src.shape
        k, s = self.kernel_size, stride
        residues = min(s, k)  # a residue >= k holds rows no tap reads
        q = oh - 1 + -(-k // s)
        rows = alloc(name, (n, c, k, residues, q, ow), src.dtype)
        for rho in range(residues):
            q_lo, q_hi = _span(before - rho, h, s, q)
            rows[:, :, :, rho, :q_lo] = 0.0
            rows[:, :, :, rho, q_hi:] = 0.0
            for j in range(k):
                w_lo, w_hi = _span(before - j, w, s, ow)
                plane = rows[:, :, j, rho, q_lo:q_hi]
                plane[..., :w_lo] = 0.0
                plane[..., w_hi:] = 0.0
                if q_lo < q_hi and w_lo < w_hi:
                    r0, c0 = q_lo * s + rho - before, w_lo * s + j - before
                    r1, c1 = r0 + (q_hi - q_lo - 1) * s + 1, c0 + (w_hi - w_lo - 1) * s + 1
                    plane[..., w_lo:w_hi] = src[:, :, r0:r1:s, c0:c1:s]
        flat = rows.reshape(n, c * k, residues * q * ow)
        starts = [((i % s) * q + i // s) * ow for i in range(k)]
        return [flat[:, :, a : a + oh * ow] for a in starts]

    def _contract(self, weights, taps, out: np.ndarray) -> None:
        """``out[n] = sum_i weights[i] @ taps[i][n]``: a batched GEMM per tap.

        NumPy has no accumulating GEMM, so taps after the first go
        through one call-local partial and an add.
        """
        np.matmul(weights[0], taps[0], out=out)
        if len(taps) > 1:
            partial = self._tmp("partial", out.shape, out.dtype)
            for weight, tap in zip(weights[1:], taps[1:]):
                np.matmul(weight, tap, out=partial)
                out += partial

    def _pointwise(self) -> bool:
        return self.kernel_size == 1 and self.stride == 1 and not (self.pad_before or self.pad_after)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        oh, ow = self._out_hw(x.shape[2], x.shape[3])
        k, c, oc = self.kernel_size, self.in_channels, self.out_channels
        dt = x.dtype
        weight = self.params["weight"].value
        if self._pointwise() and x.flags.c_contiguous:
            # 1x1 conv: the (N, C, P) view of the input IS the one tap —
            # no copy, no scatter later
            taps, weights = [x.reshape(n, c, oh * ow)], weight.reshape(1, oc, c)
        else:
            taps = self._row_taps(self._buf, "rows", x, self.pad_before, self.stride, oh, ow)
            weights = self._tmp("wtaps", (k, oc, c * k), dt)
            np.copyto(weights.reshape(k, oc, c, k), weight.transpose(2, 0, 1, 3))
        out = self._buf("out", (n, oc, oh, ow), dt)
        # (out_c, C*k) @ (N, C*k, oh*ow) -> (N, out_c, oh*ow) per vertical
        # tap: the sum lands directly in NCHW layout, no output transpose
        self._contract(weights, taps, out.reshape(n, oc, oh * ow))
        if self.use_bias:
            out += self.params["bias"].value.reshape(1, -1, 1, 1)
        self._cache = (taps, x.shape) if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training-mode forward")
        taps, x_shape = self._cache
        k, s, c = self.kernel_size, self.stride, self.in_channels
        n, oc, oh, ow = grad_out.shape
        h, w = x_shape[2:]
        dt = grad_out.dtype
        g3 = grad_out.reshape(n, oc, oh * ow)
        weight = self.params["weight"]
        # dW, one block per vertical tap: (N, out_c, P) @ (N, P, C*k) per
        # batch item against the tap's transpose-view, reduced over N
        dw_batch = self._tmp("dw_batch", (n, oc, taps[0].shape[1]), dt)
        dw = self._tmp("dw", dw_batch.shape[1:], dt)
        for i, tap in enumerate(taps):
            np.matmul(g3, tap.transpose(0, 2, 1), out=dw_batch)
            np.sum(dw_batch, axis=0, out=dw)
            weight.grad[:, :, i, :] += dw.reshape(oc, c, -1)
        if self.use_bias:
            db = self._tmp("db", (oc,), dt)
            np.sum(g3, axis=(0, 2), out=db)
            self.params["bias"].grad += db
        if self._pointwise():
            # 1x1 conv: column space IS image space, dX = W^T g
            gtaps, weights = [g3], weight.value.reshape(1, oc, c).transpose(0, 2, 1)
        else:
            # dX[a] = sum_i W[i] g[(a + pad - i) / s]: forward's routine at
            # stride 1 on g, zero-dilated to undo the stride and behind
            # k - 1 - pad zeros, with the flipped, channel-transposed taps
            if s == 1:
                dilated = grad_out
            else:
                dilated = self._tmp("gdilated", (n, oc, (oh - 1) * s + 1, (ow - 1) * s + 1), dt)
                dilated[...] = 0.0
                dilated[:, :, ::s, ::s] = grad_out
            gtaps = self._row_taps(self._tmp, "grows", dilated, k - 1 - self.pad_before, 1, h, w)
            weights = self._tmp("wtaps", (k, c, oc * k), dt)
            np.copyto(
                weights.reshape(k, c, oc, k),
                weight.value[:, :, ::-1, ::-1].transpose(2, 1, 0, 3),
            )
        grad_in = self._buf("grad_in", x_shape, dt)
        self._contract(weights, gtaps, grad_in.reshape(n, c, h * w))
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
