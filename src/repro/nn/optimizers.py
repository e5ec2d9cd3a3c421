"""Gradient-descent optimizers.

Optimizers operate on the ``(name, Parameter)`` pairs a
:class:`~repro.nn.network.Network` exposes; per-parameter state (momenta)
is keyed by parameter name so that checkpoint/restore round-trips keep
optimizer state aligned with weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn.network import Network
from repro.utils.validation import ensure_non_negative, ensure_positive

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer bound to a network.

    Updates run fully in place: per-step temporaries live in scratch
    buffers keyed by ``(slot, shape, dtype)``, so parameters sharing a
    shape share a buffer and steady-state steps allocate nothing.  The
    in-place decompositions only commute operands or split fused
    expressions into the identical ufunc sequence, so every update is
    bit-identical to the historical allocating arithmetic.
    """

    def __init__(self, network: Network, lr: float) -> None:
        self.network = network
        self.lr = ensure_positive(float(lr), "lr")
        self._scratch_bufs: dict[tuple, np.ndarray] = {}

    def _scratch(self, slot: str, like: np.ndarray) -> np.ndarray:
        """A reusable uninitialized buffer matching ``like``'s geometry."""
        key = (slot, like.shape, like.dtype.str)
        buf = self._scratch_bufs.get(key)
        if buf is None:
            buf = np.empty(like.shape, dtype=like.dtype)
            self._scratch_bufs[key] = buf
        return buf

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Convenience passthrough to the network."""
        self.network.zero_grad()


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        network: Network,
        lr: float = 1e-3,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(network, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = ensure_positive(float(eps), "eps")
        self.weight_decay = ensure_non_negative(float(weight_decay), "weight_decay")
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, param in self.network.parameters():
            grad = param.grad
            s1 = self._scratch("adam1", param.value)
            s2 = self._scratch("adam2", param.value)
            if self.weight_decay:
                np.multiply(param.value, self.weight_decay, out=s1)
                s1 += grad
                grad = s1
            m = self._m.setdefault(name, np.zeros_like(param.value))  # allocates once per parameter
            v = self._v.setdefault(name, np.zeros_like(param.value))  # allocates once per parameter
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m += s2
            v *= self.beta2
            np.power(grad, 2, out=s2)
            s2 *= 1.0 - self.beta2
            v += s2
            # value -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps),
            # replicating the legacy left-to-right evaluation order
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            np.divide(m, bias1, out=s1)  # grad is dead; s1 reuse is safe
            s1 *= self.lr
            s1 /= s2
            param.value -= s1
