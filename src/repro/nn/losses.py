"""Loss functions with analytic gradients."""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError", "log_softmax"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted for numerical stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class Loss:
    """Interface: ``value, grad = loss(predictions, targets)``."""

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy fused for a stable, simple gradient.

    ``predictions`` are raw logits ``(batch, classes)``; ``targets`` are
    integer class labels ``(batch,)``.  The returned gradient is with
    respect to the logits: ``(softmax - onehot) / batch``.
    """

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        if predictions.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {predictions.shape}")
        if targets.shape != (predictions.shape[0],):
            raise ValueError(
                f"targets shape {targets.shape} does not match batch {predictions.shape[0]}"
            )
        if targets.min() < 0 or targets.max() >= predictions.shape[1]:
            raise ValueError(
                f"labels must be in [0, {predictions.shape[1]}), "
                f"got range [{targets.min()}, {targets.max()}]"
            )
        n = predictions.shape[0]
        logp = log_softmax(predictions)
        value = float(-logp[np.arange(n), targets].mean())
        grad = np.exp(logp)
        grad[np.arange(n), targets] -= 1.0
        return value, grad / n


class MeanSquaredError(Loss):
    """Mean squared error over all elements (used by the autoencoder baseline)."""

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        predictions = np.asarray(predictions)
        # match the prediction dtype: casting targets to python ``float``
        # (float64) would silently upcast a float32 compute path here
        targets = np.asarray(targets, dtype=predictions.dtype)
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
            )
        diff = predictions - targets
        value = float(np.mean(diff**2))
        return value, 2.0 * diff / diff.size
