"""Classification metrics.

The workflow's fitness measurement is validation accuracy *in percent*
(the prediction analyzer's validity bounds are [0, 100]), so
:func:`accuracy_percent` is the canonical fitness used everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "accuracy_percent"]


def _labels_from(predictions: np.ndarray) -> np.ndarray:
    """Accept either logits/probabilities (2-D) or hard labels (1-D)."""
    predictions = np.asarray(predictions)
    if predictions.ndim == 2:
        return predictions.argmax(axis=1)
    if predictions.ndim == 1:
        return predictions
    raise ValueError(f"predictions must be 1-D labels or 2-D scores, got {predictions.shape}")


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction correct in [0, 1]."""
    predicted = _labels_from(predictions)
    targets = np.asarray(targets)
    if predicted.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {targets.shape}")
    if len(targets) == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float(np.mean(predicted == targets))


def accuracy_percent(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Percent correct in [0, 100] — the workflow's fitness measurement."""
    return 100.0 * accuracy(predictions, targets)
