"""Comparison baseline: XPSI (autoencoder + kNN)."""

from repro.baselines.autoencoder import Autoencoder
from repro.baselines.knn import KNNClassifier
from repro.baselines.xpsi import (
    PAPER_XPSI_ACCURACY,
    PAPER_XPSI_HOURS,
    XPSIConfig,
    XPSIResult,
    run_xpsi,
)

__all__ = [
    "Autoencoder",
    "KNNClassifier",
    "PAPER_XPSI_ACCURACY",
    "PAPER_XPSI_HOURS",
    "XPSIConfig",
    "XPSIResult",
    "run_xpsi",
]
