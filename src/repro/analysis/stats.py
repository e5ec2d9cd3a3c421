"""Aggregate statistics the paper's conclusions ask about.

§6 closes with analysis questions the commons should answer — e.g. *"Is
there a significant correlation between high FLOPS and high validation
accuracy?"* and *"Are there structural similarities between successful
architectures?"*.  These helpers answer them over record trails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lineage.records import ModelRecord
from repro.nas.genome import Genome

__all__ = [
    "CorrelationResult",
    "flops_accuracy_correlation",
    "bit_frequency_profile",
    "prediction_error_summary",
]


@dataclass(frozen=True)
class CorrelationResult:
    """Spearman correlation with its significance."""

    rho: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05."""
        return self.p_value < 0.05


def flops_accuracy_correlation(records: list[ModelRecord]) -> CorrelationResult:
    """Spearman rank correlation between FLOPs and validation accuracy."""
    pairs = [
        (r.flops, r.fitness)
        for r in records
        if r.flops is not None and r.fitness is not None
    ]
    if len(pairs) < 3:
        raise ValueError(f"need >= 3 evaluated records, have {len(pairs)}")
    flops, fitness = map(np.asarray, zip(*pairs))
    for name, column in (("flops", flops), ("fitness", fitness)):
        if np.all(column == column[0]):
            raise ValueError(f"{name} is constant over {len(pairs)} records")
    # imported here, not at module level: scipy.stats adds ~20 MB and a
    # fifth of the start-up time to every process that imports
    # repro.analysis, and searching, publishing and resuming never call it
    from scipy.stats import spearmanr

    rho, p = spearmanr(flops, fitness)
    return CorrelationResult(rho=float(rho), p_value=float(p), n=len(pairs))


def _bits(record: ModelRecord) -> np.ndarray:
    return np.asarray(Genome.from_dict(record.genome).to_bits(), dtype=int)


def bit_frequency_profile(records: list[ModelRecord]) -> np.ndarray:
    """Per-bit set frequency across records — the 'structural fingerprint'.

    Comparing the profile of top-fitness models against the whole
    archive shows which connections successful architectures share.
    """
    if not records:
        raise ValueError("no records supplied")
    stacked = np.stack([_bits(r) for r in records])
    return stacked.mean(axis=0)


@dataclass(frozen=True)
class PredictionErrorSummary:
    """How close converged predictions were to measured final fitness."""

    n: int
    mean_abs_error: float
    max_abs_error: float
    rmse: float


def prediction_error_summary(records: list[ModelRecord]) -> PredictionErrorSummary:
    """Compare engine predictions with measured fitness at termination.

    Only early-terminated models contribute — for them, ``fitness`` is
    the prediction and ``measured_fitness`` the last observed value.
    """
    errors = [
        abs(r.fitness - r.measured_fitness)
        for r in records
        if r.terminated_early
        and r.fitness is not None
        and r.measured_fitness is not None
    ]
    if not errors:
        raise ValueError("no early-terminated records with both values")
    errors = np.asarray(errors)
    return PredictionErrorSummary(
        n=len(errors),
        mean_abs_error=float(errors.mean()),
        max_abs_error=float(errors.max()),
        rmse=float(np.sqrt(np.mean(errors**2))),
    )
