"""Learning-curve shape analytics.

The paper's Analyzer lets scientists "study NN performance and evolution
throughout training [and] the shape of fitness curves".  These helpers
quantify curve shape (monotonicity, concavity, plateau onset, noise) and
summarize termination-epoch distributions (Fig. 8), and rebuild the full
curves a sampled run's stopped models would have trained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurveShape",
    "describe_curve",
    "termination_histogram",
    "TerminationSummary",
    "true_curves",
]


@dataclass(frozen=True)
class CurveShape:
    """Shape descriptors of one fitness learning curve.

    Attributes
    ----------
    n_epochs:
        Curve length.
    start, final, best:
        First / last / maximum fitness values.
    total_gain:
        ``final - start``.
    monotonicity:
        Fraction of steps that do not decrease (1.0 = monotone).
    concave_fraction:
        Fraction of interior points with negative discrete curvature
        (well-behaved curves are concave-down, cf. §2.1.1).
    plateau_epoch:
        First epoch after which the curve stays within 1% of its final
        value.
    noise_rms:
        RMS of the detrended first differences (measurement noise
        proxy).
    """

    n_epochs: int
    start: float
    final: float
    best: float
    total_gain: float
    monotonicity: float
    concave_fraction: float
    plateau_epoch: int
    noise_rms: float


def describe_curve(curve) -> CurveShape:
    """Compute :class:`CurveShape` for a fitness history (1-based epochs)."""
    y = np.asarray(list(curve), dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError(f"curve must be 1-D with >= 2 points, got shape {y.shape}")
    diffs = np.diff(y)
    monotonicity = float(np.mean(diffs >= 0))
    if y.size >= 3:
        curvature = np.diff(y, n=2)
        concave_fraction = float(np.mean(curvature <= 0))
    else:
        concave_fraction = 1.0

    tolerance = max(abs(y[-1]) * 0.01, 1e-9)
    within = np.abs(y - y[-1]) <= tolerance
    plateau_epoch = y.size
    for i in range(y.size):
        if within[i:].all():
            plateau_epoch = i + 1  # 1-based
            break

    noise = diffs - np.mean(diffs)
    return CurveShape(
        n_epochs=int(y.size),
        start=float(y[0]),
        final=float(y[-1]),
        best=float(y.max()),
        total_gain=float(y[-1] - y[0]),
        monotonicity=monotonicity,
        concave_fraction=concave_fraction,
        plateau_epoch=int(plateau_epoch),
        noise_rms=float(np.sqrt(np.mean(noise**2))),
    )


@dataclass(frozen=True)
class TerminationSummary:
    """Fig. 8-style summary of when training terminated early.

    Attributes
    ----------
    histogram:
        Counts per termination epoch (index 0 = epoch 1).
    percent_terminated:
        Share of models the engine stopped early, in percent.
    mean_termination_epoch:
        Mean ``e_t`` over early-terminated models (NaN if none).
    """

    histogram: np.ndarray
    percent_terminated: float
    mean_termination_epoch: float


def termination_histogram(records, *, max_epochs: int) -> TerminationSummary:
    """Summarize termination epochs over model records.

    ``records`` is any iterable with ``terminated_early`` and
    ``epochs_trained`` attributes (model records or individuals'
    results).
    """
    records = list(records)
    if not records:
        raise ValueError("no records supplied")
    histogram = np.zeros(max_epochs, dtype=int)
    terminated = []
    for r in records:
        if r.terminated_early:
            e_t = int(r.epochs_trained)
            if not 1 <= e_t <= max_epochs:
                raise ValueError(f"termination epoch {e_t} outside [1, {max_epochs}]")
            histogram[e_t - 1] += 1
            terminated.append(e_t)
    return TerminationSummary(
        histogram=histogram,
        percent_terminated=100.0 * len(terminated) / len(records),
        mean_termination_epoch=float(np.mean(terminated)) if terminated else float("nan"),
    )


def true_curves(records, run) -> dict:
    """The full curve each sampled record's model would have trained.

    A surrogate-mode curve is a pure function of the genome, the
    intensity, the run seed and the attempt salt, drawn at the full
    budget (:meth:`repro.nas.surrogate.SurrogateEvaluator.curve`), so a
    model the engine stopped or the allocator skipped still has a last
    epoch.  For every non-quarantined record of ``run`` (zero-budget
    skips included) this redraws that curve, ``nas.max_epochs`` long,
    from the stored config; the salt is ``("retry", n)`` for a record
    with ``n`` retry fault events.  Each recorded ``fitness_history`` is
    a prefix of its curve.  Returns ``{model_id: curve}``.

    Raises ``ValueError`` for a real-mode run, whose curves were
    trained, not drawn.
    """
    from repro.nas.genome import Genome
    from repro.nas.surrogate import SurrogateEvaluator
    from repro.utils.rng import RngStream
    from repro.workflow.interfaces import WorkflowConfig

    config = WorkflowConfig.from_dict(run.workflow_config)
    if config.mode != "surrogate":
        raise ValueError(f"run {run.run_id} trained real networks; no curve was sampled")
    evaluator = SurrogateEvaluator(
        config.intensity,
        None,
        max_epochs=config.nas.max_epochs,
        rng_stream=RngStream(config.seed).child("eval"),
    )
    curves = {}
    for r in records:
        if r.quarantined:
            continue
        retries = sum(1 for event in r.fault_events if event["action"] == "retry")
        salt = ("retry", retries) if retries else ()
        curves[r.model_id] = evaluator.curve(Genome.from_dict(r.genome), salt)
    return curves
