"""The Analyzer (paper §2.4): analytics over searches and the commons.

Pareto frontiers (:mod:`repro.analysis.pareto`), learning-curve shape
and termination analytics (:mod:`repro.analysis.curves`), the
record-trail queries (:mod:`repro.analysis.queries`),
architecture/curve rendering (:mod:`repro.analysis.viz`), the
statistical questions the paper's conclusions pose
(:mod:`repro.analysis.stats`), and the one run view over them all
(:mod:`repro.analysis.report`).
"""

from repro.analysis.compare import RunComparison, compare_runs
from repro.analysis.curves import (
    CurveShape,
    TerminationSummary,
    describe_curve,
    termination_histogram,
    true_curves,
)
from repro.analysis.pareto import (
    ParetoPoint,
    anytime_hypervolume,
    hypervolume_2d,
    pareto_frontier,
)
from repro.analysis.progress import SearchProgress, best_so_far, search_progress
from repro.analysis.queries import (
    SkipReport,
    TrainingMatrix,
    mean_fitness,
    skip_report,
    top_by_fitness,
    training_matrix,
)
from repro.analysis.report import render_run_report
from repro.analysis.stats import (
    CorrelationResult,
    bit_frequency_profile,
    flops_accuracy_correlation,
    prediction_error_summary,
)
from repro.analysis.viz import ascii_curve, render_network, render_phase, sparkline

__all__ = [
    "RunComparison",
    "compare_runs",
    "CurveShape",
    "TerminationSummary",
    "describe_curve",
    "termination_histogram",
    "true_curves",
    "ParetoPoint",
    "anytime_hypervolume",
    "hypervolume_2d",
    "pareto_frontier",
    "SearchProgress",
    "best_so_far",
    "search_progress",
    "top_by_fitness",
    "mean_fitness",
    "TrainingMatrix",
    "training_matrix",
    "SkipReport",
    "skip_report",
    "render_run_report",
    "CorrelationResult",
    "bit_frequency_profile",
    "flops_accuracy_correlation",
    "prediction_error_summary",
    "ascii_curve",
    "render_network",
    "render_phase",
    "sparkline",
]
