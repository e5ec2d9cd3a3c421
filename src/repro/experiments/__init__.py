"""Experiment reproductions: one module per paper table/figure.

Each module exposes ``run_*`` (compute the artifact) and ``format_*``
(render paper-vs-measured).  The benchmarks in ``benchmarks/`` drive
these; see DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md
for recorded outcomes.
"""

from repro.experiments.ablation_engine import format_engine_ablation, run_engine_ablation
from repro.experiments.ablation_functions import format_function_ablation, run_function_ablation
from repro.experiments.configs import (
    DEFAULT_SEED,
    PAPER_CONVERGENCE,
    PAPER_ENGINE_CONFIG,
    PAPER_EPOCH_SAVINGS_PERCENT,
    PAPER_NAS_CONFIG,
    PAPER_OVERHEAD,
    PAPER_SPEEDUP_4GPU,
    PAPER_TABLE3,
    PAPER_WALLTIME_HOURS,
    PAPER_WALLTIME_SAVED_HOURS,
)
from repro.experiments.fig2_prediction import Fig2Result, format_fig2, run_fig2
from repro.experiments.fig5_intensities import Fig5Result, format_fig5, run_fig5
from repro.experiments.fig10_architecture import Fig10Result, format_fig10, run_fig10
from repro.experiments.real_mode import (
    RealModeResult,
    format_real_mode,
    real_mode_config,
    run_real_mode,
)
from repro.experiments.fig6_pareto import Fig6Result, format_fig6, run_fig6
from repro.experiments.fig7_epochs import Fig7Result, format_fig7, run_fig7
from repro.experiments.fig8_convergence import Fig8Result, format_fig8, run_fig8
from repro.experiments.fig9_walltime import Fig9Result, format_fig9, run_fig9
from repro.experiments.overhead import OverheadResult, format_overhead, run_overhead
from repro.experiments.runner import clear_cache, get_comparison, paper_config
from repro.experiments.table3_xpsi import Table3Result, format_table3, run_table3

__all__ = [
    "format_engine_ablation",
    "run_engine_ablation",
    "format_function_ablation",
    "run_function_ablation",
    "DEFAULT_SEED",
    "PAPER_CONVERGENCE",
    "PAPER_ENGINE_CONFIG",
    "PAPER_EPOCH_SAVINGS_PERCENT",
    "PAPER_NAS_CONFIG",
    "PAPER_OVERHEAD",
    "PAPER_SPEEDUP_4GPU",
    "PAPER_TABLE3",
    "PAPER_WALLTIME_HOURS",
    "PAPER_WALLTIME_SAVED_HOURS",
    "Fig2Result",
    "format_fig2",
    "run_fig2",
    "Fig5Result",
    "format_fig5",
    "run_fig5",
    "Fig10Result",
    "format_fig10",
    "run_fig10",
    "RealModeResult",
    "format_real_mode",
    "real_mode_config",
    "run_real_mode",
    "Fig6Result",
    "format_fig6",
    "run_fig6",
    "Fig7Result",
    "format_fig7",
    "run_fig7",
    "Fig8Result",
    "format_fig8",
    "run_fig8",
    "Fig9Result",
    "format_fig9",
    "run_fig9",
    "OverheadResult",
    "format_overhead",
    "run_overhead",
    "clear_cache",
    "get_comparison",
    "paper_config",
    "Table3Result",
    "format_table3",
    "run_table3",
]
