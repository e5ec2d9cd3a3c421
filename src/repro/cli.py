"""Command-line interface for the A4NN workflow.

Mirrors the paper's user-interface layer (§2.6): NAS settings, the data
path, and prediction-engine settings are supplied as one JSON document
(or built from flags), and runs are launched, compared, and analyzed
without writing Python.

Usage::

    python -m repro run --intensity medium --mode surrogate --commons ./commons
    python -m repro compare --intensity high --seed 7
    python -m repro analyze --commons ./commons --run-id a4nn_surrogate_medium_seed42
    python -m repro report --commons ./commons
    python -m repro verify --commons ./commons
    python -m repro config --intensity low > low.json
    python -m repro run --config low.json
    python -m repro check src/
    python -m repro check --list-rules
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.analysis import (
    CommonsQuery,
    flops_accuracy_correlation,
    pareto_frontier,
    prediction_error_summary,
    sparkline,
    termination_histogram,
    write_run_report,
)
from repro.experiments.reporting import ReportTable
from repro.lineage import DataCommons, verify_run
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.utils.io import read_json
from repro.utils.logging import configure_logging
from repro.utils.timing import format_hours
from repro.utils.validation import ValidationError
from repro.workflow import WorkflowConfig, run_comparison, run_workflow
from repro.xfel import BeamIntensity, DatasetConfig

__all__ = ["main", "build_parser"]


def _fault_settings_from_args(args: argparse.Namespace):
    """(FaultPolicy | None, FaultInjectionConfig | None) from CLI flags.

    Any fault flag enables the policy (with defaults for the rest);
    ``--inject-faults`` alone also enables it, since injection without a
    policy would abort the run on the first injected fault.
    """
    wants_policy = any(
        value is not None
        for value in (args.max_retries, args.eval_timeout, args.retry_backoff)
    )
    injection = None
    if args.inject_faults:
        injection = FaultInjectionConfig(
            rate=args.inject_faults,
            modes=tuple(args.inject_modes.split(",")),
        )
        wants_policy = True
    if not wants_policy:
        return None, None
    defaults = FaultPolicy()
    policy = FaultPolicy(
        max_retries=defaults.max_retries if args.max_retries is None else args.max_retries,
        backoff_seconds=defaults.backoff_seconds
        if args.retry_backoff is None
        else args.retry_backoff,
        timeout_seconds=args.eval_timeout,
    )
    return policy, injection


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Top-level ``WorkflowConfig`` fields given explicitly on the CLI."""
    overrides = {
        name: getattr(args, name)
        for name in (
            "mode", "seed", "dtype", "rng_keying", "eval_cache", "backend", "n_workers",
        )
        if getattr(args, name) is not None
    }
    if args.sanitize:
        overrides["sanitize"] = True
    if args.sanitize_writes:
        overrides["sanitize_writes"] = True
    if args.surrogate is not None:
        from repro.nas.surrogate import SurrogateConfig

        overrides["surrogate"] = (
            SurrogateConfig() if args.surrogate == "rank" else None
        )
    faults, fault_injection = _fault_settings_from_args(args)
    if faults is not None:
        overrides["faults"] = faults
    if fault_injection is not None:
        overrides["fault_injection"] = fault_injection
    return overrides


def _nas_overrides(args: argparse.Namespace) -> dict:
    """Evolution-loop settings given explicitly on the CLI (nested in nas)."""
    overrides = {}
    if args.evolution is not None:
        overrides["evolution"] = args.evolution
    if args.steady_lag is not None:
        overrides["steady_lag"] = args.steady_lag
    return overrides


def _config_from_args(args: argparse.Namespace) -> WorkflowConfig:
    """The ``--config`` document (or the CLI's defaults) with every given flag on top."""
    if args.config:
        config = WorkflowConfig.from_dict(read_json(args.config))
    else:
        # the CLI's medium stays explicit: DatasetConfig alone defaults to high
        config = WorkflowConfig(
            dataset=DatasetConfig(intensity=BeamIntensity.MEDIUM),
            mode="surrogate",
            seed=42,
        )
    overrides = _flag_overrides(args)
    if args.intensity is not None:
        overrides["dataset"] = dataclasses.replace(
            config.dataset, intensity=BeamIntensity.from_label(args.intensity)
        )
    nas_overrides = _nas_overrides(args)
    if nas_overrides:
        overrides["nas"] = dataclasses.replace(config.nas, **nas_overrides)
    # one replace, so the combination is validated as a whole
    return dataclasses.replace(config, **overrides)


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON WorkflowConfig document")
    parser.add_argument(
        "--intensity",
        choices=[m.label for m in BeamIntensity],
        help="beam intensity (default medium, or the --config document's)",
    )
    parser.add_argument(
        "--mode",
        choices=["surrogate", "real"],
        help="default surrogate, or the --config document's",
    )
    parser.add_argument(
        "--seed", type=int, help="root seed (default 42, or the --config document's)"
    )
    parser.add_argument("--commons", type=Path, help="data-commons directory")
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime numerical sanitizer to trained networks (real mode)",
    )
    parser.add_argument(
        "--sanitize-writes",
        action="store_true",
        help="attach the runtime write guard to trained networks (real mode): "
        "borrowed inter-layer tensors become read-only around layer calls, "
        "so aliasing writes raise a guarded-write fault instead of silently "
        "corrupting a neighbouring buffer",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        help="enable the fault policy: retries per failing evaluation (default 2)",
    )
    parser.add_argument(
        "--eval-timeout",
        type=float,
        help="enable the fault policy: per-evaluation timeout in seconds",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        help="enable the fault policy: base backoff seconds (doubles per retry)",
    )
    parser.add_argument(
        "--inject-faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="deterministically inject faults into this fraction of evaluation "
        "attempts (enables the fault policy; test harness)",
    )
    parser.add_argument(
        "--inject-modes",
        default="crash,hang,nan",
        help="comma-separated fault modes to inject (crash, hang, nan)",
    )
    parser.add_argument(
        "--dtype",
        choices=["float32", "float64"],
        help="compute dtype for real-mode evaluation (new runs default to "
        "float32; float64 reproduces historical runs bit-exactly)",
    )
    parser.add_argument(
        "--rng-keying",
        choices=["model", "genome"],
        help="evaluation RNG identity: 'genome' (new-run default) makes "
        "duplicate architectures cacheable; 'model' replays legacy runs",
    )
    parser.add_argument(
        "--eval-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="memoize evaluations of duplicate architectures "
        "(on by default for new runs; requires --rng-keying genome)",
    )
    parser.add_argument(
        "--backend",
        choices=["thread", "process"],
        help="evaluation backend: 'thread' (inline at one worker, a FIFO "
        "thread pool above; default) or 'process' (spawned workers sharing "
        "the dataset through shared memory, with hard-kill timeouts)",
    )
    parser.add_argument(
        "--n-workers",
        type=int,
        help="concurrent evaluations per generation (default 1)",
    )
    parser.add_argument(
        "--surrogate",
        choices=["off", "rank"],
        help="surrogate pre-ranking over the lineage commons: 'rank' trains "
        "a cross-architecture fitness predictor online and spends full "
        "epoch budgets only on predicted winners (predicted losers get a "
        "short probe); 'off' (the default) reproduces pre-surrogate runs "
        "byte-identically",
    )
    parser.add_argument(
        "--evolution",
        choices=["barrier", "steady"],
        help="evolution loop: 'barrier' (generational; default) or 'steady' "
        "(asynchronous steady-state under a deterministic logical clock — "
        "no generation-boundary downtime)",
    )
    parser.add_argument(
        "--steady-lag",
        type=int,
        help="steady-state breeding lag (in-flight window); determinism "
        "depends only on (seed, lag). Defaults to --n-workers",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_workflow(config, commons_path=args.commons)
    budget = result.search.epoch_budget
    print(f"run id            : {result.run_id}")
    print(f"networks evaluated: {len(result.search.archive)}")
    if config.faults is not None:
        print(f"quarantined       : {result.search.n_quarantined}")
    if config.caches_evaluations:
        hits = sum(g.n_cache_hits for g in result.search.generations)
        print(f"cache hits        : {hits}")
    print(
        f"epochs            : {result.total_epochs_trained}/{budget} "
        f"({100 * result.epochs_saved_fraction():.1f}% saved)"
    )
    if config.surrogate is not None:
        probed = sum(
            1 for m in result.search.archive if m.budget_assigned is not None
        )
        print(
            f"surrogate         : {probed} candidates probed/skipped, "
            f"{result.total_epochs_skipped} epochs skipped"
        )
    for n_gpus, report in sorted(result.walltime.items()):
        print(
            f"wall time {n_gpus} gpu  : {format_hours(report.wall_seconds)} "
            f"(utilization {100 * report.utilization:.0f}%)"
        )
    print(f"best accuracy     : {result.search.population.best_fitness():.2f}%")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    comparison = run_comparison(config, commons_path=args.commons)
    table = ReportTable("metric", "standalone", "A4NN")
    table.row(
        "epochs trained",
        comparison.standalone.total_epochs_trained,
        comparison.a4nn.total_epochs_trained,
    )
    table.row(
        "wall time 1 gpu (h)",
        comparison.standalone.walltime[1].wall_hours,
        comparison.a4nn.walltime[1].wall_hours,
    )
    table.row(
        "best accuracy %",
        comparison.standalone.search.population.best_fitness(),
        comparison.a4nn.search.population.best_fitness(),
    )
    print(table.render(f"A4NN vs standalone ({config.intensity.label}, seed {config.seed})"))
    print(f"epochs saved   : {comparison.epochs_saved_percent:.1f}%")
    print(f"hours saved    : {comparison.walltime_saved_hours(1):.1f} (1 gpu)")
    if 4 in comparison.a4nn.walltime:
        print(f"4-gpu speedup  : {comparison.speedup(1, 4):.2f}x")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    commons = DataCommons(args.commons)
    run_ids = commons.run_ids()
    if not run_ids:
        print(f"no runs published under {args.commons}", file=sys.stderr)
        return 1
    run_id = args.run_id or run_ids[0]
    records = commons.load_models(run_id)
    query = CommonsQuery(records)

    print(f"run {run_id}: {len(records)} models")
    summary = termination_histogram(records, max_epochs=records[0].max_epochs or 25)
    print(
        f"terminated early  : {summary.percent_terminated:.0f}% "
        f"(mean e_t {summary.mean_termination_epoch:.1f})"
    )
    print(f"mean fitness      : {query.mean_fitness():.2f}%")
    try:
        corr = flops_accuracy_correlation(records)
        print(f"flops~accuracy rho: {corr.rho:+.2f} (p={corr.p_value:.3f})")
    except ValueError as exc:
        print(f"flops~accuracy rho: n/a ({exc})")
    try:
        errors = prediction_error_summary(records)
        print(f"prediction |err|  : {errors.mean_abs_error:.2f}% mean over {errors.n} models")
    except ValueError:
        print("prediction |err|  : n/a (no early-terminated models)")
    print("pareto frontier   :")
    for point in pareto_frontier(records):
        print(f"  model {point.model_id:4d}: {point.fitness:6.2f}%  {point.flops / 1e6:8.2f} MFLOPs")
    best = query.top_by_fitness(1)[0]
    print(f"best model {best.model_id} curve: {sparkline(best.fitness_history)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    commons = DataCommons(args.commons)
    run_ids = [args.run_id] if args.run_id else commons.run_ids()
    if not run_ids:
        print(f"no runs published under {args.commons}", file=sys.stderr)
        return 1
    all_match = True
    for run_id in run_ids:
        report = verify_run(commons, run_id)
        print(report.summary())
        all_match &= report.matches
    return 0 if all_match else 2


def _cmd_report(args: argparse.Namespace) -> int:
    commons = DataCommons(args.commons)
    run_ids = commons.run_ids()
    if not run_ids:
        print(f"no runs published under {args.commons}", file=sys.stderr)
        return 1
    run_id = args.run_id or run_ids[0]
    out_path = args.output or (Path(args.commons) / f"{run_id}_report.md")
    path = write_run_report(commons, run_id, out_path)
    print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # imported here so library users and spawned workers, which import
    # repro.tooling.sanitizer, never load the linter
    from repro.tooling.diagnostics import render_text
    from repro.tooling.linter import run_check
    from repro.tooling.rules import all_rules, markdown_catalog

    if args.list_rules:
        if args.format == "md":
            print(markdown_catalog())
        else:
            for rule in all_rules():
                print(f"{rule.rule_id}  [{rule.category}]  {rule.description}")
        return 0
    if args.format == "md":
        print("--format md is only valid with --list-rules", file=sys.stderr)
        return 2
    paths = args.paths or [Path(__file__).parent]
    select = args.select.split(",") if args.select else None
    try:
        result = run_check(paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if result.diagnostics:
        print(render_text(result.diagnostics))
    else:
        print(f"a4nn check: {result.n_files} file(s) clean")
    return result.exit_code


def _cmd_config(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    json.dump(config.to_dict(), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A4NN: composable NAS workflow with in situ fitness prediction",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable INFO logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one A4NN workflow")
    _add_common_run_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="run A4NN and the standalone-NAS baseline"
    )
    _add_common_run_flags(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    analyze_parser = subparsers.add_parser("analyze", help="analyze a data commons")
    analyze_parser.add_argument("--commons", type=Path, required=True)
    analyze_parser.add_argument("--run-id", help="defaults to the first published run")
    analyze_parser.set_defaults(handler=_cmd_analyze)

    verify_parser = subparsers.add_parser(
        "verify", help="replay published runs and verify their record trails"
    )
    verify_parser.add_argument("--commons", type=Path, required=True)
    verify_parser.add_argument("--run-id", help="defaults to every published run")
    verify_parser.set_defaults(handler=_cmd_verify)

    report_parser = subparsers.add_parser(
        "report", help="write a Markdown analysis report for a run"
    )
    report_parser.add_argument("--commons", type=Path, required=True)
    report_parser.add_argument("--run-id", help="defaults to the first published run")
    report_parser.add_argument("--output", type=Path, help="report path (.md)")
    report_parser.set_defaults(handler=_cmd_report)

    config_parser = subparsers.add_parser(
        "config", help="emit a WorkflowConfig JSON document"
    )
    _add_common_run_flags(config_parser)
    config_parser.set_defaults(handler=_cmd_config)

    check_parser = subparsers.add_parser(
        "check", help="run the A4NN static-analysis rule catalog over source files"
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to lint (default: the installed repro package)",
    )
    check_parser.add_argument(
        "--format",
        choices=["text", "md"],
        default="text",
        help="diagnostic format (md is the README rule-catalog table, "
        "only with --list-rules)",
    )
    check_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    check_parser.add_argument("--select", help="comma-separated rule ids to run exclusively")
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        configure_logging()
    try:
        return args.handler(args)
    except ValidationError as exc:
        # the messages already say which setting to change
        print(f"a4nn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
