"""Per-layer metrics: what the traced run wraps and how numbers are derived.

Layers are the package names under ``src/repro/`` on the search path:
``xfel``, ``nn``, ``core``, ``nas``, ``scheduler``, ``lineage``,
``workflow``, ``analysis``.  Every number comes from outside the
program, from one of four sources:

* **F** — a field the program already returns (``Individual``,
  ``TrainingResult``, ``PoolReport``, ``EvaluationCache.stats()``);
* **W** — a timing wrapper :func:`spans.instrument` installs for the
  traced run only (``TARGETS`` below);
* **D** — a call the benchmark makes itself, timed as a stage span;
* **C** — computed from the others.

Per-layer metrics are derived from the traced execution only.  A metric
it cannot observe is ``None``: what the config never exercises, and the W
metrics of code that executes inside spawned pool workers (they re-import
the package, so the parent's wrappers are not there).
"""

from __future__ import annotations

import importlib

from spans import Recorder, self_seconds

__all__ = ["PER_LAYER", "TARGETS", "resolve_targets", "layer_metrics"]

#: marks a target that runs inside an evaluation, hence inside the worker
IN_WORKER = True

# (module, owner or None, attribute, span name, runs inside a worker).
# The module is the one whose name the program looks up at call time: a
# function imported with ``from x import f`` is patched where it landed.
# ``owner`` is a class, or the ``_CROSSOVERS`` dict the search indexes.
TARGETS = (
    ("repro.workflow.orchestrator", None, "load_or_generate", "xfel.load_in_run", False),
    ("repro.workflow.orchestrator", None, "share_dataset", "xfel.shm_publish", False),
    ("repro.nn.trainer", "Trainer", "train", "nn.train", IN_WORKER),
    ("repro.nn.trainer", "Trainer", "validate", "nn.validate", IN_WORKER),
    ("repro.nn.optimizers", "Adam", "step", "nn.optimizer", IN_WORKER),
    ("repro.nn.optimizers", "Optimizer", "zero_grad", "nn.optimizer", IN_WORKER),
    ("repro.nn.losses", "SoftmaxCrossEntropy", "__call__", "nn.loss", IN_WORKER),
    ("repro.nn.layers.conv", "Conv2D", "forward", "nn.conv_fwd", IN_WORKER),
    ("repro.nn.layers.conv", "Conv2D", "backward", "nn.conv_bwd", IN_WORKER),
    ("repro.nn.layers.dense", "Dense", "forward", "nn.dense_fwd", IN_WORKER),
    ("repro.nn.layers.dense", "Dense", "backward", "nn.dense_bwd", IN_WORKER),
    ("repro.nn.layers.pooling", "MaxPool2D", "forward", "nn.pool_fwd", IN_WORKER),
    ("repro.nn.layers.pooling", "MaxPool2D", "backward", "nn.pool_bwd", IN_WORKER),
    ("repro.nn.layers.pooling", "AvgPool2D", "forward", "nn.pool_fwd", IN_WORKER),
    ("repro.nn.layers.pooling", "AvgPool2D", "backward", "nn.pool_bwd", IN_WORKER),
    ("repro.nn.layers.pooling", "GlobalAvgPool2D", "forward", "nn.pool_fwd", IN_WORKER),
    ("repro.nn.layers.pooling", "GlobalAvgPool2D", "backward", "nn.pool_bwd", IN_WORKER),
    # BatchNorm2D and BatchNorm1D inherit both from the shared base
    ("repro.nn.layers.norm", "_BatchNorm", "forward", "nn.norm_fwd", IN_WORKER),
    ("repro.nn.layers.norm", "_BatchNorm", "backward", "nn.norm_bwd", IN_WORKER),
    ("repro.nn.layers.activation", "ReLU", "forward", "nn.act_fwd", IN_WORKER),
    ("repro.nn.layers.activation", "ReLU", "backward", "nn.act_bwd", IN_WORKER),
    ("repro.core.engine", None, "fit_curve", "core.fit", IN_WORKER),
    ("repro.core.engine", "PredictionEngine", "converged", "core.analyze", IN_WORKER),
    ("repro.nas.surrogate", None, "ridge_lstsq", "core.ridge", False),
    # these four contain the non-dominated sort; wrapping the sort too
    # would count it twice
    ("repro.nas.search", None, "environmental_selection", "nas.select", False),
    ("repro.nas.search", None, "steady_eviction", "nas.select", False),
    ("repro.nas.search", None, "pareto_front_mask", "nas.select", False),
    ("repro.nas.search", None, "binary_tournament", "nas.select", False),
    # the search calls crossovers through this dict, not the module names
    ("repro.nas.search", "_CROSSOVERS", "uniform", "nas.variation", False),
    ("repro.nas.search", "_CROSSOVERS", "point", "nas.variation", False),
    ("repro.nas.search", None, "bitflip_mutation", "nas.variation", False),
    ("repro.nas.surrogate", "BudgetAllocator", "score", "nas.score", False),
    ("repro.nas.surrogate", "BudgetAllocator", "observe", "nas.observe", False),
    ("repro.nas.evaluation", None, "decode_genome", "nas.decode", IN_WORKER),
    ("repro.nas.surrogate", None, "decode_genome", "nas.decode", IN_WORKER),
    ("repro.nas.evaluation", "TrainingEvaluator", "evaluate", "nas.evaluate", IN_WORKER),
    ("repro.nas.surrogate", "SurrogateEvaluator", "evaluate", "nas.evaluate", IN_WORKER),
    ("repro.workflow.orchestrator", None, "simulate_walltime", "scheduler.simulate", False),
    # resume_workflow imports it from its home module at call time
    ("repro.scheduler.simulator", None, "simulate_walltime", "scheduler.simulate", False),
    ("repro.lineage.tracker", "LineageTracker", "observe_epoch", "lineage.observe", False),
    ("repro.lineage.tracker", "LineageTracker", "observe_individual", "lineage.observe", False),
    ("repro.workflow.resume", None, "rebuild_search_state", "workflow.rebuild", False),
)

_WORKER_SPANS = frozenset(name for *_, name, in_worker in TARGETS if in_worker)


def resolve_targets(targets=TARGETS) -> list:
    """``(holder, attribute, span name)`` triples for :func:`spans.instrument`."""
    resolved = []
    for module_name, owner, attr, name, _ in targets:
        holder = importlib.import_module(module_name)
        if owner is not None:
            holder = getattr(holder, owner)
        resolved.append((holder, attr, name))
    return resolved


# name, unit, better, source.  The order is the order of printing.
PER_LAYER = (
    ("xfel.generate_s", "s", "lower", "D"),
    ("xfel.first_call_s", "s", "lower", "D"),
    ("xfel.images_per_s", "1/s", "higher", "D"),
    ("xfel.load_in_run_s", "s", "lower", "W"),
    ("xfel.shm_publish_s", "s", "lower", "W"),
    ("nn.train_s", "s", "lower", "F"),
    ("nn.epochs", "count", "lower", "F"),
    ("nn.samples_per_s", "1/s", "higher", "F"),
    ("nn.validate_s", "s", "lower", "W"),
    ("nn.optimizer_s", "s", "lower", "W"),
    ("nn.loss_s", "s", "lower", "W"),
    ("nn.conv_fwd_s", "s", "lower", "W"),
    ("nn.conv_bwd_s", "s", "lower", "W"),
    ("nn.dense_fwd_s", "s", "lower", "W"),
    ("nn.dense_bwd_s", "s", "lower", "W"),
    ("nn.pool_fwd_s", "s", "lower", "W"),
    ("nn.pool_bwd_s", "s", "lower", "W"),
    ("nn.norm_fwd_s", "s", "lower", "W"),
    ("nn.norm_bwd_s", "s", "lower", "W"),
    ("nn.act_fwd_s", "s", "lower", "W"),
    ("nn.act_bwd_s", "s", "lower", "W"),
    ("nn.train_gflops", "GFLOP/s", "higher", "C"),
    ("nn.arena_peak_mb", "MiB", "lower", "F"),
    ("core.engine_s", "s", "lower", "F"),
    ("core.engine_calls", "count", "lower", "F"),
    ("core.engine_ms_per_call", "ms", "lower", "F"),
    ("core.engine_share", "ratio", "lower", "C"),
    ("core.fit_s", "s", "lower", "W"),
    ("core.fit_calls", "count", "lower", "W"),
    ("core.fit_none_ratio", "ratio", "lower", "W"),
    ("core.analyze_s", "s", "lower", "W"),
    ("core.epochs_saved", "epochs", "higher", "F"),
    ("core.early_stop_ratio", "ratio", "higher", "F"),
    ("core.ridge_s", "s", "lower", "W"),
    ("nas.select_s", "s", "lower", "W"),
    ("nas.variation_s", "s", "lower", "W"),
    ("nas.score_s", "s", "lower", "W"),
    ("nas.score_calls", "count", "lower", "W"),
    ("nas.observe_s", "s", "lower", "W"),
    ("nas.decode_s", "s", "lower", "W"),
    ("nas.decode_calls", "count", "lower", "W"),
    ("nas.evaluate_s", "s", "lower", "W"),
    ("nas.evaluate_self_s", "s", "lower", "W"),
    ("nas.cache_hits", "count", "higher", "F"),
    ("nas.cache_misses", "count", "lower", "F"),
    ("nas.cache_hit_ratio", "ratio", "higher", "F"),
    ("nas.epochs_skipped", "epochs", "higher", "F"),
    ("nas.epochs_trained", "epochs", "lower", "F"),
    ("nas.best_fitness", "%", "higher", "F"),
    ("nas.front_hv", "%.FLOPs", "higher", "C"),
    ("scheduler.pool_wall_s", "s", "lower", "F"),
    ("scheduler.busy_s", "s", "lower", "F"),
    ("scheduler.utilization", "ratio", "higher", "F"),
    ("scheduler.barrier_downtime_s", "s", "lower", "F"),
    ("scheduler.outside_pool_s", "s", "lower", "C"),
    ("scheduler.job_nontrain_s", "s", "lower", "C"),
    ("scheduler.simulate_s", "s", "lower", "W"),
    ("scheduler.fault_events", "count", "lower", "F"),
    ("lineage.observe_s", "s", "lower", "W"),
    ("lineage.observe_calls", "count", "lower", "W"),
    ("lineage.publish_s", "s", "lower", "D"),
    ("lineage.publish_bytes", "B", "lower", "D"),
    ("lineage.publish_files", "count", "lower", "D"),
    ("lineage.load_s", "s", "lower", "D"),
    ("lineage.records", "count", "higher", "D"),
    ("workflow.resume_s", "s", "lower", "D"),
    ("workflow.rebuild_s", "s", "lower", "W"),
    ("workflow.run_s", "s", "lower", "D"),
    ("workflow.unattributed_s", "s", "lower", "C"),
    ("workflow.search_wall_s", "s", "lower", "D"),
    ("workflow.cpu_s", "s", "lower", "D"),
    ("workflow.work_units", "count", "lower", "F"),
    ("analysis.query_s", "s", "lower", "D"),
    ("trace.overhead_frac", "ratio", "lower", "C"),
    ("trace.coverage", "ratio", "higher", "C"),
)


def _ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def layer_metrics(section, recorder: Recorder, *, setup: dict, untraced_wall: float) -> dict:
    """Every ``PER_LAYER`` metric of the traced execution of the timed section.

    ``section`` is the :class:`run.Section` that execution returned,
    ``setup`` the xfel numbers measured before it and ``untraced_wall``
    the wall of the same section executed without the wrappers.
    """
    config = section.config
    archive = section.result.search.archive.members
    ran = [m for m in archive if m.result is not None and not m.cache_hit]
    spans = [s for s in recorder.spans if s.run == section.run]
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_seconds(spans)
    in_process = config.backend == "process"

    def visible(name: str) -> bool:
        return not (in_process and name in _WORKER_SPANS)

    def span_s(name: str):
        """Seconds inside a wrapped name: 0 if never called, None if unobservable."""
        if not visible(name):
            return None
        return sum(s.seconds for s in by_name.get(name, ()))

    def span_n(name: str):
        return len(by_name.get(name, ())) if visible(name) else None

    def stage_s(name: str):
        """Seconds of a stage the benchmark ran itself; None if it did not."""
        return sum(s.seconds for s in by_name[name]) if name in by_name else None

    m: dict = {name: None for name, *_ in PER_LAYER}
    m.update(setup)
    m["xfel.load_in_run_s"] = span_s("xfel.load_in_run")
    m["xfel.shm_publish_s"] = span_s("xfel.shm_publish")

    # -- nn: real training only; sampled curves cost the nn layer nothing
    real = config.mode == "real"
    train_s = sum(sum(i.epoch_seconds) for i in ran) if real else 0.0
    epochs = sum(len(i.epoch_seconds) for i in ran) if real else 0
    per_class = int(round(config.dataset.images_per_class * config.dataset.train_fraction))
    n_train = 2 * per_class
    m["nn.train_s"] = train_s
    m["nn.epochs"] = epochs
    m["nn.samples_per_s"] = _ratio(epochs * n_train, train_s)
    if real:
        # forward + backward is ~3x the forward count network_flops gives
        flop = 3.0 * n_train * sum(i.flops * len(i.epoch_seconds) for i in ran)
        m["nn.train_gflops"] = _ratio(flop / 1e9, train_s)
        m["nn.arena_peak_mb"] = max(i.arena_peak_bytes for i in archive) / 2**20
    for stem in ("validate", "optimizer", "loss", "conv_fwd", "conv_bwd", "dense_fwd",
                 "dense_bwd", "pool_fwd", "pool_bwd", "norm_fwd", "norm_bwd",
                 "act_fwd", "act_bwd"):
        m[f"nn.{stem}_s"] = span_s(f"nn.{stem}")

    # -- core: cache hits replay the stored overhead, so only real runs count
    engine_s = sum(i.result.engine_overhead_seconds for i in ran)
    engine_calls = sum(i.result.engine_interactions for i in ran)
    m["core.engine_s"] = engine_s
    m["core.engine_calls"] = engine_calls
    m["core.engine_ms_per_call"] = _ratio(1e3 * engine_s, engine_calls)
    m["core.engine_share"] = _ratio(engine_s, section.wall_s)
    m["core.fit_s"] = span_s("core.fit")
    m["core.fit_calls"] = span_n("core.fit")
    if visible("core.fit"):
        fits = by_name.get("core.fit", ())
        m["core.fit_none_ratio"] = _ratio(sum(s.none for s in fits), len(fits))
    m["core.analyze_s"] = span_s("core.analyze")
    m["core.ridge_s"] = span_s("core.ridge")
    search = section.result.search
    m["core.epochs_saved"] = search.total_epochs_saved
    completed = [i for i in archive if i.result is not None]
    m["core.early_stop_ratio"] = _ratio(
        sum(i.result.terminated_early for i in completed), len(completed)
    )

    # -- nas
    for stem in ("select", "variation", "score", "observe", "decode", "evaluate"):
        m[f"nas.{stem}_s"] = span_s(f"nas.{stem}")
    m["nas.score_calls"] = span_n("nas.score")
    m["nas.decode_calls"] = span_n("nas.decode")
    if visible("nas.evaluate"):
        m["nas.evaluate_self_s"] = sum(own[s.id] for s in by_name.get("nas.evaluate", ()))
    if section.cache_stats is not None:
        hits, misses = section.cache_stats["hits"], section.cache_stats["misses"]
        m["nas.cache_hits"] = hits
        m["nas.cache_misses"] = misses
        m["nas.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["nas.epochs_skipped"] = search.total_epochs_skipped
    m["nas.epochs_trained"] = section.raw["epochs_trained"]
    m["nas.best_fitness"] = section.raw["best_fitness"]
    m["nas.front_hv"] = section.raw["front_hv"]

    # -- scheduler: no pool, no report (the inline loop of n_workers=1)
    run_s = stage_s("workflow.run")
    reports = section.pool_reports
    if reports:
        pool_wall = sum(r.wall_seconds for r in reports)
        busy = sum(r.busy_seconds for r in reports)
        capacity = sum(r.n_workers * r.wall_seconds for r in reports)
        m["scheduler.pool_wall_s"] = pool_wall
        m["scheduler.busy_s"] = busy
        m["scheduler.utilization"] = _ratio(busy, capacity)
        m["scheduler.barrier_downtime_s"] = sum(
            sum(r.barrier_downtime()) for r in reports
        )
        m["scheduler.outside_pool_s"] = run_s - pool_wall
        m["scheduler.job_nontrain_s"] = (
            sum(job.duration for r in reports for job in r.jobs) - train_s - engine_s
        )
    m["scheduler.simulate_s"] = span_s("scheduler.simulate")
    m["scheduler.fault_events"] = sum(len(i.fault_events) for i in archive)

    # -- lineage, workflow, analysis
    m["lineage.observe_s"] = span_s("lineage.observe")
    m["lineage.observe_calls"] = span_n("lineage.observe")
    m["lineage.publish_s"] = stage_s("lineage.publish")
    m["lineage.publish_bytes"] = section.publish_bytes
    m["lineage.publish_files"] = section.publish_files
    m["lineage.load_s"] = stage_s("lineage.load")
    m["lineage.records"] = None if section.loaded is None else len(section.loaded)
    m["workflow.resume_s"] = stage_s("workflow.resume")
    m["workflow.rebuild_s"] = span_s("workflow.rebuild")
    m["workflow.run_s"] = run_s
    m["workflow.search_wall_s"] = section.wall_s
    m["workflow.cpu_s"] = section.cpu_s
    m["workflow.work_units"] = section.work_units
    m["analysis.query_s"] = stage_s("analysis.query")

    # -- trace: what the spans under run() leave unexplained
    (run_span,) = by_name["workflow.run"]
    m["workflow.unattributed_s"] = own[run_span.id]
    m["trace.coverage"] = 1.0 - own[run_span.id] / run_span.seconds
    m["trace.overhead_frac"] = section.wall_s / untraced_wall - 1.0
    return m
