"""The A4NN workflow orchestrator.

Ties together the components of the paper's Fig. 1: it instantiates the
prediction engine from user settings, plugs it into the NAS through the
Algorithm-1 evaluator, hands every committed model to the lineage
tracker, publishes record trails to the data commons, and hands the recorded
workload to the resource manager for wall-time accounting on each
requested GPU-pool size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.engine import PredictionEngine
from repro.lineage.commons import DataCommons
from repro.lineage.records import RunRecord
from repro.lineage.tracker import LineageTracker
from repro.nas.evalcache import MemoizingStream
from repro.nas.evaluation import TrainingEvaluator
from repro.nas.search import InlineStream, NSGANet, SearchResult
from repro.nas.surrogate import BudgetAllocator, SurrogateEvaluator
from repro.scheduler.faults import FaultInjectingEvaluator, FaultTolerantEvaluator
from repro.scheduler.pool import FifoWorkerPool
from repro.scheduler.procpool import ProcessWorkerPool
from repro.scheduler.simulator import WallTimeReport, simulate_walltime
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.resume import individual_from_record
from repro.xfel.dataset import load_or_generate
from repro.xfel.shm import share_dataset

__all__ = ["WorkflowResult", "A4NNOrchestrator", "evaluation_chain"]

_LOG = get_logger("workflow.orchestrator")


def evaluation_chain(config: WorkflowConfig, dataset, checkpoint_dir=None):
    """The evaluator ``config`` asks for, with configured fault injection.

    The one recipe for an evaluation: the orchestrator calls it in
    process, and every process-pool worker calls it once with the
    dataset it attached from shared memory (``dataset`` is ``None`` in
    surrogate mode).  Evaluation RNG derives from ``config.seed`` alone,
    so both sides build the same generators.  ``checkpoint_dir`` is
    where real-mode training saves every epoch's model state.  Fault
    *policy* is the caller's, because the thread path retries in an
    evaluator wrapper and the process pool from its dispatch queue.
    """
    stream = RngStream(config.seed)
    engine = PredictionEngine(config.engine) if config.engine is not None else None
    if config.mode == "real":
        evaluator = TrainingEvaluator(
            dataset,
            engine,
            max_epochs=config.nas.max_epochs,
            rng_stream=stream.child("eval"),
            checkpoint_dir=checkpoint_dir,
            sanitize=config.sanitize,
            sanitize_writes=config.sanitize_writes,
            rng_keying=config.rng_keying,
            dtype=config.dtype,
            dataset_key=config.dataset.cache_key(),
        )
    else:
        evaluator = SurrogateEvaluator(
            config.intensity,
            engine,
            max_epochs=config.nas.max_epochs,
            rng_stream=stream.child("eval"),
            rng_keying=config.rng_keying,
        )
    if config.injecting:
        evaluator = FaultInjectingEvaluator(
            evaluator, config.fault_injection, rng_stream=stream.child("inject")
        )
    return evaluator


@dataclass
class WorkflowResult:
    """Everything one orchestrated run produced.

    Attributes
    ----------
    config:
        The settings the run used.
    search:
        The NAS outcome (archive, survivors, per-generation stats).
    tracker:
        Lineage records for every evaluated model.
    walltime:
        Wall-time report per simulated pool size, keyed by GPU count.
    run_id:
        Commons identifier (set when published).
    """

    config: WorkflowConfig
    search: SearchResult
    tracker: LineageTracker
    walltime: dict = field(default_factory=dict)
    run_id: str = ""

    @property
    def total_epochs_trained(self) -> int:
        return self.search.total_epochs_trained

    @property
    def total_epochs_saved(self) -> int:
        return self.search.total_epochs_saved

    @property
    def total_epochs_skipped(self) -> int:
        """Epochs the surrogate allocator skipped by reducing budgets."""
        return self.search.total_epochs_skipped

    def epochs_saved_fraction(self) -> float:
        """Fraction of the 25-epoch budget the engine saved.

        The budget covers completed evaluations only (quarantined
        candidates never trained, so their budget was never at stake);
        see :attr:`~repro.nas.search.SearchResult.epoch_budget`.
        """
        budget = self.search.epoch_budget
        return self.total_epochs_saved / budget if budget else 0.0


class A4NNOrchestrator:
    """Build and run the composed workflow from one configuration.

    Parameters
    ----------
    config:
        The user-facing workflow settings (§2.6).
    commons:
        Optional data commons to publish record trails into.
    checkpoint_dir:
        Directory for per-epoch model state (real mode with
        ``config.checkpoint_models``).
    """

    def __init__(
        self,
        config: WorkflowConfig,
        *,
        commons: DataCommons | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        self.config = config
        self.commons = commons
        self.checkpoint_dir = checkpoint_dir
        self.memoizer: MemoizingStream | None = None  # the eval cache, when on
        self.allocator: BudgetAllocator | None = None
        self.pool = None  # WorkerPool under the stream, when one exists
        self.pool_reports: list = []  # PoolReports kept after close_pool()
        self._tracker: LineageTracker | None = None
        self._resumed: dict = {}  # model id -> published record (resume)
        self._base = None  # innermost evaluation backend
        self._dataset = None  # loaded dataset (real mode)

    # -- assembly ---------------------------------------------------------------

    def build_evaluator(self):
        """The evaluation backend for the configured mode.

        :func:`evaluation_chain` builds it; when the config carries a
        :class:`~repro.scheduler.faults.FaultPolicy`, the chain is
        wrapped so evaluation faults retry and then quarantine instead
        of aborting the search (configured fault injection sits *inside*
        the policy, so injected failures are routed like real ones).
        """
        if self.config.mode == "real":
            self._dataset = load_or_generate(self.config.dataset).astype(self.config.dtype)
        evaluator = evaluation_chain(
            self.config,
            self._dataset,
            self.checkpoint_dir if self.config.checkpoint_models else None,
        )
        self._base = evaluator.evaluator if self.config.injecting else evaluator
        if self.config.faults is not None:
            evaluator = FaultTolerantEvaluator(evaluator, self.config.faults)
        # the surrogate pre-ranking allocator scores candidates at breed
        # time against the base evaluator's FLOP counter; its predictor
        # state lives here in the parent only (workers receive budgets
        # via EvalTask)
        self.allocator = None
        if self.config.surrogate is not None:
            self.allocator = BudgetAllocator(
                self.config.surrogate,
                max_epochs=self.config.nas.max_epochs,
                flops_fn=self._base.flops_for,
            )
        return evaluator

    def _on_candidate(self, individual, members) -> None:
        """Breed hook: the surrogate's score, then a restored model's outcome.

        A model resume restores takes its recorded outcome here, after
        the allocator has scored it, so it arrives at the search
        evaluated and never reaches the stream.
        """
        if self.allocator is not None:
            self.allocator.score(individual, members)
        record = self._resumed.get(individual.model_id)
        if record is not None:
            individual_from_record(record, individual)

    def _on_individual(self, individual) -> None:
        """Commit hook: lineage first, then the surrogate refit.

        A restored model keeps its published record as it is; it primes
        the eval cache here, where a live evaluation's outcome is
        published (the stream's ``on_commit`` has just run).  Faulted or
        quarantined records never prime — the same rule as live.  Either
        way the individual's trace has been read, and is let go.
        """
        if individual.model_id not in self._resumed:
            self._tracker.observe_individual(individual)
        elif self.memoizer is not None:
            self.memoizer.prime(individual)
        individual.trace.clear()
        if self.allocator is not None:
            self.allocator.observe(individual)

    def _build_process_pool(self) -> ProcessWorkerPool:
        """The spawned-worker backend: each worker runs :func:`evaluation_chain`.

        The dataset (real mode) is published into shared memory first so
        workers attach zero-copy; the pool owns the arena and unlinks it
        in :meth:`close_pool`.  Requires :meth:`build_evaluator` to have
        run (it loads the dataset).
        """
        if self._base is None:
            raise RuntimeError("build_evaluator must run before the process pool")
        config = self.config
        dataset = arena = None
        if config.mode == "real":
            dataset, arena = share_dataset(self._dataset)
        return ProcessWorkerPool(
            functools.partial(evaluation_chain, config),
            n_workers=config.n_workers,
            dataset=dataset,
            policy=config.faults,
            arena=arena,
        )

    def build_stream(self, evaluator):
        """The :class:`~repro.nas.search.EvalStream` every evaluation goes through.

        ``[MemoizingStream(] inner [)]``: the inner stream runs the
        ``evaluator`` chain — inline for the thread backend at one
        worker (no pool, no report), on a :class:`~repro.scheduler.pool.
        FifoWorkerPool` for more threads, on a
        :class:`~repro.scheduler.procpool.ProcessWorkerPool` for
        processes — and the eval cache, when on, wraps outermost so only
        post-retry, non-quarantined outcomes are cached.  Any pool built
        here is kept on ``self.pool`` so :meth:`close_pool` can release
        it and keep its reports.
        """
        config = self.config
        if config.backend == "process":
            self.pool = self._build_process_pool()
        elif config.n_workers > 1:
            self.pool = FifoWorkerPool(evaluator, n_workers=config.n_workers)
        inner = self.pool if self.pool is not None else InlineStream(evaluator)
        self.memoizer = None
        if config.caches_evaluations:
            # barrier lineage is pinned with in-generation duplicates
            # waiting for their leader, steady lineage with in-window
            # duplicates re-evaluating (DESIGN §11)
            self.memoizer = MemoizingStream(
                self._base, inner, wait_for_leader=config.nas.evolution == "barrier"
            )
        return self.memoizer if self.memoizer is not None else inner

    def effective_nas(self):
        """The NAS settings the run actually uses.

        Steady mode with ``steady_lag=None`` pins the lag to the worker
        count — the largest window the pool can keep busy.  Replays
        resolve the same lag from the stored config (it records the
        original ``n_workers``), so the resolution is reproducible.
        """
        nas = self.config.nas
        if nas.evolution == "steady" and nas.steady_lag is None:
            nas = replace(nas, steady_lag=self.config.n_workers)
        return nas

    def close_pool(self) -> None:
        """Release the stream's worker pool (idempotent; no-op without one).

        For the process backend this stops every worker and unlinks the
        shared-memory dataset, so it must run even when the search
        raises — :meth:`run` calls it from a ``finally`` block.
        """
        if self.pool is not None:
            # close first (it flushes an interrupted stream's report),
            # then keep the reports readable after the run (bench_spine
            # derives its scheduler.* metrics from them)
            self.pool.close()
            self.pool_reports = list(self.pool.reports)
            self.pool = None

    # -- execution ----------------------------------------------------------------

    def new_tracker(self) -> LineageTracker:
        """An empty lineage tracker carrying this run's shared parameters."""
        config = self.config
        return LineageTracker(
            engine_parameters=PredictionEngine(config.engine).describe()
            if config.engine is not None
            else None,
            training_parameters={
                "mode": config.mode,
                "intensity": config.intensity.label,
                "fitness_measurement": "validation_accuracy_percent",
                "max_epochs": config.nas.max_epochs,
            },
        )

    def _search(self, restored=(), run_id: str | None = None) -> WorkflowResult:
        """Search → wall-time accounting → publish.

        ``restored`` (resume) are published records: their models take
        the recorded outcome instead of an evaluation, and the tracker
        starts from their trails, so the republished run is complete.
        """
        config = self.config
        tracker = self._tracker = self.new_tracker()
        self._resumed = {r.model_id: r for r in restored}
        tracker.records.update(self._resumed)
        evaluator = self.build_evaluator()
        nas = self.effective_nas()
        _LOG.info(
            "starting %s run: mode=%s intensity=%s seed=%d",
            "A4NN" if config.engine is not None else "standalone NAS",
            config.mode,
            config.intensity.label,
            config.seed,
        )
        try:
            search = NSGANet(
                nas,
                evaluator,
                rng_stream=RngStream(config.seed).child("search"),
                on_individual=self._on_individual,
                on_candidate=self._on_candidate,
                stream=self.build_stream(evaluator),
            )
            result = search.run()
        finally:
            self.close_pool()

        walltime: dict[int, WallTimeReport] = {
            n: simulate_walltime(result, n) for n in config.n_gpus
        }
        workflow_result = WorkflowResult(
            config=config,
            search=result,
            tracker=tracker,
            walltime=walltime,
            run_id=run_id or config.resolved_run_id(),
        )
        if self.commons is not None:
            self.publish(workflow_result)
        return workflow_result

    def run(self) -> WorkflowResult:
        """Execute search → lineage → wall-time accounting → publish."""
        return self._search()

    def publish(self, result: WorkflowResult) -> None:
        """Push the run's record trails into the data commons."""
        if self.commons is None:
            raise RuntimeError("orchestrator was built without a data commons")
        run = RunRecord(
            run_id=result.run_id,
            intensity=self.config.intensity.label,
            nas_parameters=self.config.nas.to_dict(),
            engine_parameters=self.config.engine.to_dict() if self.config.engine else None,
            notes=f"mode={self.config.mode}, seed={self.config.seed}",
            workflow_config=self.config.to_dict(),
            generation_stats=[
                {
                    "generation": g.generation,
                    "n_evaluated": g.n_evaluated,
                    "best_fitness": g.best_fitness,
                    "mean_fitness": g.mean_fitness,
                    "epochs_trained": g.epochs_trained,
                    "epochs_saved": g.epochs_saved,
                    "epochs_skipped": g.epochs_skipped,
                    "pareto_size": g.pareto_size,
                    "n_quarantined": g.n_quarantined,
                    "n_cache_hits": g.n_cache_hits,
                }
                for g in result.search.generations
            ],
        )
        self.commons.publish_run(run, result.tracker)
        _LOG.info("published run %s to commons", result.run_id)
