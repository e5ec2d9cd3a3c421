"""NSGA-Net search driver.

Implements the evolutionary loop the paper plugs A4NN into (§3.2):
genomes encode macro-space connectivity; the first generation is random;
offspring come from binary-tournament parent selection, crossover, and
bit-flip mutation; survivors are chosen by NSGA-II environmental
selection on the two objectives (maximize validation accuracy, minimize
FLOPs).

With the paper's Table 2 settings — population 10, 10 offspring per
generation, 10 generations (the initial population counts as generation
1) — a run evaluates exactly ``10 + 9 × 10 = 100`` networks, matching
"each test produces 100 networks in total".

Both evolution modes reach evaluation through one seam,
:class:`EvalStream`: the generational loop submits a whole generation,
drains it and closes the episode before it commits; the steady-state
loop keeps a rolling window in flight and closes once, at the end.

The search knows nothing about resume.  A resumed run is this search
run again from the same seed: a candidate whose outcome is already
recorded arrives from ``on_candidate`` evaluated, skips the stream the
way a surrogate zero-budget skip does, and commits through the same
:meth:`NSGANet._commit` (see :mod:`repro.workflow.resume`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.nas.evaluation import Evaluator, effective_budget
from repro.nas.genome import Genome, random_genome
from repro.nas.nsga2 import (
    binary_tournament,
    environmental_selection,
    pareto_front_insert,
    pareto_front_mask,
    steady_eviction,
)
from repro.nas.operators import bitflip_mutation, point_crossover, uniform_crossover
from repro.nas.population import Individual, Population
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.validation import ensure_positive

__all__ = [
    "NSGANetConfig",
    "GenerationStats",
    "SearchResult",
    "NSGANet",
    "EvalStream",
    "InlineStream",
    "SteadyState",
    "STEADY_START",
    "steady_insert",
]

_LOG = get_logger("nas.search")

_CROSSOVERS = {"uniform": uniform_crossover, "point": point_crossover}

_EVOLUTIONS = ("barrier", "steady")


@runtime_checkable
class EvalStream(Protocol):
    """The one seam between the search and "run these candidates".

    ``submit`` hands a candidate to the backend; ``settled`` blocks for
    the next completed evaluation *in any order* and raises that
    evaluation's error if it failed; ``on_commit`` fires when the search
    folds a result into the population in submission order (the
    deterministic point for cache priming); ``finish`` closes the
    scheduling episode — a pool records one :class:`~repro.scheduler.
    pool.PoolReport` per episode, so barrier evolution gets one per
    generation and steady evolution one per run — after which ``submit``
    opens the next.
    """

    def submit(self, individual: Individual) -> None: ...

    def settled(self) -> Individual: ...

    def on_commit(self, individual: Individual) -> None: ...

    def finish(self) -> None: ...


class InlineStream:
    """No pool: evaluates lazily in the caller's thread, in submission order."""

    def __init__(self, evaluator: Evaluator) -> None:
        self._evaluator = evaluator
        self._queue: deque[Individual] = deque()

    def submit(self, individual: Individual) -> None:
        self._queue.append(individual)

    def settled(self) -> Individual:
        if not self._queue:
            raise RuntimeError("no evaluations in flight")
        individual = self._queue.popleft()
        self._evaluator.evaluate(individual)
        return individual

    def on_commit(self, individual: Individual) -> None:
        pass

    def finish(self) -> None:
        pass


class SteadyState(NamedTuple):
    """What steady-state breeding reads, as of one commit.

    The population and the non-dominated front of the whole archive,
    both in commit order, each beside its ``(n, 2)`` objectives.  Never
    mutated: :func:`steady_insert` builds the next state, so a candidate
    bred at commit ``g - lag`` can pin the one it was bred from.
    """

    members: list
    objectives: np.ndarray
    front: list
    front_objectives: np.ndarray


#: the state before the first commit
STEADY_START = SteadyState([], np.empty((0, 2)), [], np.empty((0, 2)))


def steady_insert(
    state: SteadyState, individual: Individual, population_size: int
) -> SteadyState:
    """Commit one settled individual: the state after it.

    The population takes one in and, once full, puts one out (worst
    rank, least crowded — :func:`~repro.nas.nsga2.steady_eviction`);
    survivor order is insertion order, which keeps the population
    byte-stable.  The front is updated in O(|front|)
    (:func:`~repro.nas.nsga2.pareto_front_insert`) and so always equals,
    members and order, ``pareto_front_mask`` over the archive so far.
    """
    row = np.array([individual.objectives()], dtype=float)
    members = state.members + [individual]
    objectives = np.concatenate((state.objectives, row))
    if len(members) > population_size:
        victim = steady_eviction(objectives)
        del members[victim]
        objectives = np.delete(objectives, victim, axis=0)
    front, front_objectives = state.front, state.front_objectives
    keep = pareto_front_insert(front_objectives, row[0])
    if keep is not None:
        front = [m for m, kept in zip(front, keep) if kept] + [individual]
        front_objectives = np.concatenate((front_objectives[keep], row))
    return SteadyState(members, objectives, front, front_objectives)


@dataclass(frozen=True)
class NSGANetConfig:
    """NSGA-Net settings (paper Table 2 defaults).

    Attributes
    ----------
    population_size:
        Size of the starting population (and of every survivor set).
    nodes_per_phase:
        Nodes in each phase's DAG.
    n_phases:
        Number of phases (NSGA-Net uses 3 in its macro space).
    offspring_per_generation:
        Offspring produced in each generation after the first.
    generations:
        Total generations *including* the initial population.
    max_epochs:
        Per-network training budget.
    mutation_rate:
        Per-bit flip probability; ``None`` means ``1 / genome_length``.
    crossover:
        ``"uniform"`` or ``"point"``.
    initial_density:
        Bernoulli density of initial random genomes.
    evolution:
        ``"barrier"`` (generational, the paper's loop) or ``"steady"``
        (asynchronous steady-state: one-in/one-out selection under a
        deterministic logical clock).
    steady_lag:
        Breeding lag of the steady-state logical clock: offspring ``g``
        is bred from the population state after commit ``g - lag``, so
        up to ``lag`` evaluations are in flight at once.  Determinism
        depends only on ``(seed, steady_lag)`` — two runs with the same
        lag are bit-identical regardless of backend or worker count.
        ``None`` lets the orchestrator pin it to ``n_workers``; a bare
        :class:`NSGANet` falls back to 1 (classic steady state).
    """

    population_size: int = 10
    nodes_per_phase: int = 4
    n_phases: int = 3
    offspring_per_generation: int = 10
    generations: int = 10
    max_epochs: int = 25
    mutation_rate: float | None = None
    crossover: str = "uniform"
    initial_density: float = 0.5
    evolution: str = "barrier"
    steady_lag: int | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.population_size, "population_size")
        ensure_positive(self.offspring_per_generation, "offspring_per_generation")
        ensure_positive(self.generations, "generations")
        ensure_positive(self.max_epochs, "max_epochs")
        if self.crossover not in _CROSSOVERS:
            raise ValueError(
                f"crossover must be one of {sorted(_CROSSOVERS)}, got {self.crossover!r}"
            )
        if self.evolution not in _EVOLUTIONS:
            raise ValueError(
                f"evolution must be one of {_EVOLUTIONS}, got {self.evolution!r}"
            )
        if self.steady_lag is not None:
            ensure_positive(self.steady_lag, "steady_lag")

    @property
    def total_evaluations(self) -> int:
        """Networks evaluated in a full run."""
        return self.population_size + (self.generations - 1) * self.offspring_per_generation

    def to_dict(self) -> dict:
        """Lineage-record form (paper Table 2)."""
        return {
            "population_size": self.population_size,
            "nodes_per_phase": self.nodes_per_phase,
            "n_phases": self.n_phases,
            "offspring_per_generation": self.offspring_per_generation,
            "generations": self.generations,
            "max_epochs": self.max_epochs,
            "mutation_rate": self.mutation_rate,
            "crossover": self.crossover,
            "initial_density": self.initial_density,
            "evolution": self.evolution,
            "steady_lag": self.steady_lag,
        }


@dataclass
class GenerationStats:
    """Aggregates recorded after each generation's evaluation.

    ``epochs_saved`` counts epochs the *engine* saved by terminating
    early inside each evaluation's effective budget; ``epochs_skipped``
    counts epochs the *surrogate* allocator removed by assigning reduced
    budgets before evaluation.  The two never overlap, and both are
    measured against completed evaluations only: a quarantined candidate
    never trained, so it neither consumes nor "saves" budget (counting
    it would overstate the paper's epochs-saved metric).
    """

    generation: int
    n_evaluated: int
    best_fitness: float
    mean_fitness: float
    epochs_trained: int
    epochs_saved: int
    pareto_size: int
    n_quarantined: int = 0
    n_cache_hits: int = 0
    epochs_skipped: int = 0


@dataclass
class SearchResult:
    """Everything a completed search produced.

    Attributes
    ----------
    archive:
        Every individual ever evaluated, in evaluation order.
    population:
        Final survivor set.
    generations:
        Per-generation statistics.
    config:
        The settings used.
    """

    archive: Population
    population: Population
    generations: list = field(default_factory=list)
    config: NSGANetConfig | None = None

    @property
    def total_epochs_trained(self) -> int:
        return sum(m.result.epochs_trained for m in self.archive if m.result)

    @property
    def n_quarantined(self) -> int:
        """Archive members the fault policy gave up on."""
        return sum(1 for m in self.archive if m.quarantined)

    @property
    def epoch_budget(self) -> int:
        """Full training budget over *completed* evaluations.

        Quarantined candidates never trained; excluding them keeps the
        paper's epochs-saved metric honest — it can neither go negative
        nor count budget that was never at stake.  Surrogate-skipped
        candidates (zero/reduced budget) still count: their full budget
        was at stake, the allocator just chose not to spend it.
        """
        completed = sum(1 for m in self.archive if not m.quarantined)
        return (self.config.max_epochs if self.config else 0) * completed

    @property
    def total_epochs_skipped(self) -> int:
        """Epochs the surrogate allocator removed by reducing budgets."""
        max_epochs = self.config.max_epochs if self.config else 0
        return sum(
            max_epochs - effective_budget(m, max_epochs)
            for m in self.archive
            if not m.quarantined
        )

    @property
    def total_epochs_saved(self) -> int:
        """Epochs the engine saved by early termination (never includes
        surrogate-skipped epochs; the three counters partition
        :attr:`epoch_budget` exactly)."""
        return self.epoch_budget - self.total_epochs_skipped - self.total_epochs_trained

    def pareto_individuals(self) -> list[Individual]:
        """Pareto-optimal members of the archive (accuracy ↑, FLOPs ↓)."""
        mask = pareto_front_mask(self.archive.objective_array())
        return [m for m, keep in zip(self.archive.members, mask) if keep]


class NSGANet:
    """The evolutionary search loop.

    Parameters
    ----------
    config:
        Search settings.
    evaluator:
        Real or surrogate evaluation backend; must expose
        ``evaluate(individual)``.
    rng_stream:
        Deterministic stream for initialization and genetic operators.
    on_individual:
        Optional callback after each evaluation (lineage hook).
    on_candidate:
        Optional callback ``on_candidate(individual, members)`` fired
        the moment a candidate is created, before it is submitted for
        evaluation: ``members`` is the (pinned) population state it was
        bred from.  Breeding follows commits in order, so every commit
        before the breed point has already reached ``on_individual``.
        The surrogate budget allocator scores candidates here; because
        the members and the commits seen are pure functions of the
        logical clock, scoring is deterministic across backends.  A
        candidate this hook leaves evaluated (a zero-budget skip, or a
        model resume restores from its record) never reaches the stream.
    on_generation:
        Optional callback with each :class:`GenerationStats`.
    stream:
        Optional :class:`EvalStream` every evaluation goes through (a
        worker pool, the eval cache over one).  Defaults to an
        :class:`InlineStream` over ``evaluator``.
    """

    def __init__(
        self,
        config: NSGANetConfig,
        evaluator: Evaluator,
        *,
        rng_stream: RngStream | None = None,
        on_individual: Callable[[Individual], None] | None = None,
        on_candidate: Callable[[Individual, list], None] | None = None,
        on_generation: Callable[[GenerationStats], None] | None = None,
        stream: EvalStream | None = None,
    ) -> None:
        self.config = config
        self.evaluator = evaluator
        self.rng_stream = rng_stream or RngStream(0)
        self.on_individual = on_individual
        self.on_candidate = on_candidate
        self.on_generation = on_generation
        self.stream = stream if stream is not None else InlineStream(evaluator)
        self._next_model_id = 0

    def _new_individual(self, genome: Genome, generation: int) -> Individual:
        individual = Individual(genome=genome, model_id=self._next_model_id, generation=generation)
        self._next_model_id += 1
        return individual

    def _notify_candidate(self, individual: Individual, members: list[Individual]) -> None:
        if self.on_candidate is not None:
            self.on_candidate(individual, members)

    def _initial_population(self) -> list[Individual]:
        """Generation 0: random genomes, each announced to ``on_candidate``."""
        config = self.config
        init_rng = self.rng_stream.generator("init-population")
        initial = [
            self._new_individual(
                random_genome(
                    init_rng,
                    n_phases=config.n_phases,
                    nodes_per_phase=config.nodes_per_phase,
                    density=config.initial_density,
                ),
                generation=0,
            )
            for _ in range(config.population_size)
        ]
        for individual in initial:
            self._notify_candidate(individual, [])
        return initial

    def _run_generation(self, individuals: list[Individual]) -> None:
        """Barrier mode: submit, drain, close the episode, commit in order.

        Every job settles before any exception propagates — a failure
        in job *i* never prevents jobs *i+1..n* from being evaluated.
        One error re-raises as itself; several raise an
        ``ExceptionGroup``.
        """
        # candidates ``on_candidate`` left evaluated never reach the backend
        todo = [m for m in individuals if not m.evaluated]
        for individual in todo:
            self.stream.submit(individual)
        errors: list[Exception] = []
        for _ in todo:
            try:
                self.stream.settled()
            except Exception as exc:
                _LOG.error("evaluation failed, settling the rest of the generation: %s", exc)
                errors.append(exc)
        self.stream.finish()
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise ExceptionGroup(
                f"{len(errors)} of {len(todo)} evaluations failed", errors
            )
        for individual in individuals:
            self._commit(individual)

    def _commit(self, individual: Individual) -> None:
        """Tell the stream, then lineage, that a result entered the population."""
        if not individual.evaluated:
            raise RuntimeError(
                f"model {individual.model_id} was not evaluated by the stream"
            )
        self.stream.on_commit(individual)
        if self.on_individual is not None:
            self.on_individual(individual)

    def _record_generation(
        self, generation: int, evaluated: list[Individual], population: Population
    ) -> GenerationStats:
        """Aggregate one generation's evaluations, log and announce them."""
        max_epochs = self.config.max_epochs
        fitnesses = [float(m.fitness) for m in evaluated]
        completed = [m.result for m in evaluated if m.result]
        stats = GenerationStats(
            generation=generation,
            n_evaluated=len(evaluated),
            best_fitness=max(fitnesses),
            mean_fitness=float(np.mean(fitnesses)),
            epochs_trained=sum(r.epochs_trained for r in completed),
            # engine savings are measured inside each evaluation's effective
            # (surrogate-reduced) budget; the gap up to the full budget is
            # what the surrogate skipped — the two counters never overlap
            epochs_saved=sum(r.epochs_saved for r in completed),
            pareto_size=int(pareto_front_mask(population.objective_array()).sum()),
            n_quarantined=sum(1 for m in evaluated if m.quarantined),
            n_cache_hits=sum(1 for m in evaluated if m.cache_hit),
            epochs_skipped=sum(
                max_epochs - effective_budget(m, max_epochs)
                for m in evaluated
                if not m.quarantined
            ),
        )
        _LOG.info(
            "generation %d: best %.2f%%, mean %.2f%%, epochs %d/%d, quarantined %d, cache hits %d",
            generation,
            stats.best_fitness,
            stats.mean_fitness,
            stats.epochs_trained,
            stats.epochs_trained + stats.epochs_saved,
            stats.n_quarantined,
            stats.n_cache_hits,
        )
        if self.on_generation is not None:
            self.on_generation(stats)
        return stats

    def _make_offspring(self, population: Population, generation: int) -> list[Individual]:
        rng = self.rng_stream.generator("variation", generation)
        objectives = population.objective_array()
        n = self.config.offspring_per_generation
        parent_idx = binary_tournament(objectives, rng, n_winners=2 * ((n + 1) // 2))
        crossover = _CROSSOVERS[self.config.crossover]

        children: list[Individual] = []
        for pair_start in range(0, len(parent_idx), 2):
            a = population[int(parent_idx[pair_start])].genome
            b = population[int(parent_idx[pair_start + 1])].genome
            child_a, child_b = crossover(a, b, rng)
            for child in (child_a, child_b):
                if len(children) >= n:
                    break
                mutated = bitflip_mutation(child, rng, rate=self.config.mutation_rate)
                offspring = self._new_individual(mutated, generation)
                self._notify_candidate(offspring, population.members)
                children.append(offspring)
        return children

    # -- steady-state mode -------------------------------------------------

    def _breed_steady(self, g: int, state: SteadyState) -> Individual:
        """Breed offspring ``g`` from a pinned logical-clock state.

        The breeding pool is the pinned population plus the archive
        front's members outside it.  The RNG is keyed by the candidate's
        global index, never by wall time or completion order, so
        breeding is reproducible from the clock alone.
        """
        rng = self.rng_stream.generator("steady-variation", g)
        members = state.members
        present = {m.model_id for m in members}
        extra = [i for i, m in enumerate(state.front) if m.model_id not in present]
        pool = members + [state.front[i] for i in extra]
        objectives = np.concatenate((state.objectives, state.front_objectives[extra]))
        parent_idx = binary_tournament(objectives, rng, n_winners=2)
        a = pool[int(parent_idx[0])].genome
        b = pool[int(parent_idx[1])].genome
        child, _ = _CROSSOVERS[self.config.crossover](a, b, rng)
        mutated = bitflip_mutation(child, rng, rate=self.config.mutation_rate)
        generation = 1 + (g - self.config.population_size) // self.config.offspring_per_generation
        individual = self._new_individual(mutated, generation)
        self._notify_candidate(individual, members)
        return individual

    def _run_steady(self) -> SearchResult:
        """Asynchronous steady-state loop under a deterministic logical clock.

        Candidates carry global indices ``g = 0..total_evaluations-1``;
        results may *settle* in any order but *commit* (selection, tick
        assignment, cache priming, lineage) strictly in submission
        order.  Offspring ``g`` is bred the moment commit ``g - lag``
        lands, from exactly that population state — so the whole run is
        a pure function of ``(seed, steady_lag)`` and replays
        bit-identically on any backend.
        """
        config = self.config
        population_size = config.population_size
        per_generation = config.offspring_per_generation
        total = config.total_evaluations
        lag = config.steady_lag or 1
        stream = self.stream

        pending: dict[int, Individual] = {}
        chunk: list[Individual] = []
        state = STEADY_START
        archive = Population([])
        stats: list[GenerationStats] = []
        committed = 0

        def submit(individual: Individual) -> None:
            if individual.evaluated:
                # left evaluated by on_candidate: it never reaches the
                # backend and is ready to commit at its tick
                pending[individual.model_id] = individual
            else:
                stream.submit(individual)

        for individual in self._initial_population():
            submit(individual)
        next_submit = population_size
        while committed < total:
            if committed not in pending:
                # the next tick is in flight (commits land in submission
                # order, so anything not yet pending is on the backend)
                settled = stream.settled()
                pending[settled.model_id] = settled
            while committed in pending:
                individual = pending.pop(committed)
                individual.logical_tick = committed
                self._commit(individual)
                archive.append(individual)
                state = steady_insert(state, individual, population_size)
                committed += 1
                chunk.append(individual)
                # stats come in chunks shaped like barrier generations: the
                # first population_size commits, then every per_generation
                generation, partial = divmod(committed - population_size, per_generation)
                if committed >= population_size and not partial:
                    stats.append(
                        self._record_generation(
                            generation, chunk, Population(state.members)
                        )
                    )
                    chunk = []
                # Breed every candidate whose pinned state just became
                # current; pumping after *each* commit keeps the breeding
                # state exactly at commit g - lag.
                while next_submit < total and max(1, next_submit - lag + 1) <= committed:
                    submit(self._breed_steady(next_submit, state))
                    next_submit += 1
        stream.finish()

        return SearchResult(
            archive=archive,
            population=Population(state.members),
            generations=stats,
            config=config,
        )

    def run(self) -> SearchResult:
        """Execute the search."""
        config = self.config
        if config.evolution == "steady":
            return self._run_steady()
        initial = self._initial_population()
        self._run_generation(initial)
        population = Population(initial)
        archive = Population(list(initial))
        stats = [self._record_generation(0, initial, population)]

        for generation in range(1, config.generations):
            offspring = self._make_offspring(population, generation)
            self._run_generation(offspring)
            archive.extend(offspring)

            combined = Population(population.members + offspring)
            survivors = environmental_selection(
                combined.objective_array(), config.population_size
            )
            population = combined.subset(survivors)
            stats.append(self._record_generation(generation, offspring, population))

        return SearchResult(
            archive=archive,
            population=population,
            generations=stats,
            config=config,
        )
