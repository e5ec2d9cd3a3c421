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
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Protocol, runtime_checkable

from repro.nas.evaluation import Evaluator, effective_budget, evaluate_many
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
from repro.utils.validation import ValidationError, ensure_positive

__all__ = [
    "NSGANetConfig",
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
    """No pool: evaluates in the caller's thread, settling in submission order.

    Evaluation is lazy: the ``settled`` call that reaches an attempt not
    yet run runs it.  An evaluator with an ``evaluate_many`` gets every
    queued attempt not yet run with it, together (the sampled evaluator
    runs them in lockstep); the stream keeps each one's outcome or
    exception and hands it back at that attempt's turn.  An outcome is a
    pure function of its attempt, so this settles exactly what
    one-at-a-time evaluation would.  Any other evaluator is asked for
    one attempt at a time.

    ``policy`` is an optional :class:`~repro.scheduler.faults.FaultPolicy`.
    Without one, a failed attempt raises from the ``settled`` call that
    reaches it.  With one, the policy routes the failure: a retry goes
    back to the head of the queue, not yet run, and runs at once, as it
    does on :class:`~repro.scheduler.procpool.ProcessWorkerPool`, and a
    quarantined candidate settles.  A policy with a timeout is refused:
    the attempt runs on the caller's thread, which nothing can stop.
    """

    def __init__(self, evaluator: Evaluator, policy=None) -> None:
        if policy is not None and policy.timeout_seconds is not None:
            raise ValidationError(
                "a timeout needs a worker that can be killed: the thread "
                "backend cannot stop an attempt, use backend='process'"
            )
        self._evaluator = evaluator
        self._policy = policy
        # [individual, outcome]: the outcome is _NOT_RUN until its attempt ran
        self._queue: deque[list] = deque()

    def submit(self, individual: Individual) -> None:
        self._queue.append([individual, _NOT_RUN])

    def settled(self) -> Individual:
        if not self._queue:
            raise RuntimeError("no evaluations in flight")
        head = self._queue[0]
        if head[1] is _NOT_RUN:
            waiting = (
                [entry for entry in self._queue if entry[1] is _NOT_RUN]
                if hasattr(self._evaluator, "evaluate_many")
                else [head]
            )
            outcomes = evaluate_many(self._evaluator, [individual for individual, _ in waiting])
            for entry, outcome in zip(waiting, outcomes):
                entry[1] = outcome
        individual, outcome = self._queue.popleft()
        if isinstance(outcome, Exception):
            if self._policy is None:
                raise outcome
            if self._policy.route(individual, individual.eval_attempt, outcome):
                individual.eval_attempt += 1
                self._queue.appendleft([individual, _NOT_RUN])
                return self.settled()
        return individual

    def on_commit(self, individual: Individual) -> None:
        pass

    def finish(self) -> None:
        pass


#: the outcome of a queued attempt that has not run yet
_NOT_RUN = object()


class SteadyState(NamedTuple):
    """What steady-state breeding reads, as of one commit.

    The population and the non-dominated front of the whole archive,
    both in commit order, each beside a list of its ``(f0, f1)`` pairs.
    Never mutated: :func:`steady_insert` builds the next state, so a
    candidate bred at commit ``g - lag`` can pin the one it was bred from.
    """

    members: list
    objectives: list
    front: list
    front_objectives: list


#: the state before the first commit
STEADY_START = SteadyState([], [], [], [])


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
    row = individual.objectives()
    members = state.members + [individual]
    objectives = state.objectives + [row]
    if len(members) > population_size:
        victim = steady_eviction(objectives)
        del members[victim]
        del objectives[victim]
    front, front_objectives = state.front, state.front_objectives
    keep = pareto_front_insert(front_objectives, row)
    if keep is not None:
        front = [m for m, kept in zip(front, keep) if kept] + [individual]
        front_objectives = [r for r, kept in zip(front_objectives, keep) if kept] + [row]
    return SteadyState(members, objectives, front, front_objectives)


@dataclass(frozen=True)
class NSGANetConfig:
    """NSGA-Net settings (paper Table 2 defaults).

    The variation operators take their own defaults: initial genomes
    draw each bit with probability 0.5, and mutation flips each bit with
    probability ``1 / genome_length``.

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
    crossover:
        ``"uniform"`` or ``"point"``.
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
    crossover: str = "uniform"
    evolution: str = "barrier"
    steady_lag: int | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.population_size, "population_size")
        ensure_positive(self.offspring_per_generation, "offspring_per_generation")
        ensure_positive(self.generations, "generations")
        ensure_positive(self.max_epochs, "max_epochs")
        if self.crossover not in _CROSSOVERS:
            raise ValidationError(
                f"crossover must be one of {sorted(_CROSSOVERS)}, got {self.crossover!r}"
            )
        if self.evolution not in _EVOLUTIONS:
            raise ValidationError(
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
        return asdict(self)


@dataclass
class SearchResult:
    """Everything a completed search produced.

    Attributes
    ----------
    archive:
        Every individual ever evaluated, in evaluation order.
    population:
        Final survivor set.
    config:
        The settings used.
    """

    archive: Population
    population: Population
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
        stream: EvalStream | None = None,
    ) -> None:
        self.config = config
        self.evaluator = evaluator
        self.rng_stream = rng_stream or RngStream(0)
        self.on_individual = on_individual
        self.on_candidate = on_candidate
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
        One error re-raises as itself; several raise one
        ``RuntimeError("k of n evaluations failed: ...")`` listing every
        message sorted (the text does not depend on which worker
        finished first), chained from the first error settled.
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
            messages = "; ".join(sorted(map(str, errors)))
            raise RuntimeError(
                f"{len(errors)} of {len(todo)} evaluations failed: {messages}"
            ) from errors[0]
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
                mutated = bitflip_mutation(child, rng)
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
        objectives = state.objectives + [state.front_objectives[i] for i in extra]
        parent_idx = binary_tournament(objectives, rng, n_winners=2)
        a = pool[int(parent_idx[0])].genome
        b = pool[int(parent_idx[1])].genome
        child, _ = _CROSSOVERS[self.config.crossover](a, b, rng)
        mutated = bitflip_mutation(child, rng)
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
        total = config.total_evaluations
        lag = config.steady_lag or 1
        stream = self.stream

        pending: dict[int, Individual] = {}
        state = STEADY_START
        archive = Population([])
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
                # Breed every candidate whose pinned state just became
                # current; pumping after *each* commit keeps the breeding
                # state exactly at commit g - lag.
                while next_submit < total and max(1, next_submit - lag + 1) <= committed:
                    submit(self._breed_steady(next_submit, state))
                    next_submit += 1
        stream.finish()

        return SearchResult(archive=archive, population=Population(state.members), config=config)

    def run(self) -> SearchResult:
        """Execute the search."""
        config = self.config
        if config.evolution == "steady":
            return self._run_steady()
        initial = self._initial_population()
        self._run_generation(initial)
        population = Population(initial)
        archive = Population(list(initial))

        for generation in range(1, config.generations):
            offspring = self._make_offspring(population, generation)
            self._run_generation(offspring)
            archive.extend(offspring)

            combined = Population(population.members + offspring)
            survivors = environmental_selection(
                combined.objective_array(), config.population_size
            )
            population = combined.subset(survivors)

        return SearchResult(archive=archive, population=population, config=config)
