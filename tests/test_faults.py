"""Fault-tolerant evaluation: policy, pool semantics, injection, e2e.

Covers the ISSUE-2 acceptance criteria: a seeded end-to-end search with
faults injected into >=20% of evaluations (crash, hang, and NaN modes)
completes all generations and quarantines the faulty candidates with
penalized fitness recorded in lineage.  That a fault-injected run
publishes the same trails on every backend and after a resume is
``test_reproducibility.py``'s.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.plugin import TrainingResult
from repro.lineage import reproducible
from repro.nas import Individual, random_genome
from repro.nas.evalcache import MemoizingStream
from repro.nas.evaluation import outcome_of
from repro.nas.nsga2 import environmental_selection, pareto_front_mask
from repro.nas.population import Population
from repro.nas.search import InlineStream, NSGANet, NSGANetConfig
from repro.nas.surrogate import SurrogateEvaluator
from repro.scheduler.faults import (
    QUARANTINE_FITNESS,
    QUARANTINE_FLOPS,
    FaultInjectingEvaluator,
    FaultInjectionConfig,
    FaultPolicy,
    InjectedFault,
)
from repro.tooling.sanitizer import NumericalFault
from repro.utils.rng import RngStream
from repro.utils.validation import ValidationError
from repro.workflow import WorkflowConfig, run_workflow
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig
from repro.xfel.intensity import BeamIntensity


def make_individuals(rng, n, generation=0, first_id=0):
    return [
        Individual(random_genome(rng), first_id + i, generation) for i in range(n)
    ]


def run_generation(stream, individuals):
    """One barrier generation through the seam, driven by the search's own code."""
    NSGANet(NSGANetConfig(), None, stream=stream)._run_generation(individuals)


def thread_stream(evaluator, n_workers, policy=None):
    """The stream the thread backend runs ``evaluator`` on: the search thread's."""
    config = WorkflowConfig(n_workers=n_workers, eval_cache=False, faults=policy)
    return A4NNOrchestrator(config).build_stream(evaluator)


def evaluate_inline(evaluator, policy, individual):
    """Evaluate one candidate through an inline stream routing its faults."""
    stream = InlineStream(evaluator, policy=policy)
    stream.submit(individual)
    return stream.settled()


class Batches:
    """An evaluation chain, recording the attempts of each batch it ran."""

    def __init__(self, inner):
        self.inner = inner
        self.max_epochs = inner.max_epochs
        self.calls = []

    def evaluate(self, individual):
        return outcome_of(self.evaluate_many([individual]))

    def evaluate_many(self, individuals):
        self.calls.append([(m.model_id, m.eval_attempt) for m in individuals])
        return self.inner.evaluate_many(individuals)


class OneAtATime:
    """An evaluation chain the inline stream can only ask for one attempt at a time."""

    def __init__(self, inner):
        self.inner = inner
        self.max_epochs = inner.max_epochs
        self.calls = []

    def evaluate(self, individual):
        self.calls.append([(individual.model_id, individual.eval_attempt)])
        return self.inner.evaluate(individual)


def without_timings(result):
    """``result`` with the engine clock's readings zeroed."""
    return dataclasses.replace(
        result, engine_overhead_seconds=0.0, engine_overhead_mean=0.0, engine_overhead_variance=0.0
    )


class FlakyEvaluator:
    """Fails with ``error`` until attempt ``succeed_at``, then succeeds."""

    max_epochs = 5

    def __init__(self, succeed_at=1, error=None):
        self.succeed_at = succeed_at
        self.error = error or RuntimeError("boom")
        self.calls = []

    def evaluate(self, individual):
        attempt = individual.eval_attempt
        self.calls.append((individual.model_id, attempt))
        if attempt < self.succeed_at:
            raise self.error
        individual.settle(TrainingResult(80.0, 1, False, flops=1000))
        return individual


class TestFaultPolicy:
    def test_defaults_and_roundtrip(self):
        policy = FaultPolicy(max_retries=3, timeout_seconds=2.0)
        assert policy.to_dict() == {"max_retries": 3, "timeout_seconds": 2.0}
        config = WorkflowConfig(faults=policy, backend="process")
        assert WorkflowConfig.from_dict(config.to_dict()).faults == policy

    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValidationError):
            FaultPolicy(timeout_seconds=0.0)

    def test_injection_config_validation(self):
        with pytest.raises(ValidationError):
            FaultInjectionConfig(rate=1.5)
        with pytest.raises(ValidationError):
            FaultInjectionConfig(rate=0.1, modes=("crash", "explode"))
        cfg = FaultInjectionConfig(rate=0.2, modes=("crash",))
        config = WorkflowConfig(faults=FaultPolicy(), fault_injection=cfg)
        assert WorkflowConfig.from_dict(config.to_dict()).fault_injection == cfg


class TestInlineFaultRouting:
    def test_crash_then_succeed_on_retry(self, rng):
        inner = FlakyEvaluator(succeed_at=1)
        [ind] = make_individuals(rng, 1)
        evaluate_inline(inner, FaultPolicy(max_retries=2), ind)
        assert ind.fitness == 80.0 and not ind.quarantined
        # attempt 0 failed, attempt 1 succeeded
        assert inner.calls == [(0, 0), (0, 1)]
        [event] = ind.fault_events
        assert set(event) == {"model_id", "attempt", "kind", "action", "error", "detail"}
        assert (event["kind"], event["action"]) == ("crash", "retry")

    def test_exhausted_retries_quarantine(self, rng):
        inner = FlakyEvaluator(succeed_at=99)
        [ind] = make_individuals(rng, 1)
        evaluate_inline(inner, FaultPolicy(max_retries=2), ind)
        assert ind.quarantined and ind.evaluated
        assert ind.fitness == QUARANTINE_FITNESS == 0.0
        assert ind.flops == QUARANTINE_FLOPS
        assert ind.result is None
        assert [e["action"] for e in ind.fault_events] == [
            "retry",
            "retry",
            "quarantine",
        ]

    def test_retry_runs_before_the_next_candidate(self, rng):
        # a retry goes to the head of the queue, as on the process pool
        inner = FlakyEvaluator(succeed_at=1)
        stream = InlineStream(inner, policy=FaultPolicy(max_retries=1))
        first, second = make_individuals(rng, 2)
        stream.submit(first)
        stream.submit(second)
        assert stream.settled() is first
        assert inner.calls == [(0, 0), (0, 1)]
        assert stream.settled() is second

    def test_lockstep_settles_what_one_at_a_time_settles(self):
        # Injected crashes (seed 163, rate 0.4): the head's first attempt,
        # and both attempts of model 2, whose duplicate model 5 waits on it
        # and is promoted to lead when it is quarantined.
        def stream(chain):
            return MemoizingStream(
                InlineStream(chain, policy=FaultPolicy(max_retries=1)),
                max_epochs=10,
                wait_for_leader=True,
            )

        def settle(make_chain):
            individuals = make_individuals(np.random.default_rng(5), 6)
            individuals[5].genome = individuals[2].genome
            sampled = SurrogateEvaluator(
                BeamIntensity.HIGH, PredictionEngine(EngineConfig(e_pred=10)), max_epochs=10
            )
            chain = make_chain(
                FaultInjectingEvaluator(
                    sampled,
                    FaultInjectionConfig(rate=0.4, modes=("crash",)),
                    rng_stream=RngStream(163).child("inject"),
                )
            )
            inline = stream(chain)
            for individual in individuals:
                inline.submit(individual)
            order = [inline.settled().model_id for _ in individuals]
            return chain.calls, order, [
                (
                    m.eval_attempt,
                    m.fault_events,
                    m.quarantined,
                    m.cache_hit,
                    m.trace,
                    None if m.result is None else repr(without_timings(m.result)),
                )
                for m in individuals
            ]

        batched_calls, *batched = settle(Batches)
        alone_calls, *alone = settle(OneAtATime)
        assert batched == alone
        # a retry and the promoted follower run alone, after the first batch
        assert batched_calls == [
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], [(0, 1)], [(2, 1)], [(5, 0)]
        ]
        assert [call for [call] in alone_calls] == [
            (0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (3, 0), (4, 0), (5, 0)
        ]
        order, outcomes = batched
        assert order == [0, 1, 2, 3, 4, 5]
        attempts, events, quarantined, hits = zip(*(row[:4] for row in outcomes))
        assert attempts == (1, 0, 1, 0, 0, 0)
        assert [e["action"] for e in events[0] + events[2]] == ["retry", "retry", "quarantine"]
        assert quarantined == (False, False, True, False, False, False)
        assert not any(hits)

    def test_timeout_hits_hanging_evaluation(self):
        # a thread cannot be killed, so a timeout is refused wherever an
        # attempt would run on one: the inline stream, and a thread-backend
        # run
        policy = FaultPolicy(max_retries=0, timeout_seconds=0.05)
        with pytest.raises(ValidationError, match="backend='process'"):
            InlineStream(FlakyEvaluator(succeed_at=0), policy=policy)
        with pytest.raises(ValidationError, match="backend='process'"):
            WorkflowConfig(faults=policy)

    def test_numerical_fault_skips_retries(self, rng):
        fault = NumericalFault("nonfinite-loss", "NaN loss", epoch=3)
        inner = FlakyEvaluator(succeed_at=99, error=fault)
        [ind] = make_individuals(rng, 1)
        evaluate_inline(inner, FaultPolicy(max_retries=3), ind)
        assert ind.quarantined
        assert len(inner.calls) == 1  # no retries burned on NaN
        event = ind.fault_events[0]
        assert event["kind"] == "numerical" and event["action"] == "quarantine"
        assert event["detail"]["kind"] == "nonfinite-loss"

    def test_quarantined_dominated_in_selection(self, rng):
        individuals = make_individuals(rng, 4)
        for i, ind in enumerate(individuals[:3]):
            ind.fitness = 60.0 + i
            ind.flops = 10_000 + i
        evaluate_inline(FlakyEvaluator(succeed_at=99), FaultPolicy(max_retries=0), individuals[3])
        population = Population(individuals)
        mask = pareto_front_mask(population.objective_array())
        assert not mask[3]  # quarantined candidate is never pareto-optimal
        survivors = environmental_selection(population.objective_array(), 3)
        assert 3 not in set(int(i) for i in survivors)
        assert QUARANTINE_FLOPS > 10**12


class TestFaultInjection:
    def test_injection_is_deterministic(self, rng):
        config = FaultInjectionConfig(rate=0.5, modes=("crash",), hang_seconds=0.0)

        def outcomes():
            inner = FlakyEvaluator(succeed_at=0)
            injector = FaultInjectingEvaluator(inner, config, RngStream(3))
            results = []
            for ind in make_individuals(rng, 10):
                try:
                    injector.evaluate(ind)
                    results.append("ok")
                except InjectedFault as exc:
                    results.append(exc.mode)
            return results

        first, second = outcomes(), outcomes()
        assert first == second
        assert "crash" in first and "ok" in first

    def test_retry_attempt_redraws_injection(self, rng):
        # rate 1.0 on attempt 0 only: we check the attempt number feeds
        # the draw by observing that different attempts use different
        # streams (a retried attempt can escape a sabotaged first draw
        # only if its decision is independent)
        config = FaultInjectionConfig(rate=0.5, modes=("crash",))
        inner = FlakyEvaluator(succeed_at=0)
        injector = FaultInjectingEvaluator(inner, config, RngStream(3))
        individuals = make_individuals(rng, 10)
        for ind in individuals:
            evaluate_inline(injector, FaultPolicy(max_retries=4), ind)
        assert all(ind.evaluated for ind in individuals)
        # with 4 retries at 50% rate, some candidate must have recovered
        retried = [ind for ind in individuals if ind.fault_events]
        recovered = [ind for ind in retried if not ind.quarantined]
        assert retried and recovered

    def test_nan_mode_raises_numerical_fault(self, rng):
        config = FaultInjectionConfig(rate=1.0, modes=("nan",))
        injector = FaultInjectingEvaluator(
            FlakyEvaluator(succeed_at=0), config, RngStream(0)
        )
        [ind] = make_individuals(rng, 1)
        with pytest.raises(NumericalFault):
            injector.evaluate(ind)


class TestPoolFailureSemantics:
    """Failure settling on the thread backend's stream, at any worker count."""

    class NthFails:
        max_epochs = 1

        def __init__(self, failing_ids):
            self.failing_ids = set(failing_ids)

        def evaluate(self, individual):
            if individual.model_id in self.failing_ids:
                raise RuntimeError(f"boom {individual.model_id}")
            individual.settle(TrainingResult(50.0, 1, False, flops=1))
            return individual

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_generation_settles_before_raising(self, rng, n_workers):
        stream = thread_stream(self.NthFails({0}), n_workers)
        assert isinstance(stream, InlineStream)
        individuals = make_individuals(rng, 5)
        with pytest.raises(RuntimeError, match="boom 0"):
            run_generation(stream, individuals)
        # jobs after the failure still ran — as on the process pool
        assert all(ind.evaluated for ind in individuals[1:])

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_multiple_errors_raise_one_runtime_error(self, rng, n_workers):
        stream = thread_stream(self.NthFails({1, 3}), n_workers)
        individuals = make_individuals(rng, 5)
        with pytest.raises(RuntimeError) as excinfo:
            run_generation(stream, individuals)
        assert str(excinfo.value) == "2 of 5 evaluations failed: boom 1; boom 3"
        assert str(excinfo.value.__cause__) == "boom 1"  # the first settled

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_policy_quarantines_instead_of_raising(self, rng, n_workers):
        stream = thread_stream(self.NthFails({2}), n_workers, FaultPolicy(max_retries=1))
        individuals = make_individuals(rng, 5)
        run_generation(stream, individuals)  # does not raise
        assert individuals[2].quarantined
        assert all(ind.evaluated for ind in individuals)


def faulty_workflow_config(backend="thread", n_workers=1):
    """A small surrogate run with all three injection modes active.

    Only the process backend takes the timeout, which kills the injected
    hangs; on threads a hang runs out and settles as a crash.
    """
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=5,
            offspring_per_generation=5,
            generations=4,
            max_epochs=10,
        ),
        engine=EngineConfig(e_pred=10),
        seed=11,
        backend=backend,
        n_workers=n_workers,
        faults=FaultPolicy(
            max_retries=1, timeout_seconds=0.5 if backend == "process" else None
        ),
        fault_injection=FaultInjectionConfig(
            rate=0.4, modes=("crash", "hang", "nan"), hang_seconds=0.75
        ),
    )


class TestEndToEnd:
    """The ISSUE-2 acceptance run (shared across assertions via fixture)."""

    @pytest.fixture(scope="class")
    def faulty_run(self):
        return run_workflow(faulty_workflow_config(backend="process", n_workers=2))

    def test_search_completes_all_generations(self, faulty_run):
        config = faulty_workflow_config()
        assert len(faulty_run.search.archive) == config.nas.total_evaluations
        generations = {m.generation for m in faulty_run.search.archive}
        assert generations == set(range(config.nas.generations))

    def test_faults_were_actually_injected_and_quarantined(self, faulty_run):
        records = faulty_run.tracker.all_records()
        faulted = [r for r in records if r.fault_events]
        assert len(faulted) >= 0.2 * len(records)  # >=20% of evaluations hit
        kinds = {e["kind"] for r in faulted for e in r.fault_events}
        assert {"crash", "timeout", "numerical"} <= kinds
        quarantined = [r for r in records if r.quarantined]
        assert quarantined
        assert faulty_run.search.n_quarantined == len(quarantined)

    def test_quarantine_recorded_with_penalized_fitness(self, faulty_run):
        for record in faulty_run.tracker.all_records():
            if record.quarantined:
                assert record.fitness == QUARANTINE_FITNESS
                assert record.flops == QUARANTINE_FLOPS
                assert record.fault_events[-1]["action"] == "quarantine"

    def test_epochs_saved_metric_stays_honest(self, faulty_run):
        search = faulty_run.search
        completed = [m for m in search.archive if m.result]
        assert search.epoch_budget == 10 * len(completed)
        assert 0 <= search.total_epochs_saved <= search.epoch_budget
        assert 0.0 <= faulty_run.epochs_saved_fraction() <= 1.0
        assert sum(m.result.epochs_saved for m in completed) == search.total_epochs_saved

    def test_config_roundtrips_through_json(self):
        config = faulty_workflow_config(backend="process", n_workers=2)
        restored = WorkflowConfig.from_dict(config.to_dict())
        assert restored.faults == config.faults
        assert restored.fault_injection == config.fault_injection

    def test_injection_without_policy_rejected(self):
        with pytest.raises(ValidationError, match="fault policy"):
            WorkflowConfig(
                fault_injection=FaultInjectionConfig(rate=0.2),
            )


def timed_out_run(n_workers):
    """Real training on worker processes whose every attempt overruns the
    policy timeout: what the run publishes."""
    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=2, offspring_per_generation=2, generations=1, max_epochs=6
        ),
        engine=EngineConfig(e_pred=6),
        dataset=DatasetConfig(images_per_class=12, image_size=16),
        mode="real",
        n_gpus=(1,),
        seed=3,
        backend="process",
        n_workers=n_workers,
        faults=FaultPolicy(max_retries=1, timeout_seconds=0.02),
    )
    return [reproducible(r) for r in A4NNOrchestrator(config).run().tracker.all_records()]


class TestTimeoutIsolation:
    def test_abandoned_attempts_write_no_lineage(self):
        # a killed attempt's epochs die with its worker; one that reports
        # past the deadline while the parent respawns the other slot is
        # judged on its worker's watch and dropped the same way, so two
        # workers publish what one does
        published = timed_out_run(2)
        assert [(t["quarantined"], t["epochs"]) for t in published] == [(True, [])] * 2
        assert published == timed_out_run(1)


class TestBudgetAudit:
    """ISSUE-2 satellite: the epochs-saved budget vs the archive."""

    def test_archive_counts_every_evaluated_model_without_faults(self):
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=4,
                offspring_per_generation=4,
                generations=3,
                max_epochs=10,
            ),
            engine=EngineConfig(e_pred=10),
            seed=5,
        )
        result = run_workflow(config)
        assert len(result.search.archive) == config.nas.total_evaluations
        assert result.search.epoch_budget == 10 * config.nas.total_evaluations
        assert 0 <= result.search.total_epochs_saved <= result.search.epoch_budget
