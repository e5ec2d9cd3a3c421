"""Tests for the resource manager: cost model, FIFO scheduling, wall time."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.lineage import EpochRecord, LineageTracker, ModelRecord
from repro.nas import NSGANet, NSGANetConfig, SurrogateEvaluator
from repro.scheduler import EpochCostModel, FaultPolicy, fifo_schedule, simulate_walltime
from repro.utils.rng import RngStream
from repro.workflow import A4NNOrchestrator, WorkflowConfig
from repro.xfel import BeamIntensity


class TestCostModel:
    def test_mean_linear_in_flops(self):
        model = EpochCostModel(jitter=0.0)
        t1 = model.mean_epoch_seconds(1e6)
        t2 = model.mean_epoch_seconds(2e6)
        assert t2 - t1 == pytest.approx(model.seconds_per_flop_image * 1e6 * model.n_images)

    def test_fixed_floor(self):
        model = EpochCostModel(jitter=0.0)
        assert model.mean_epoch_seconds(0) == model.fixed_seconds

    def test_jitter_zero_deterministic(self, rng):
        model = EpochCostModel(jitter=0.0)
        draws = model.sample_epoch_seconds(1e6, rng, size=5)
        assert np.all(draws == model.mean_epoch_seconds(1e6))

    def test_jitter_positive_varies_but_positive(self, rng):
        model = EpochCostModel(jitter=0.2)
        draws = model.sample_epoch_seconds(1e6, rng, size=100)
        assert np.std(draws) > 0
        assert np.all(draws > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochCostModel(fixed_seconds=-1)
        with pytest.raises(ValueError):
            EpochCostModel(n_images=0)


def schedule(generations, n_gpus):
    """FIFO behind the generation barrier: each job waits for every earlier generation."""
    seconds, waits = [], []
    for generation in generations:
        waits += [len(seconds)] * len(generation)
        seconds += generation
    return fifo_schedule(seconds, n_gpus, waits)


class TestFifoScheduling:
    def test_single_gpu_serializes(self):
        placements, makespan, busy = schedule([[5.0] * 4], 1)
        assert makespan == pytest.approx(20.0)
        assert busy / makespan == pytest.approx(1.0)
        starts = [start for _, start, _ in placements]
        assert starts == [0.0, 5.0, 10.0, 15.0]

    def test_fifo_order_on_multiple_gpus(self):
        # durations 10, 1, 1, 1 on 2 gpus: jobs 1-3 chain on gpu 1
        placements, makespan, _ = schedule([[10.0, 1.0, 1.0, 1.0]], 2)
        assert [worker for worker, _, _ in placements] == [0, 1, 1, 1]
        assert makespan == pytest.approx(10.0)

    def test_generation_barrier_creates_idle(self):
        # gen 1: one long + one short job on 2 gpus; gen 2 cannot start early
        placements, makespan, busy = schedule([[10.0, 2.0], [1.0, 1.0]], 2)
        assert placements[2][1] == pytest.approx(10.0)
        assert placements[3][1] == pytest.approx(10.0)
        assert makespan * 2 - busy == pytest.approx(8.0 + 0.0)
        generation_ends = [max(p[2] for p in placements[:2]), max(p[2] for p in placements[2:])]
        assert generation_ends == [pytest.approx(10.0), pytest.approx(11.0)]

    def test_work_conservation(self, rng):
        generations = [[float(sum(rng.uniform(1, 5, 3))) for _ in range(7)] for _ in range(3)]
        total_work = sum(sum(gen) for gen in generations)
        for n_gpus in (1, 2, 4):
            _, makespan, busy = schedule(generations, n_gpus)
            assert busy == pytest.approx(total_work)
            assert makespan >= total_work / n_gpus - 1e-9
            assert makespan <= total_work + 1e-9

    def test_more_gpus_never_slower(self, rng):
        generations = [[float(sum(rng.uniform(1, 10, 5))) for _ in range(10)]]
        makespans = [schedule(generations, n)[1] for n in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_job_validation(self):
        with pytest.raises(ValueError):
            fifo_schedule([-1.0], 1, [0])
        with pytest.raises(ValueError):
            fifo_schedule([1.0], 0, [0])


class TestWallTimeSimulation:
    NAS = NSGANetConfig(
        population_size=4, offspring_per_generation=4, generations=3, max_epochs=10
    )

    @pytest.fixture(scope="class")
    def searched(self):
        """A search and the record trails its lineage tracker kept."""
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(EngineConfig(e_pred=10)),
            max_epochs=10,
            rng_stream=RngStream(0),
        )
        tracker = LineageTracker()
        result = NSGANet(
            self.NAS, evaluator, rng_stream=RngStream(0), on_individual=tracker.observe_individual
        ).run()
        return result, tracker.all_records()

    def test_jobs_grouped_by_generation(self, searched):
        # four GPUs, four jobs a generation: each generation runs side by
        # side and starts when the slowest job of the one before finishes
        search_result, records = searched
        report = simulate_walltime(records, self.NAS, 4)
        generation = {m.model_id: m.generation for m in search_result.archive}
        starts: dict = {}
        for model_id, _, start, _ in report.placements:
            starts.setdefault(generation[model_id], set()).add(start)
        assert sorted(starts) == [0, 1, 2]
        assert all(len(s) == 1 for s in starts.values())
        seconds = [sum(m.epoch_seconds) for m in search_result.archive]
        slowest = [max(seconds[4 * g : 4 * g + 4]) for g in range(3)]
        expected = [0.0, slowest[0], sum(slowest[:2])]
        assert [starts[g].pop() for g in range(3)] == pytest.approx(expected)
        assert report.wall_seconds == pytest.approx(sum(slowest))

    def test_four_gpus_faster_than_one(self, searched):
        _, records = searched
        w1 = simulate_walltime(records, self.NAS, 1)
        w4 = simulate_walltime(records, self.NAS, 4)
        assert w4.wall_seconds < w1.wall_seconds
        speedup = w1.wall_seconds / w4.wall_seconds
        assert 2.0 < speedup <= 4.0

    def test_single_gpu_fully_utilized(self, searched):
        w1 = simulate_walltime(searched[1], self.NAS, 1)
        assert w1.utilization == pytest.approx(1.0)
        assert w1.idle_seconds == pytest.approx(0.0, abs=1e-6)

    def test_engine_overhead_stays_out_of_simulated_time(self, searched):
        # the engine's in-situ seconds are measured wall time: one pool is
        # busy for exactly the recorded epochs, whatever the engine took
        search_result, records = searched
        assert all(m.result.engine_overhead_seconds > 0 for m in search_result.archive)
        report = simulate_walltime(records, self.NAS, 1)
        assert report.wall_seconds == sum(sum(m.epoch_seconds) for m in search_result.archive)

    def test_only_the_committed_attempt_holds_a_worker(self):
        # a real-mode trail holds the epochs of its failed attempts first
        failed = [EpochRecord(e, 10.0, epoch_seconds=100.0) for e in (1, 2, 3)]
        committed = [EpochRecord(e, 50.0, epoch_seconds=float(e)) for e in (1, 2)]
        retried = ModelRecord(0, 0, {}, epochs=failed + committed, epochs_trained=2)
        quarantined = ModelRecord(1, 0, {}, epochs=failed, quarantined=True)
        skipped = ModelRecord(2, 0, {}, budget_assigned=0)
        report = simulate_walltime([retried, quarantined, skipped], self.NAS, 2)
        assert report.placements == ((0, 0, 0.0, 3.0),)
        assert (report.busy_seconds, report.total_epochs) == (3.0, 2)

    def test_a_sampled_attempt_that_failed_after_training_holds_no_worker(self, monkeypatch):
        # the failed attempt's epochs lead the trail without seconds; the
        # committed attempt's cost-model seconds fill the epochs after them
        evaluate_many = SurrogateEvaluator.evaluate_many

        def crash_after_training(self, individuals):
            outcomes = evaluate_many(self, individuals)
            return [
                RuntimeError("crashed after training")
                if (individual.model_id, individual.eval_attempt) == (1, 0)
                else outcome
                for individual, outcome in zip(individuals, outcomes)
            ]

        monkeypatch.setattr(SurrogateEvaluator, "evaluate_many", crash_after_training)
        config = WorkflowConfig(
            nas=self.NAS, engine=EngineConfig(e_pred=10), faults=FaultPolicy(max_retries=1)
        )
        result = A4NNOrchestrator(config).run()
        records = result.tracker.all_records()
        retried = records[1].epochs.column("epoch_seconds")
        failed = len(retried) - records[1].epochs_trained
        assert failed > 0 and retried[:failed] == [None] * failed
        assert retried[failed:] == list(result.search.archive[1].epoch_seconds)
        report = simulate_walltime(records, self.NAS, 1)
        assert report.busy_seconds == sum(sum(m.epoch_seconds) for m in result.search.archive)

    def test_total_epochs_match_search(self, searched):
        search_result, records = searched
        report = simulate_walltime(records, self.NAS, 2)
        assert report.total_epochs == search_result.total_epochs_trained
