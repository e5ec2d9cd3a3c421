"""Tests for the resource manager: cost model, FIFO scheduling, wall time, pool."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, PredictionEngine
from repro.nas import NSGANet, NSGANetConfig, SurrogateEvaluator
from repro.scheduler import EpochCostModel, FifoWorkerPool, fifo_schedule, simulate_walltime
from repro.utils.rng import RngStream
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
    @pytest.fixture(scope="class")
    def search_result(self):
        config = NSGANetConfig(
            population_size=4, offspring_per_generation=4, generations=3, max_epochs=10
        )
        evaluator = SurrogateEvaluator(
            BeamIntensity.MEDIUM,
            PredictionEngine(EngineConfig(e_pred=10)),
            max_epochs=10,
            rng_stream=RngStream(0),
        )
        return NSGANet(config, evaluator, rng_stream=RngStream(0)).run()

    def test_jobs_grouped_by_generation(self, search_result):
        # four GPUs, four jobs a generation: each generation runs side by
        # side and starts when the slowest job of the one before finishes
        report = simulate_walltime(search_result, 4, include_engine_overhead=False)
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

    def test_four_gpus_faster_than_one(self, search_result):
        w1 = simulate_walltime(search_result, 1)
        w4 = simulate_walltime(search_result, 4)
        assert w4.wall_seconds < w1.wall_seconds
        speedup = w1.wall_seconds / w4.wall_seconds
        assert 2.0 < speedup <= 4.0

    def test_single_gpu_fully_utilized(self, search_result):
        w1 = simulate_walltime(search_result, 1)
        assert w1.utilization == pytest.approx(1.0)
        assert w1.idle_seconds == pytest.approx(0.0, abs=1e-6)

    def test_overhead_included_when_requested(self, search_result):
        with_overhead = simulate_walltime(search_result, 1, include_engine_overhead=True)
        without = simulate_walltime(search_result, 1, include_engine_overhead=False)
        assert with_overhead.wall_seconds >= without.wall_seconds
        assert with_overhead.engine_overhead_seconds > 0
        assert without.engine_overhead_seconds == 0.0

    def test_total_epochs_match_search(self, search_result):
        report = simulate_walltime(search_result, 2)
        assert report.total_epochs == search_result.total_epochs_trained


class TestFifoWorkerPool:
    class SleepEvaluator:
        max_epochs = 1

        def evaluate(self, individual):
            individual.fitness = 50.0
            individual.flops = 1
            return individual

    def test_serial_and_parallel_complete_all(self, rng):
        from repro.nas import Individual, random_genome

        for workers in (1, 3):
            pool = FifoWorkerPool(self.SleepEvaluator(), n_workers=workers)
            individuals = [
                Individual(random_genome(rng), i, 0) for i in range(7)
            ]
            for individual in individuals:
                pool.submit(individual)
            settled = [pool.settled() for _ in individuals]
            assert sorted(ind.model_id for ind in settled) == list(range(7))
            assert all(ind.fitness == 50.0 for ind in individuals)
            assert pool.finish().n_jobs == 7
            assert pool.total_wall_seconds > 0

    def test_exceptions_propagate(self, rng):
        from repro.nas import Individual, random_genome

        class FailingEvaluator:
            max_epochs = 1

            def evaluate(self, individual):
                raise RuntimeError("boom")

        pool = FifoWorkerPool(FailingEvaluator(), n_workers=2)
        pool.submit(Individual(random_genome(rng), 0, 0))
        with pytest.raises(RuntimeError, match="boom"):
            pool.settled()
        pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            FifoWorkerPool(self.SleepEvaluator(), n_workers=0)
