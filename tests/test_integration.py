"""Cross-module integration tests: the full composed workflow."""

import numpy as np
import pytest

from repro.analysis import compare_runs, mean_fitness, pareto_frontier, termination_histogram
from repro.core.engine import EngineConfig
from repro.experiments.grid import run_grid
from repro.lineage import DataCommons, reproducible
from repro.nas import NSGANetConfig
from repro.scheduler.simulator import simulate_walltime
from repro.workflow import WorkflowConfig, run_workflow
from repro.xfel import BeamIntensity, DatasetConfig


def mini_config(intensity, mode="surrogate", seed=11):
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=4, offspring_per_generation=4, generations=3, max_epochs=12
        ),
        engine=EngineConfig(e_pred=12, tolerance=1.0),
        dataset=DatasetConfig(intensity=intensity, images_per_class=24, image_size=16),
        mode=mode,
        n_gpus=(1, 2, 4),
        seed=seed,
    )


class TestSurrogateWorkflowIntegration:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        """The A4NN run live and published, then the pair from the grid,
        which reads that run back and runs only the standalone baseline."""
        config = mini_config(BeamIntensity.MEDIUM)
        root = tmp_path_factory.mktemp("pair")
        live = run_workflow(config, commons_path=root)
        records = run_grid(DataCommons(root), [config, config.standalone()])
        return live, *records.values()

    def test_engine_saves_epochs_without_hurting_best_fitness(self, pair):
        _, a4nn, standalone = pair
        comparison = compare_runs(a4nn, standalone)
        assert comparison.epochs_saved_percent > 0
        best_a4nn, best_standalone = comparison.best_fitness
        # A4NN's best reported fitness stays within a few points
        assert best_a4nn >= best_standalone - 5.0

    def test_walltime_consistent_with_epochs(self, pair):
        live, a4nn, standalone = pair
        nas = live.config.effective_nas()
        # the published records schedule exactly as the live run did
        assert simulate_walltime(a4nn, nas, 1) == live.walltime[1]
        assert live.walltime[1].total_epochs == live.total_epochs_trained
        assert simulate_walltime(standalone, nas, 1).total_epochs == 12 * 12

    def test_scaling_monotone_in_gpus(self, pair):
        live, a4nn, _ = pair
        nas = live.config.effective_nas()
        walltimes = [simulate_walltime(a4nn, nas, n).wall_seconds for n in (1, 2, 4)]
        assert walltimes[0] > walltimes[1] > walltimes[2]

    def test_lineage_agrees_with_search(self, pair):
        live, a4nn, _ = pair
        records = live.tracker.all_records()
        archive = live.search.archive
        assert len(records) == len(archive)
        for record, member in zip(records, archive):
            assert record.fitness == member.fitness
            assert record.flops == member.flops
            assert len(record.fitness_history) == member.result.epochs_trained
        # and the grid read back what the live run recorded
        assert list(map(reproducible, a4nn)) == list(map(reproducible, records))


class TestCommonsRoundTripIntegration:
    def test_full_cycle_publish_query_analyze(self, tmp_path):
        config = mini_config(BeamIntensity.HIGH)
        result = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        records = commons.load_models(result.run_id)

        # query layer sees exactly what the search produced
        assert len(records) == len(result.search.archive)
        assert mean_fitness(records) == pytest.approx(
            np.mean([m.fitness for m in result.search.archive])
        )

        # analysis layer consumes commons records directly
        frontier = pareto_frontier(records)
        assert frontier
        summary = termination_histogram(records, max_epochs=12)
        assert 0.0 <= summary.percent_terminated <= 100.0

        assert {r.generation for r in records} == {0, 1, 2}

    def test_rerun_same_seed_identical_records(self, tmp_path):
        config = mini_config(BeamIntensity.LOW, seed=3)
        r1 = run_workflow(config, commons_path=tmp_path / "a")
        r2 = run_workflow(config, commons_path=tmp_path / "b")
        m1 = DataCommons(tmp_path / "a").load_models(r1.run_id)
        m2 = DataCommons(tmp_path / "b").load_models(r2.run_id)
        assert len(m1) == len(r1.search.archive)
        assert list(map(reproducible, m1)) == list(map(reproducible, m2))


class TestRealModeIntegration:
    def test_real_training_through_full_stack(self, tmp_path):
        config = mini_config(BeamIntensity.HIGH, mode="real")
        result = run_workflow(config, commons_path=tmp_path)
        # real epoch times are measured seconds
        for member in result.search.archive:
            assert all(0 < s < 60 for s in member.epoch_seconds)
        # something beats chance on the clean dataset
        assert result.search.population.best_fitness() > 50.0
        # lineage has train-loss traces only real mode produces
        record = result.tracker.all_records()[0]
        assert record.epochs[0].train_loss is not None
