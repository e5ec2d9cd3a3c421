"""Edge-case tests for paired-run comparison analytics."""

import pytest

from repro.analysis import compare_runs
from repro.lineage.records import ModelRecord
from repro.nas import random_genome


def record(model_id, fitness, flops, rng, generation=0, epochs=25):
    return ModelRecord(
        model_id=model_id,
        generation=generation,
        genome=random_genome(rng).to_dict(),
        fitness=fitness,
        flops=flops,
        epochs_trained=epochs,
        max_epochs=25,
    )


class TestCompareEdges:
    def test_identical_runs_are_neutral(self, rng):
        a = [record(i, 90.0 + i, 100 * (i + 1), rng) for i in range(5)]
        b = [record(10 + i, 90.0 + i, 100 * (i + 1), rng) for i in range(5)]
        comparison = compare_runs(a, b)
        assert comparison.epochs_saved_percent == 0.0
        assert comparison.best_fitness == (94.0, 94.0)

    def test_unevaluated_records_are_counted_but_never_score(self, rng):
        a = [record(0, 95.0, 100, rng), record(1, None, None, rng)]
        b = [record(2, 90.0, 100, rng)]
        comparison = compare_runs(a, b)
        assert comparison.n_models == (2, 1)
        assert comparison.best_fitness == (95.0, 90.0)
        with pytest.raises(ValueError, match="evaluated record"):
            compare_runs([record(3, None, None, rng)], b)

    def test_negative_savings_when_a_trains_more(self, rng):
        a = [record(0, 95.0, 100, rng, epochs=25)]
        b = [record(1, 90.0, 100, rng, epochs=10)]
        comparison = compare_runs(a, b)
        assert comparison.epochs_saved_percent < 0
