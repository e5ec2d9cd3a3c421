"""Surrogate pre-ranking: featurization, predictor, allocator, determinism.

Covers the cross-architecture fitness predictor (DESIGN §14): the
deterministic genome featurization, the online ridge model, the
dominance-aware budget allocator, and the end-to-end guarantees —
``--surrogate off`` byte-identical to the pre-predictor baseline,
surrogate-on runs bit-identical across backends and evolution modes,
and a resumed run ending on the exact predictor state.
"""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import skip_report, training_matrix, true_curves
from repro.core.engine import EngineConfig
from repro.core.fitting import ridge_lstsq
from repro.lineage import DataCommons, reproducible
from repro.lineage.records import ModelRecord
from repro.nas.genome import Genome, PhaseGenome
from repro.nas.population import Individual
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import (
    SKIP_EXPLORE,
    SKIP_PROBE,
    BudgetAllocator,
    FitnessPredictor,
    SurrogateConfig,
    genome_feature_names,
    genome_features,
    phase_depth,
)
from repro.scheduler.faults import FaultPolicy
from repro.scheduler.simulator import simulate_walltime
from repro.utils.validation import ValidationError
from repro.workflow import resume_workflow, run_workflow
from repro.workflow.interfaces import WorkflowConfig

from tests.test_reproducibility import assert_reproduces

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: ModelRecord fields added with the surrogate allocator; absent from the
#: pre-predictor baseline fixture and required to be null in off mode.
PREDICTOR_KEYS = (
    "predicted_fitness",
    "predicted_rank",
    "budget_assigned",
    "skip_reason",
)


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def genome_from_bits(bits, nodes=(2, 2, 2)) -> Genome:
    return Genome.from_bits(bits, nodes)


class TestFeaturization:
    def test_feature_names_match_row_length(self):
        genome = genome_from_bits((1, 0, 0, 1, 1, 1))
        names = genome_feature_names(genome.nodes_per_phase)
        row = genome_features(genome, 1e6)
        assert len(names) == len(row)
        assert names[0] == "bias" and row[0] == 1.0
        assert names[-1] == "log10_flops"

    def test_phase_depth_chain_vs_parallel(self):
        # 3 nodes: connection bits (0,1), (0,2), (1,2) then skip
        chain = PhaseGenome(3, (1, 0, 1, 0))  # 0 -> 1 -> 2
        parallel = PhaseGenome(3, (0, 0, 0, 0))  # no edges: all depth 1
        fan = PhaseGenome(3, (1, 1, 0, 0))  # 0 -> {1, 2}
        assert phase_depth(chain) == 3
        assert phase_depth(parallel) == 1
        assert phase_depth(fan) == 2

    def test_features_are_pure_structure_plus_flops(self):
        genome = genome_from_bits((1, 1, 0, 0, 1, 0))
        row = genome_features(genome, 10**6 - 1)
        # bias, 3 phases x (connections, skip, depth), totals, density, flops
        assert row[1:4] == (1.0, 1.0, 2.0)  # phase 0: edge + skip, depth 2
        assert row[4:7] == (0.0, 0.0, 1.0)  # phase 1 empty
        assert row[7:10] == (1.0, 0.0, 2.0)  # phase 2: edge, no skip
        assert row[10] == 2.0 and row[11] == 1.0  # totals
        assert row[-1] == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# predictor
# ---------------------------------------------------------------------------


class TestFitnessPredictor:
    def test_every_observation_counts(self):
        predictor = FitnessPredictor(ridge=1e-6, sigma_floor=0.0)
        for i in range(6):
            predictor.observe((1.0, float(i)), 2.0 * i + 1.0)
        before = predictor.predict((1.0, 3.0))
        assert before[0] == pytest.approx(7.0)
        # an outlier observed later moves the very next prediction
        predictor.observe((1.0, 50.0), -1000.0)
        assert predictor.n_observations == 7
        assert predictor.predict((1.0, 3.0)) != before

    def test_no_visible_observations_gives_none(self):
        predictor = FitnessPredictor()
        assert predictor.predict((1.0, 2.0)) is None
        predictor.observe((1.0, 2.0), 3.0)
        assert predictor.predict((1.0, 2.0)) is not None

    def test_sigma_floor_and_leverage_inflation(self):
        predictor = FitnessPredictor(ridge=1e-6, sigma_floor=0.25)
        rng = np.random.default_rng(3)
        for i in range(40):
            x = float(rng.uniform(0.0, 1.0))
            predictor.observe((1.0, x), 10.0 + 2.0 * x + rng.normal(0, 0.5))
        _, sigma_in = predictor.predict((1.0, 0.5))
        _, sigma_out = predictor.predict((1.0, 25.0))
        assert sigma_in >= 0.25
        # extrapolated point carries much larger predictive uncertainty
        assert sigma_out > 3.0 * sigma_in

    def test_fingerprint_tracks_observation_log(self):
        a, b = FitnessPredictor(), FitnessPredictor()
        for p in (a, b):
            p.observe((1.0, 2.0), 3.0)
        assert a.fingerprint() == b.fingerprint()
        a.observe((1.0, 4.0), 5.0)
        assert a.fingerprint() != b.fingerprint()


class TestRidgeLeverage:
    def test_leverage_defines_predictive_scale(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.uniform(0, 1, 30)])
        y = 4.0 + 3.0 * x[:, 1]
        fit = ridge_lstsq(x.tolist(), y.tolist(), ridge=1e-9)
        assert fit.predict([1.0, 0.5]) == pytest.approx(5.5, abs=1e-6)
        inside = fit.leverage([1.0, 0.5])
        outside = fit.leverage([1.0, 100.0])
        assert 0.0 < inside < outside


# ---------------------------------------------------------------------------
# allocator
# ---------------------------------------------------------------------------


def flops_of(genome: Genome) -> int:
    return 10_000 + 1_000 * genome.n_connections + 100 * genome.n_skips


def fitness_of(genome: Genome) -> float:
    return 50.0 + 6.0 * genome.n_connections + 3.0 * genome.n_skips


def trained_allocator(settings: SurrogateConfig, n_rows: int) -> BudgetAllocator:
    """Allocator whose predictor saw ``n_rows`` noise-free outcomes."""
    allocator = BudgetAllocator(settings, max_epochs=8, flops_fn=flops_of)
    rng = np.random.default_rng(7)
    for i in range(n_rows):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
        genome = genome_from_bits(bits)
        allocator.predictor.observe(
            genome_features(genome, flops_of(genome)), fitness_of(genome)
        )
    return allocator


def candidate(bits=(0, 0, 0, 0, 0, 0), model_id=99) -> Individual:
    return Individual(genome=genome_from_bits(bits), model_id=model_id, generation=1)


def member(fitness: float, flops: int) -> SimpleNamespace:
    return SimpleNamespace(fitness=fitness, flops=flops, quarantined=False)


class TestSurrogateConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("probe_epochs", -1),
            ("min_records", 0),
            ("explore_every", 0),
            ("band", -0.5),
            ("min_dominators", 0),
            ("ridge", -1e-3),
            ("sigma_floor", -1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValidationError):
            SurrogateConfig(**{field: value})

    def test_roundtrip(self):
        config = SurrogateConfig(probe_epochs=0, band=1.5, explore_every=9)
        document = WorkflowConfig(surrogate=config).to_dict()
        assert WorkflowConfig.from_dict(document).surrogate == config


class TestBudgetAllocator:
    def test_underdetermined_fit_never_scores(self):
        # 14 features for (2, 2, 2) genomes: the gate requires 16 rows
        # even though min_records is far lower
        settings = SurrogateConfig(min_records=1, band=0.0)
        allocator = trained_allocator(settings, n_rows=15)
        individual = candidate()
        allocator.score(individual, [member(99.0, 1.0)])
        assert individual.predicted_fitness is None
        assert individual.budget_assigned is None
        assert allocator.n_scored == 0

    def test_dominated_candidate_probed(self):
        settings = SurrogateConfig(min_records=1, band=0.0, probe_epochs=1)
        allocator = trained_allocator(settings, n_rows=30)
        weak = candidate(bits=(0, 0, 0, 0, 0, 0))  # predicted ~50
        pool = [member(95.0, flops_of(weak.genome) - 1)]
        allocator.score(weak, pool)
        assert weak.predicted_fitness == pytest.approx(50.0, abs=1.0)
        assert weak.skip_reason == SKIP_PROBE
        assert weak.budget_assigned == 1
        assert weak.predicted_rank == 2

    def test_undominated_candidate_keeps_full_budget(self):
        settings = SurrogateConfig(min_records=1, band=0.0)
        allocator = trained_allocator(settings, n_rows=30)
        strong = candidate(bits=(1, 1, 1, 1, 1, 1))  # predicted ~77, top rank
        allocator.score(strong, [member(60.0, 5_000)])
        assert strong.predicted_fitness is not None
        assert strong.predicted_rank == 1
        assert strong.budget_assigned is None and strong.skip_reason is None

    def test_band_widens_the_benefit_of_the_doubt(self):
        # dominator sits 5 points above the prediction: a wide band keeps
        # the candidate optimistic enough to escape the skip
        allocator = trained_allocator(SurrogateConfig(min_records=1, band=100.0), 30)
        weak = candidate()
        allocator.score(weak, [member(55.0, 1.0)])
        assert weak.skip_reason is None and weak.budget_assigned is None

    def test_exploration_floor_grants_full_budget(self):
        settings = SurrogateConfig(min_records=1, band=0.0, explore_every=3)
        allocator = trained_allocator(settings, n_rows=30)
        pool = [member(99.0, 1.0)]
        reasons = []
        for i in range(6):
            loser = candidate(model_id=100 + i)
            allocator.score(loser, pool)
            reasons.append((loser.skip_reason, loser.budget_assigned))
        assert reasons[2] == (SKIP_EXPLORE, None)
        assert reasons[5] == (SKIP_EXPLORE, None)
        assert all(r == (SKIP_PROBE, 1) for i, r in enumerate(reasons) if i not in (2, 5))

    def test_probe_epochs_zero_prefills_outcome(self):
        settings = SurrogateConfig(min_records=1, band=0.0, probe_epochs=0)
        allocator = trained_allocator(settings, n_rows=30)
        skipped = candidate()
        allocator.score(skipped, [member(99.0, 1.0)])
        assert skipped.budget_assigned == 0
        assert skipped.fitness == skipped.predicted_fitness
        assert skipped.flops == flops_of(skipped.genome)
        assert skipped.result is None

    def test_observe_only_learns_clean_full_budget_outcomes(self):
        allocator = BudgetAllocator(
            SurrogateConfig(), max_epochs=8, flops_fn=flops_of
        )
        genome = genome_from_bits((1, 0, 1, 0, 1, 0))
        base = dict(
            genome=genome,
            quarantined=False,
            budget_assigned=None,
            fitness=80.0,
            flops=flops_of(genome),
            result=SimpleNamespace(epochs_trained=8),
        )
        allocator.observe(SimpleNamespace(**base))
        allocator.observe(SimpleNamespace(**{**base, "budget_assigned": 1}))
        allocator.observe(SimpleNamespace(**{**base, "quarantined": True}))
        allocator.observe(SimpleNamespace(**{**base, "result": None}))
        assert allocator.predictor.n_observations == 1


# ---------------------------------------------------------------------------
# end-to-end determinism
# ---------------------------------------------------------------------------


def workflow_config(**kw) -> WorkflowConfig:
    surrogate = kw.pop(
        "surrogate", SurrogateConfig(min_records=6, explore_every=4)
    )
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=4,
            max_epochs=8,
            nodes_per_phase=2,
            evolution=kw.pop("evolution", "barrier"),
            steady_lag=kw.pop("steady_lag", None),
        ),
        engine=EngineConfig(e_pred=8),
        mode="surrogate",
        seed=11,
        run_id=kw.pop("run_id", "surrogate-test"),
        surrogate=surrogate,
        **kw,
    )


def trails(result) -> list[dict]:
    return [reproducible(r) for r in result.tracker.all_records()]


@pytest.fixture(scope="module")
def serial_barrier():
    return run_workflow(workflow_config(backend="thread", n_workers=1))


@pytest.fixture(scope="module")
def serial_steady():
    return run_workflow(
        workflow_config(
            backend="thread", n_workers=1, evolution="steady", steady_lag=3
        )
    )


class TestOffModeBaseline:
    def test_surrogate_off_matches_pr8_fixture_byte_for_byte(self):
        baseline = json.loads(
            (FIXTURES / "lineage_pr8_baseline.json").read_text()
        )
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=4,
                offspring_per_generation=4,
                generations=3,
                max_epochs=8,
                nodes_per_phase=2,
            ),
            engine=EngineConfig(e_pred=8),
            mode="surrogate",
            seed=11,
            run_id="pr8-baseline",
            surrogate=None,
        )
        current = trails(run_workflow(config))
        assert len(current) == len(baseline)
        for trail, pinned in zip(current, baseline):
            for key in PREDICTOR_KEYS:
                assert trail.pop(key) is None
            # the fixture holds what reproducible() leaves out as null
            assert pinned.pop("engine_overhead_seconds") is None
            for epoch in pinned["epochs"]:
                assert epoch.pop("checkpoint") is None
        assert json.dumps(current, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )


class TestCrossBackendDeterminism:
    def test_barrier_backends_bit_identical(self):
        for where in (("thread", 3), ("process", 2)):
            assert_reproduces("barrier-rank-clean", where)

    def test_steady_backends_bit_identical(self):
        for where in (("thread", 3), ("process", 2)):
            assert_reproduces("steady-rank-clean", where)

    def test_policy_timeout_keeps_the_probe_budget(self, serial_barrier):
        # a timed attempt runs on a worker that receives the allocator's
        # budget with its task, so a timeout that never fires changes nothing
        patient = FaultPolicy(timeout_seconds=60.0)
        timed = run_workflow(
            workflow_config(backend="process", n_workers=2, faults=patient)
        )
        assert trails(timed) == trails(serial_barrier)

    @pytest.mark.parametrize("fixture", ["serial_barrier", "serial_steady"])
    def test_epoch_accounting_partition(self, fixture, request):
        result = request.getfixturevalue(fixture)
        search = result.search
        assert search.epoch_budget == (
            result.total_epochs_trained
            + search.total_epochs_saved
            + result.total_epochs_skipped
        )
        assert result.total_epochs_skipped > 0
        assert search.total_epochs_saved >= 0

    def test_skip_decisions_auditable_from_lineage_alone(self, serial_barrier):
        for trail in trails(serial_barrier):
            if trail["budget_assigned"] is not None:
                assert trail["skip_reason"] == SKIP_PROBE
                assert trail["predicted_fitness"] is not None
                assert trail["predicted_rank"] >= 1
                assert trail["epochs_trained"] <= trail["budget_assigned"]
            if trail["skip_reason"] == SKIP_EXPLORE:
                assert trail["budget_assigned"] is None


class TestSavingsNeverMoveTheFront:
    """Aim 3's contract: the surrogate tier trains fewer epochs, same front.

    A seeded sampled-curve search, so every count is pinned exactly; a
    skip rule that takes budget from an undominated candidate moves them.
    """

    def test_surrogate_on_keeps_the_off_front_with_a_third_fewer_epochs(self, tmp_path):
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=8,
                offspring_per_generation=8,
                generations=10,
                max_epochs=16,
                nodes_per_phase=2,
            ),
            engine=EngineConfig(e_pred=16),
            mode="surrogate",
            seed=21,
            n_gpus=(1,),
        )
        off = run_workflow(config)
        on = run_workflow(
            replace(config, surrogate=SurrogateConfig(band=1.0, explore_every=8)),
            commons_path=tmp_path,
        )

        def front(result) -> set:
            # as objective points: how many copies of a duplicate genome
            # survive is not part of the front
            return {(m.fitness, m.flops) for m in result.search.pareto_individuals()}

        assert front(on) == front(off)
        assert (
            on.search.population.best_fitness() == off.search.population.best_fitness()
        )
        for result, trained, saved, skipped in ((off, 1015, 265, 0), (on, 696, 209, 375)):
            assert result.search.epoch_budget == 1280 == trained + saved + skipped
            assert result.total_epochs_trained == trained
            assert result.search.total_epochs_saved == saved
            assert result.total_epochs_skipped == skipped
        records = on.tracker.all_records()
        skips = skip_report(records)
        assert (skips.n_scored, skips.n_flagged, skips.n_true_losers) == (64, 28, 55)
        assert skips.basis == "estimate" and skips.precision == 1.0
        assert skips.recall == 28 / 55
        # judged by the true curves, 3 of the 28 flags took budget from a
        # candidate no record dominates
        truth = true_curves(records, DataCommons(tmp_path).load_run(on.run_id))
        honest = skip_report(records, truth=truth)
        assert (honest.basis, honest.n_scored, honest.n_true_losers) == ("true", 64, 53)
        assert honest.precision == 25 / 28 and honest.recall == 25 / 53
        assert honest.n_mae == 64


class TestResume:
    @pytest.mark.parametrize(
        "evolution,lag,cut",
        # scoring starts at model 18 (generation 3): the last two cuts
        # restore scored and probed models, whose decisions are recomputed
        [("barrier", None, 2), ("steady", 3, 10), ("barrier", None, 4), ("steady", 3, 21)],
    )
    def test_resume_rebuilds_identical_trails(
        self, tmp_path, monkeypatch, evolution, lag, cut
    ):
        allocators = []
        construct = BudgetAllocator.__init__

        def keep(allocator, *args, **kwargs):
            construct(allocator, *args, **kwargs)
            allocators.append(allocator)

        monkeypatch.setattr(BudgetAllocator, "__init__", keep)
        config = workflow_config(
            evolution=evolution, steady_lag=lag, run_id=f"resume-{evolution}"
        )
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        models = tmp_path / "runs" / full.run_id / "models"
        for record in commons.load_models(full.run_id):
            if (record.generation if evolution == "barrier" else record.model_id) >= cut:
                (models / f"model_{record.model_id:05d}.json").unlink()
        resumed = resume_workflow(commons, full.run_id)
        assert trails(resumed) == trails(full)
        # restored models are scored and observed like live ones, so the
        # resumed predictor ends on the live run's exact observation log
        live, again = allocators
        assert again.predictor.fingerprint() == live.predictor.fingerprint()
        assert (again.n_scored, again.n_losers) == (live.n_scored, live.n_losers)


class TestAnalysisQueries:
    def test_training_matrix_matches_live_featurization(self, serial_barrier, tmp_path):
        records = serial_barrier.tracker.all_records()
        matrix = training_matrix(records)
        assert matrix.features.shape[0] == len(matrix.model_ids) > 0
        assert len(matrix.feature_names) == matrix.features.shape[1]
        by_id = {r.model_id: r for r in records}
        for model_id, row in zip(matrix.model_ids, matrix.features):
            record = by_id[int(model_id)]
            expected = genome_features(Genome.from_dict(record.genome), record.flops)
            assert np.allclose(row, expected)
            assert record.budget_assigned is None and not record.quarantined

    def test_skip_report_counts_consistent(self, serial_barrier):
        report = skip_report(serial_barrier.tracker.all_records())
        assert report.n_scored >= report.n_flagged >= report.n_probed > 0
        if report.precision is not None:
            assert 0.0 <= report.precision <= 1.0
        if report.recall is not None:
            assert 0.0 <= report.recall <= 1.0
        assert report.mae is not None and report.mae >= 0.0


def test_the_estimate_confirms_a_flag_the_true_curve_refutes():
    # a probe is judged by the prediction that flagged it, so the estimate
    # cannot see that its full curve would have ended undominated
    genome = {"nodes_per_phase": [2], "bits": [1, 0, 0, 0]}
    reference = ModelRecord(model_id=0, generation=0, genome=genome, fitness=90.0, flops=100)
    probe = ModelRecord(
        model_id=1,
        generation=1,
        genome=genome,
        fitness=50.0,
        flops=200,
        predicted_fitness=80.0,
        budget_assigned=1,
        skip_reason="predicted_loser",
    )
    crashed = ModelRecord(
        model_id=2,
        generation=1,
        genome=genome,
        fitness=0.0,
        flops=300,
        predicted_fitness=70.0,
        skip_reason="predicted_loser",
        quarantined=True,
    )
    records = [reference, probe, crashed]
    estimate = skip_report(records)
    assert (estimate.basis, estimate.n_scored, estimate.n_flagged) == ("estimate", 1, 1)
    assert (estimate.precision, estimate.n_true_losers, estimate.recall) == (1.0, 1, 1.0)
    # the probe never measured a full budget, and the quarantine is left out
    assert (estimate.mae, estimate.n_mae) == (None, 0)
    # true_curves draws no curve for a quarantined record
    truth = {0: np.array([60.0, 90.0]), 1: np.array([50.0, 95.0])}
    honest = skip_report(records, truth=truth)
    assert (honest.basis, honest.n_scored, honest.n_flagged) == ("true", 1, 1)
    assert (honest.precision, honest.n_true_losers, honest.recall) == (0.0, 0, None)
    assert (honest.mae, honest.n_mae) == (15.0, 1)


def test_the_estimate_leaves_a_quarantined_record_out():
    # a quarantined record never trained: its 0.0 is no full-budget
    # measurement, so it is neither a true loser nor a prediction error
    genome = {"nodes_per_phase": [2], "bits": [1, 0, 0, 0]}
    reference = ModelRecord(model_id=0, generation=0, genome=genome, fitness=90.0, flops=100)
    scored = ModelRecord(
        model_id=1, generation=1, genome=genome, fitness=88.0, flops=50, predicted_fitness=85.0
    )
    crashed = ModelRecord(
        model_id=2,
        generation=1,
        genome=genome,
        fitness=0.0,
        flops=300,
        predicted_fitness=70.0,
        skip_reason="predicted_loser",
        quarantined=True,
    )
    report = skip_report([reference, scored, crashed])
    assert (report.n_scored, report.n_flagged, report.n_true_losers) == (1, 0, 0)
    assert (report.precision, report.recall) == (None, None)
    assert (report.mae, report.n_mae) == (3.0, 1)


class TestZeroBudgetPath:
    def test_probe_epochs_zero_bypasses_training_and_simulator(self):
        config = workflow_config(
            surrogate=SurrogateConfig(min_records=6, explore_every=4, probe_epochs=0),
            run_id="zero-budget",
        )
        result = run_workflow(config)
        skipped = [
            m for m in result.search.archive if m.budget_assigned == 0
        ]
        assert skipped, "expected at least one zero-budget skip"
        for individual in skipped:
            assert individual.result is None
            assert individual.fitness == individual.predicted_fitness
            assert not individual.epoch_seconds
        # zero-budget members never occupied a worker: the wall-time
        # simulation must exclude them rather than crash
        report = simulate_walltime(result.tracker.all_records(), config.nas, 2)
        assert report.total_epochs == result.total_epochs_trained
