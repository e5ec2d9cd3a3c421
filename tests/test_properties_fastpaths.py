"""Equivalence tests for the steady-state fast paths.

Each fast path keeps the expression or the loop it replaced as the
reference, here in the tests: the stacked-broadcast dominance matrix,
the batch Pareto mask over an archive prefix, the list-based
one-in/one-out insert, the decoded network's FLOP count,
``dataclasses.asdict``, the bytes the parent commit published, the
per-call permutation search behind ``PhaseGenome.canonical``, the
predictor's list of rows refitted from scratch, and the JSON-decoded
record a commons used to load.
"""

import collections
import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import ridge_lstsq
from repro.lineage import DataCommons
from repro.lineage.records import EpochRecord, ModelRecord, RunRecord
from repro.nas import genome as genome_module
from repro.nas import surrogate as surrogate_module
from repro.nas.decoder import DecoderConfig, decode_genome, genome_flops
from repro.nas.genome import Genome, PhaseGenome, n_connection_bits
from repro.nas.nsga2 import (
    _dominance,
    fast_non_dominated_sort,
    pareto_front_insert,
    pareto_front_mask,
    steady_eviction,
)
from repro.nas.population import Individual
from repro.nas.search import STEADY_START, NSGANetConfig, steady_insert
from repro.nas.surrogate import FitnessPredictor, SurrogateConfig
from repro.nn.flops import network_flops
from repro.workflow import resume_workflow, run_workflow
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# -- strategies ---------------------------------------------------------------

# a coarse grid, so ties in one objective and exact duplicates are the norm
_levels = st.integers(0, 3).map(float)


@st.composite
def objective_arrays(draw, min_rows=0, max_rows=12, widths=(1, 2, 3)):
    m = draw(st.sampled_from(widths))
    rows = draw(
        st.lists(st.tuples(*[_levels] * m), min_size=min_rows, max_size=max_rows)
    )
    return np.array(rows, dtype=float).reshape(len(rows), m)


@st.composite
def decodable_genomes(draw):
    nodes = draw(st.sampled_from((3, 4)))
    width = (n_connection_bits(nodes) + 1) * 3
    bits = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    return Genome.from_bits(bits, (nodes,) * 3)


def broadcast_dominance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The expression ``_dominance`` replaced: one stacked (n, n, m) compare."""
    less_equal = (a[:, None, :] <= b[None, :, :]).all(axis=2)
    strictly_less = (a[:, None, :] < b[None, :, :]).any(axis=2)
    return less_equal & strictly_less


class TestDominanceKernel:
    @given(objective_arrays())
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_expression(self, arr):
        assert np.array_equal(_dominance(arr, arr), broadcast_dominance(arr, arr))

    @given(objective_arrays(widths=(2,)), objective_arrays(widths=(2,)))
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcast_expression_between_two_sets(self, a, b):
        assert np.array_equal(_dominance(a, b), broadcast_dominance(a, b))

    @given(objective_arrays())
    @settings(max_examples=150, deadline=None)
    def test_front_mask_is_the_first_front(self, arr):
        fronts = fast_non_dominated_sort(arr)
        expected = np.zeros(len(arr), dtype=bool)
        if fronts:
            expected[fronts[0]] = True
        assert np.array_equal(pareto_front_mask(arr), expected)


class TestIncrementalFront:
    @given(objective_arrays(widths=(2, 3)))
    @settings(max_examples=150, deadline=None)
    def test_matches_batch_mask_at_every_prefix(self, arr):
        front: list[int] = []
        for k, point in enumerate(arr):
            keep = pareto_front_insert(arr[front], point)
            if keep is not None:
                front = [i for i, kept in zip(front, keep) if kept] + [k]
            assert front == np.flatnonzero(pareto_front_mask(arr[: k + 1])).tolist()

    @given(
        st.lists(st.tuples(st.integers(50, 53), st.integers(1, 4)), max_size=14),
        st.integers(2, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_steady_states_match_the_batch_replay(self, outcomes, population_size):
        genome = Genome.from_bits([0] * 21, (4, 4, 4))
        archive = [
            Individual(genome, i, 0, fitness=float(fitness), flops=100 * flops)
            for i, (fitness, flops) in enumerate(outcomes)
        ]
        members: list[Individual] = []
        state = STEADY_START
        for k, individual in enumerate(archive):
            state = steady_insert(state, individual, population_size)
            # the list-based insert the state-based one replaced
            members = members + [archive[k]]
            if len(members) > population_size:
                del members[
                    steady_eviction(np.array([m.objectives() for m in members]))
                ]
            seen = archive[: k + 1]
            mask = pareto_front_mask(np.array([m.objectives() for m in seen]))
            assert state.members == members
            assert state.front == [m for m, kept in zip(seen, mask) if kept]
            for held, rows in (
                (state.members, state.objectives),
                (state.front, state.front_objectives),
            ):
                assert rows.tolist() == [list(m.objectives()) for m in held]


class TestGenomeFlops:
    @given(decodable_genomes(), st.booleans(), st.sampled_from((16, 20, 32)))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_decoded_networks_flops(self, genome, canonical, size):
        config = DecoderConfig(input_shape=(1, size, size), n_classes=2)
        network = decode_genome(
            genome, config, rng=np.random.default_rng(0), canonical=canonical
        )
        flops = genome_flops(genome, config, canonical=canonical)
        assert type(flops) is int
        assert flops == network_flops(network)


# -- canonicalisation as a value memo ------------------------------------------------


def permutation_search(phase: PhaseGenome) -> tuple:
    """What ``PhaseGenome.canonical`` ran on every call before the memo."""
    n = phase.n_nodes
    matrix = phase.connection_matrix()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if matrix[i, j]]
    best = phase.bits
    for perm in itertools.permutations(range(n)):
        if any(perm[i] > perm[j] for i, j in edges):
            continue
        relabeled = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            relabeled[perm[i], perm[j]] = True
        bits = tuple(int(relabeled[i, j]) for j in range(1, n) for i in range(j))
        best = min(best, bits + (phase.bits[-1],))
    return best


def relabelings(phase: PhaseGenome):
    """Every phase that is ``phase`` with its nodes renamed, edges still forward."""
    n = phase.n_nodes
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = [pair for pair, bit in zip(pairs, phase.bits) if bit]
    for perm in itertools.permutations(range(n)):
        if all(perm[i] < perm[j] for i, j in edges):
            moved = {(perm[i], perm[j]) for i, j in edges}
            yield PhaseGenome(n, tuple(int(pair in moved) for pair in pairs) + phase.bits[-1:])


@st.composite
def phases(draw, min_nodes=2, max_nodes=5):
    nodes = draw(st.integers(min_nodes, max_nodes))
    width = n_connection_bits(nodes) + 1
    return PhaseGenome(nodes, draw(st.tuples(*[st.integers(0, 1)] * width)))


class TestCanonicalMemo:
    def test_every_four_node_phase_matches_the_search(self):
        genome_module._canonical_bits.cache_clear()
        for bits in itertools.product((0, 1), repeat=7):
            phase = PhaseGenome(4, bits)
            assert phase.canonical().bits == permutation_search(phase)
            assert phase.canonical().bits == permutation_search(phase)  # now a hit
        info = genome_module._canonical_bits.cache_info()
        assert (info.misses, info.hits) == (128, 128)

    @given(phases())
    @settings(max_examples=200, deadline=None)
    def test_drawn_phases_match_the_search(self, phase):
        canonical = phase.canonical()
        assert canonical.bits == permutation_search(phase)
        assert canonical.canonical() is canonical
        assert (canonical is phase) == (canonical.bits == phase.bits)

    @given(phases())
    @settings(max_examples=100, deadline=None)
    def test_every_relabeling_shares_one_canonical_key(self, phase):
        key = Genome((phase,)).canonical_key()
        assert {Genome((other,)).canonical_key() for other in relabelings(phase)} == {key}

    @given(phases())
    @settings(max_examples=100, deadline=None)
    def test_depth_memo_is_the_longest_chain(self, phase):
        matrix = phase.connection_matrix()
        longest = [1] * phase.n_nodes
        for j in range(phase.n_nodes):
            for i in range(j):
                if matrix[i, j]:
                    longest[j] = max(longest[j], longest[i] + 1)
        assert surrogate_module.phase_depth(phase) == max(longest)
        assert surrogate_module.phase_depth(PhaseGenome(phase.n_nodes, phase.bits)) == max(longest)


# -- the predictor's growing matrix ---------------------------------------------------


class TestPredictorStorage:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=6, deadline=None)
    def test_every_prefix_fit_is_the_list_built_fit(self, seed, width):
        rng = np.random.default_rng(seed)
        predictor = FitnessPredictor(ridge=1e-3)
        rows, targets, capacities = [], [], set()
        for n in range(1, 201):
            # structural counts on a coarse grid plus one real column, like genome_features
            row = (1.0, *map(float, rng.integers(0, 7, width - 1)), float(rng.normal()))
            rows.append(row)
            targets.append(float(rng.uniform(40.0, 100.0)))
            predictor.observe(row, targets[-1])
            capacities.add(len(predictor._y))
            reference = ridge_lstsq(rows[:n], targets[:n], ridge=1e-3)
            fit = predictor._fit()
            assert fit == reference  # frozen dataclass of floats and tuples: bitwise
            if reference is not None:
                assert (fit.theta, fit.rmse, fit.gram_inv) == (
                    reference.theta, reference.rmse, reference.gram_inv
                )
        assert len(capacities) >= 3  # at least two doublings
        assert predictor._x.flags.c_contiguous and predictor._x.dtype == np.float64
        assert predictor.fingerprint() == (200, tuple(targets), tuple(rows))

    def test_the_fit_is_kept_until_the_next_observation(self):
        rng = np.random.default_rng(5)
        predictor = FitnessPredictor()
        rows = [(1.0, float(rng.integers(0, 5)), float(rng.normal())) for _ in range(40)]
        targets = [float(rng.uniform(40.0, 100.0)) for _ in rows]
        for row, target in zip(rows[:20], targets[:20]):
            predictor.observe(row, target)
        first = predictor._fit()
        assert first == ridge_lstsq(rows[:20], targets[:20])
        assert predictor._fit() is first  # no refit between two observations
        predictor.observe(rows[20], targets[20])
        assert predictor._fit() == ridge_lstsq(rows[:21], targets[:21])
        assert predictor._last_fit[0] == 21  # one entry, at the observation count

    def test_a_row_of_another_width_is_refused(self):
        predictor = FitnessPredictor()
        predictor.observe((1.0, 2.0), 3.0)
        with pytest.raises(ValueError, match="2 columns"):
            predictor.observe((1.0, 2.0, 3.0), 3.0)


def steady_config(models: int, run_id: str, surrogate: SurrogateConfig) -> WorkflowConfig:
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=models // 6,
            offspring_per_generation=models // 6,
            generations=6,
            max_epochs=6,
            evolution="steady",
        ),
        engine=None,
        mode="surrogate",
        n_workers=2,
        surrogate=surrogate,
        seed=29,
        run_id=run_id,
    )


class TestComputeOnce:
    def test_a_steady_search_searches_and_fits_each_value_once(self, monkeypatch):
        prefixes = collections.Counter()

        def counting_ridge(features, targets, **kwargs):
            prefixes[len(targets)] += 1
            return ridge_lstsq(features, targets, **kwargs)

        monkeypatch.setattr(surrogate_module, "ridge_lstsq", counting_ridge)
        genome_module._canonical_bits.cache_clear()
        orchestrator = A4NNOrchestrator(steady_config(120, "compute-once", SurrogateConfig()))
        result = orchestrator.run()
        assert len(result.tracker.all_records()) == 120
        searches = genome_module._canonical_bits.cache_info()
        assert 0 < searches.misses <= 128 < searches.hits
        assert prefixes and set(prefixes.values()) == {1}
        predictor = orchestrator.allocator.predictor
        assert predictor._last_fit[0] == max(prefixes)  # the one fit it holds


# -- record serialisation -----------------------------------------------------------


def full_record() -> ModelRecord:
    epochs = [
        dataclasses.asdict(
            EpochRecord(
                epoch=e,
                validation_accuracy=60.0 + e,
                train_accuracy=58.5 + e,
                train_loss=1.0 / e,
                epoch_seconds=0.25 * e,
                prediction=None if e < 3 else 90.5,
                checkpoint={"path": f"model_7/epoch_{e}", "arrays": ["w", "b"]},
            )
        )
        for e in range(1, 5)
    ]
    return ModelRecord(
        model_id=7,
        generation=2,
        genome={"nodes_per_phase": [4, 4, 4], "bits": [0, 1] * 10 + [1]},
        flops=123456,
        fitness=91.25,
        measured_fitness=90.0,
        terminated_early=True,
        epochs_trained=4,
        max_epochs=8,
        fitness_history=[61.0, 62.0, 63.0, 64.0],
        prediction_history=[None, None, 90.5, 90.5],
        epochs=epochs,
        architecture=[
            {"index": 0, "layer": "PhaseBlock", "config": {"bits": [0, 1], "dims": (8, 8)},
             "output_shape": [8, 32, 32], "params": 10, "flops": 20}
        ],
        engine_parameters={"e_pred": 8, "function": "pow3"},
        engine_overhead_seconds=0.125,
        training_parameters={"mode": "surrogate", "max_epochs": 8},
        fault={"kind": "numerical", "message": "nan in loss", "context": {"layer": 3}},
        fault_events=[
            {"attempt": 0, "kind": "crash", "action": "retry", "backoff": 0.5},
            {"attempt": 1, "kind": "timeout", "action": "quarantine", "backoff": None},
        ],
        quarantined=True,
        cache_hit=True,
        cache_source=3,
        logical_tick=7,
        arena_enabled=True,
        arena_peak_bytes=4096,
        predicted_fitness=88.75,
        predicted_rank=2,
        budget_assigned=1,
        skip_reason="predicted_loser",
    )


class TestRecordSerialisation:
    def test_to_dict_is_asdict_in_value_and_key_order(self):
        run = RunRecord(
            run_id="r",
            intensity="medium",
            nas_parameters={"population_size": 4},
            engine_parameters=None,
            workflow_config={"nas": {"generations": 3}, "n_gpus": [1, 4]},
            generation_stats=[{"generation": 0, "best_fitness": 90.0}],
        )
        for record in (full_record(), run, EpochRecord(epoch=1, validation_accuracy=5.0)):
            ours, reference = record.to_dict(), dataclasses.asdict(record)
            assert ours == reference
            assert list(ours) == list(reference)
            assert json.dumps(ours) == json.dumps(reference)

    def test_to_dict_shares_nothing_mutable_with_the_record(self):
        record = full_record()
        copy = record.to_dict()
        copy["epochs"][0]["checkpoint"]["arrays"].append("x")
        copy["fault_events"][0]["kind"] = "edited"
        copy["architecture"][0]["config"]["bits"].clear()
        copy["fitness_history"].append(0.0)
        assert record.to_dict() == dataclasses.asdict(full_record())


def commons_bytes(payload: dict) -> str:
    """The text ``atomic_write_json`` puts in a model file."""
    return json.dumps(payload, indent=2, sort_keys=True)


class TestLoadedRecords:
    """``ModelRecord.from_dict`` holds a trail as the live tracker does."""

    def assert_round_trips(self, payload: dict) -> None:
        before = commons_bytes(payload)
        record = ModelRecord.from_dict(payload)
        assert record.to_dict() == payload
        assert commons_bytes(record.to_dict()) == before
        assert commons_bytes(payload) == before  # the payload is not edited
        fields = list(EpochRecord.__dataclass_fields__)
        assert all(list(entry) == fields for entry in record.epochs)

    def test_legacy_commons_round_trips(self):
        files = sorted((FIXTURES / "legacy_arena_commons").rglob("model_*.json"))
        assert files
        for path in files:
            self.assert_round_trips(json.loads(path.read_text()))

    def test_a_fresh_steady_run_round_trips(self, tmp_path):
        config = steady_config(36, "loaded-records", SurrogateConfig(min_records=4))
        result = run_workflow(config, commons_path=tmp_path)
        live = {r.model_id: r for r in result.tracker.all_records()}
        files = sorted(tmp_path.rglob("model_*.json"))
        assert len(files) == 36
        for path in files:
            payload = json.loads(path.read_text())
            self.assert_round_trips(payload)
            loaded = ModelRecord.from_dict(payload)
            assert loaded == live[loaded.model_id]
            assert [list(e) for e in loaded.epochs] == [list(e) for e in live[loaded.model_id].epochs]

    def test_an_unknown_epoch_key_fails_at_load(self):
        payload = full_record().to_dict()
        payload["epochs"][1]["learning_rate"] = 0.1
        with pytest.raises(TypeError, match="learning_rate"):
            ModelRecord.from_dict(payload)


# -- published bytes ---------------------------------------------------------------


def published_digests(root: Path) -> dict:
    """sha256 of every file a seeded steady search publishes, then republishes
    after losing its second half and resuming.

    Engine-less surrogate mode has no wall-clock field, so the bytes are a
    pure function of the seed.  ``tests/fixtures/make_published_digests.py``
    wrote the fixture from this function at the parent of the commit that
    replaced ``asdict``; its two ``run.json`` entries were re-pinned when
    ``WorkflowConfig.to_dict`` lost the ``arena`` key.
    """
    config = WorkflowConfig(
        nas=NSGANetConfig(
            population_size=6,
            offspring_per_generation=6,
            generations=5,
            max_epochs=6,
            evolution="steady",
        ),
        engine=None,
        mode="surrogate",
        n_workers=2,
        surrogate=SurrogateConfig(min_records=4),
        seed=29,
        run_id="published-digests",
    )

    def digests(stage: str) -> dict:
        return {
            f"{stage}/{path.relative_to(root)}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.json"))
        }

    run_workflow(config, commons_path=root)
    found = digests("run")
    for path in (root / "runs" / config.run_id / "models").glob("model_*.json"):
        if int(path.stem.split("_")[1]) >= config.nas.total_evaluations // 2:
            path.unlink()
    resume_workflow(DataCommons(root), config.run_id)
    found.update(digests("resumed"))
    return found


class TestPublishedBytes:
    def test_published_run_is_byte_identical_to_the_parent_commits(self, tmp_path):
        expected = json.loads((FIXTURES / "published_digests.json").read_text())
        assert published_digests(tmp_path) == expected
