"""Equivalence tests for the steady-state fast paths.

Each fast path keeps the expression or the loop it replaced as the
reference, here in the tests: the NumPy dominance-matrix NSGA-II
routines, the batch Pareto mask over an archive prefix, the list-based
one-in/one-out insert, the decoded network's FLOP count,
``dataclasses.asdict``, the generic JSON encoder over a record's
``to_dict()``, the bytes the parent commit published, the
per-call permutation search behind ``PhaseGenome.canonical``, the
predictor's list of rows refitted from scratch, the JSON-decoded
record a commons used to load, each curve of a stacked fit (and each
row of a stacked prediction) fitted alone, and Algorithm 1 run for one
model at a time.
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, PredictionEngine
from repro.core.fitting import FitError, fit_curve, ridge_lstsq
from repro.core.parametric import FUNCTION_REGISTRY, ParametricFunction, Separable
from repro.core.plugin import LearningCurveModel, TrainingResult, run_lockstep, run_training_loop
from repro.lineage import DataCommons
from repro.lineage.records import EpochRecord, EpochTrail, ModelRecord, RunRecord
from repro.nas import genome as genome_module
from repro.nas import surrogate as surrogate_module
from repro.nas.decoder import DecoderConfig, decode_genome, genome_flops
from repro.nas.genome import Genome, PhaseGenome, n_connection_bits, random_genome
from repro.nas.nsga2 import (
    binary_tournament,
    crowding_distance,
    environmental_selection,
    fast_non_dominated_sort,
    pareto_front_insert,
    pareto_front_mask,
    steady_eviction,
)
from repro.nas.population import Individual
from repro.nas.search import STEADY_START, NSGANetConfig, steady_insert
from repro.nas.surrogate import REGIMES, FitnessPredictor, SurrogateConfig, sample_curve
from repro.nn.flops import network_flops
from repro.utils import timing as timing_module
from repro.utils.io import JsonEncoder
from repro.workflow import resume_workflow, run_workflow
from repro.workflow.interfaces import WorkflowConfig
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.intensity import BeamIntensity

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# -- strategies ---------------------------------------------------------------

# a coarse grid with both zeros, so ties in one objective, exact
# duplicates and -0.0 beside 0.0 are the norm; free floats in between
_values = st.one_of(
    st.sampled_from((-0.0, 0.0, 1.0, 2.0, 3.0)),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def objective_arrays(draw, min_rows=0, max_rows=12):
    rows = draw(st.lists(st.tuples(_values, _values), min_size=min_rows, max_size=max_rows))
    arr = np.array(rows, dtype=float).reshape(len(rows), 2)
    constant = draw(st.sampled_from((None, 0, 1)))
    if constant is not None:  # a single-valued column
        arr[:, constant] = draw(_values)
    return arr


@st.composite
def decodable_genomes(draw):
    nodes = draw(st.sampled_from((3, 4)))
    width = (n_connection_bits(nodes) + 1) * 3
    bits = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    return Genome.from_bits(bits, (nodes,) * 3)


# -- the NumPy NSGA-II routines the bi-objective sweep replaced ----------------


def reference_dominance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dom[i, j]`` = row ``a[i]`` dominates row ``b[j]``."""
    less_equal = np.ones((len(a), len(b)), dtype=bool)
    strictly_less = np.zeros((len(a), len(b)), dtype=bool)
    for k in range(a.shape[1]):
        mine, theirs = a[:, k, None], b[None, :, k]
        less_equal &= mine <= theirs
        strictly_less |= mine < theirs
    return less_equal & strictly_less


def reference_sort(arr: np.ndarray) -> list[np.ndarray]:
    n = arr.shape[0]
    if n == 0:
        return []
    dom = reference_dominance(arr, arr)
    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    counts = dom.sum(axis=0)
    while remaining.any():
        current = remaining & (counts == 0)
        fronts.append(np.flatnonzero(current))
        remaining &= ~current
        counts = counts - dom[current].sum(axis=0)
    return fronts


def reference_crowding(arr: np.ndarray) -> np.ndarray:
    n, m = arr.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(arr[:, k], kind="stable")
        values = arr[order, k]
        span = values[-1] - values[0]
        if span > 0:
            distance[order[values == values[0]]] = np.inf
            distance[order[values == values[-1]]] = np.inf
            distance[order[1:-1]] += (values[2:] - values[:-2]) / span
    return distance


def reference_selection(arr: np.ndarray, k: int) -> np.ndarray:
    survivors: list[int] = []
    for front in reference_sort(arr):
        if len(survivors) + len(front) <= k:
            survivors.extend(front.tolist())
            if len(survivors) == k:
                break
        else:
            need = k - len(survivors)
            dist = reference_crowding(arr[front])
            survivors.extend(front[np.argsort(-dist, kind="stable")[:need]].tolist())
            break
    return np.asarray(survivors, dtype=int)


def reference_eviction(arr: np.ndarray) -> int:
    last_front = reference_sort(arr)[-1]
    dist = reference_crowding(arr[last_front])
    return int(last_front[np.argsort(-dist, kind="stable")[-1]])


def reference_tournament(arr: np.ndarray, rng, n_winners: int) -> np.ndarray:
    n = arr.shape[0]
    ranks = np.empty(n, dtype=int)
    distances = np.empty(n)
    for rank, front in enumerate(reference_sort(arr)):
        ranks[front] = rank
        distances[front] = reference_crowding(arr[front])
    winners = np.empty(n_winners, dtype=int)
    for t in range(n_winners):
        i, j = rng.integers(0, n, size=2)
        better = ranks[i] < ranks[j] or (ranks[i] == ranks[j] and distances[i] > distances[j])
        winners[t] = i if better else j
    return winners


def reference_mask(arr: np.ndarray) -> np.ndarray:
    return ~reference_dominance(arr, arr).any(axis=0)


def reference_insert(front: np.ndarray, point: np.ndarray) -> np.ndarray | None:
    point = point[None, :]
    if reference_dominance(front, point).any():
        return None
    return ~reference_dominance(point, front)[0]


class TestBiObjectiveSweep:
    @given(objective_arrays())
    @settings(max_examples=150, deadline=None)
    def test_fronts_and_their_order_match(self, arr):
        fronts = fast_non_dominated_sort(arr)
        assert [f.tolist() for f in fronts] == [f.tolist() for f in reference_sort(arr)]
        assert [f.tolist() for f in fast_non_dominated_sort(arr.tolist())] == [
            f.tolist() for f in fronts
        ]

    @given(objective_arrays())
    @settings(max_examples=100, deadline=None)
    def test_crowding_bytes_match(self, arr):
        assert crowding_distance(arr).tobytes() == reference_crowding(arr).tobytes()
        for front in reference_sort(arr):
            assert (
                crowding_distance(arr[front]).tobytes()
                == reference_crowding(arr[front]).tobytes()
            )

    @given(objective_arrays())
    @settings(max_examples=100, deadline=None)
    def test_survivors_match_for_every_k(self, arr):
        for k in range(len(arr) + 1):
            assert (
                environmental_selection(arr, k).tolist()
                == reference_selection(arr, k).tolist()
            )

    @given(objective_arrays(min_rows=2))
    @settings(max_examples=100, deadline=None)
    def test_eviction_index_matches(self, arr):
        assert steady_eviction(arr) == reference_eviction(arr)
        assert steady_eviction(arr.tolist()) == reference_eviction(arr)

    @given(objective_arrays(min_rows=1), st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_tournament_winners_match_from_one_seed(self, arr, seed, n_winners):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        winners = binary_tournament(arr, mine, n_winners=n_winners)
        assert winners.tolist() == reference_tournament(arr, theirs, n_winners).tolist()
        # the same draws, so the stream stays in step
        assert mine.bit_generator.state == theirs.bit_generator.state

    @given(objective_arrays())
    @settings(max_examples=150, deadline=None)
    def test_front_mask_matches(self, arr):
        assert pareto_front_mask(arr).tolist() == reference_mask(arr).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_raise(self, bad):
        arr = np.array([[0.0, 1.0], [bad, 2.0]])
        for select in (
            fast_non_dominated_sort,
            crowding_distance,
            pareto_front_mask,
            steady_eviction,
            lambda rows: environmental_selection(rows, 1),
            lambda rows: binary_tournament(rows, np.random.default_rng(0), n_winners=1),
            lambda rows: pareto_front_insert(rows[:1], rows[1]),
        ):
            with pytest.raises(ValueError, match="finite"):
                select(arr)
            with pytest.raises(ValueError, match="finite"):
                select(arr.tolist())


class TestIncrementalFront:
    @given(objective_arrays())
    @settings(max_examples=150, deadline=None)
    def test_matches_batch_mask_at_every_prefix(self, arr):
        front: list[int] = []
        for k, point in enumerate(arr):
            keep = pareto_front_insert(arr[front], point)
            expected = reference_insert(arr[front], point)
            assert keep == (None if expected is None else expected.tolist())
            if keep is not None:
                front = [i for i, kept in zip(front, keep) if kept] + [k]
            assert front == np.flatnonzero(reference_mask(arr[: k + 1])).tolist()

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
                    reference_eviction(np.array([m.objectives() for m in members]))
                ]
            seen = archive[: k + 1]
            mask = reference_mask(np.array([m.objectives() for m in seen]))
            assert state.members == members
            assert state.front == [m for m, kept in zip(seen, mask) if kept]
            for held, rows in (
                (state.members, state.objectives),
                (state.front, state.front_objectives),
            ):
                assert rows == [m.objectives() for m in held]


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
        EpochRecord(
            epoch=e,
            validation_accuracy=60.0 + e,
            train_accuracy=58.5 + e,
            train_loss=1.0 / e,
            epoch_seconds=0.25 * e,
            prediction=None if e < 3 else 90.5,
            checkpoint={"path": f"model_7/epoch_{e}", "arrays": ["w", "b"]},
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
            {"attempt": 0, "kind": "crash", "action": "retry"},
            {"attempt": 1, "kind": "timeout", "action": "quarantine"},
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


def asdict(record) -> dict:
    """``dataclasses.asdict``, a model record's trail read entry by entry."""
    document = dataclasses.asdict(record)
    if isinstance(record, ModelRecord):
        document["epochs"] = [dataclasses.asdict(entry) for entry in record.epochs]
    return document


class TestRecordSerialisation:
    def test_to_dict_is_asdict_in_value_and_key_order(self):
        run = RunRecord(run_id="r", workflow_config={"nas": {"generations": 3}, "n_gpus": [1, 4]})
        for record in (full_record(), run, EpochRecord(epoch=1, validation_accuracy=5.0)):
            ours, reference = record.to_dict(), asdict(record)
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
        assert record.to_dict() == asdict(full_record())

    def test_an_epoch_entry_is_slotted_and_writes_its_attribute_dict(self):
        # the trail held the entries' vars() dicts before they were slotted
        # EpochRecords; the published document is that dict, key for key
        record = full_record()
        fields = list(EpochRecord.__dataclass_fields__)
        for entry, written in zip(record.epochs, record.to_dict()["epochs"], strict=True):
            assert not hasattr(entry, "__dict__")
            assert list(written.items()) == [(name, getattr(entry, name)) for name in fields]
            assert written == entry.to_dict()


def commons_bytes(payload: dict) -> str:
    """A model file's text for the document ``payload``."""
    return json.dumps(payload, indent=2, sort_keys=True)


class TestLoadedRecords:
    """``ModelRecord.from_dict`` holds a trail as the live tracker does."""

    def assert_round_trips(self, payload: dict) -> None:
        before = commons_bytes(payload)
        record = ModelRecord.from_dict(payload)
        assert record.to_dict() == payload
        assert commons_bytes(record.to_dict()) == before
        assert commons_bytes(payload) == before  # the payload is not edited
        assert all(type(entry) is EpochRecord for entry in record.epochs)

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
            assert all(type(e) is EpochRecord for e in live[loaded.model_id].epochs)

    def test_an_unknown_epoch_key_fails_at_load(self):
        payload = full_record().to_dict()
        payload["epochs"][1]["learning_rate"] = 0.1
        with pytest.raises(TypeError, match="learning_rate"):
            ModelRecord.from_dict(payload)


# -- the model file's text -----------------------------------------------------------


def published_text(record: ModelRecord) -> bytes:
    """The reference model file: the generic encoder over ``to_dict()``."""
    document = record.to_dict()
    return json.dumps(document, indent=2, sort_keys=True, cls=JsonEncoder).encode()


_json_strings = st.one_of(
    st.sampled_from(('say "hi"', "back\\slash", "two\nlines", "tab\tand\r", "Ångström ☃", "")),
    st.text(max_size=6),
)
_json_floats = st.one_of(
    st.sampled_from((-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-05, 1e16, 5e-324, 1.7976931348623157e308)),
    st.floats(allow_nan=True, allow_infinity=True),
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _json_floats,
    _json_strings,
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
)
# containers of those: tuples and int keys too, which JSON writes as lists and strings
_json_containers = st.one_of(
    st.lists(_json_scalars, max_size=3),
    st.lists(_json_scalars, max_size=2).map(tuple),
    st.dictionaries(_json_strings, _json_scalars, max_size=3),
    st.dictionaries(st.integers(-5, 5), _json_scalars, min_size=1, max_size=2),
)
_json_dicts = st.dictionaries(_json_strings, st.one_of(_json_scalars, _json_containers), max_size=3)
_checkpoints = st.one_of(
    st.none(),
    st.builds(lambda path: {"state": path + ".npz", "architecture": path + ".arch.json"}, _json_strings),
    st.dictionaries(_json_strings, _json_containers, max_size=2),
)
_column_values = st.one_of(st.none(), _json_floats, st.floats(width=32).map(np.float32), st.integers(0, 9))


@st.composite
def epoch_trails(draw):
    """0-4 entries: None-holed columns, checkpoints, numpy scalars, and
    epoch numbers that restart (a retried trail) or run 1..n."""
    size = draw(st.integers(0, 4))
    if draw(st.booleans()):
        epochs = list(range(1, size + 1))
    else:
        epochs = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    # each column all floats, all None or mixed, so every stored form shows up
    shapes = st.sampled_from((st.none(), _json_floats, _column_values))
    columns = [draw(st.lists(draw(shapes), min_size=size, max_size=size)) for _ in range(5)]
    checkpoints = draw(st.lists(_checkpoints, min_size=size, max_size=size))
    return [EpochRecord(*row) for row in zip(epochs, *columns, checkpoints)]


@st.composite
def model_records(draw):
    """One of each kind of top-level value: plain and numpy scalars,
    strings, scalar lists, dicts and lists of dicts."""
    entries = draw(epoch_trails())
    fitness = draw(st.one_of(st.none(), _json_floats))
    return ModelRecord(
        model_id=draw(st.integers(0, 10**6)),
        generation=3,
        genome=draw(_json_dicts),
        flops=draw(st.one_of(st.none(), st.integers(0, 10**12).map(np.int64))),
        fitness=fitness,
        measured_fitness=fitness,
        terminated_early=draw(st.booleans()),
        epochs_trained=len(entries),
        max_epochs=25,
        fitness_history=draw(st.lists(_column_values, max_size=4)),
        prediction_history=draw(st.lists(_column_values, max_size=4)),
        epochs=entries,
        architecture=draw(st.lists(_json_containers, max_size=2)),
        engine_parameters={"function": "exp3", "e_pred": 25, "tolerance": 0.5},
        training_parameters={"mode": "surrogate", "max_epochs": 25},
        fault=draw(st.one_of(st.none(), _json_dicts)),
        fault_events=draw(st.lists(_json_dicts, max_size=2)),
        quarantined=draw(st.booleans()),
        skip_reason=draw(st.one_of(st.none(), _json_strings)),
    )


def grown(record: ModelRecord) -> ModelRecord:
    """``record`` with its trail grown by ``append``, as a live tracker's is."""
    copy = ModelRecord.from_dict(record.to_dict())
    copy.epochs = EpochTrail()
    for entry in record.epochs:
        copy.epochs.append(entry)
    return copy


def special_records() -> list[ModelRecord]:
    """The shapes a run publishes that a random draw may miss."""
    cache_hit = dataclasses.replace(
        full_record(),
        cache_hit=True,
        cache_source=2,
        # a real-mode cache hit: its leader's epoch_seconds, no train_* values
        epochs=[
            EpochRecord(epoch=e, validation_accuracy=50.0, epoch_seconds=0.5 * e, prediction=None)
            for e in (1, 2, 3)
        ],
    )
    quarantined = dataclasses.replace(
        full_record(),
        quarantined=True,
        fitness=0.0,
        epochs=[],
        fault={"kind": "numerical", "value": np.float32(np.nan), "step": np.int64(3)},
    )
    zero_budget = dataclasses.replace(
        full_record(),
        epochs=[],
        epochs_trained=0,
        max_epochs=0,
        budget_assigned=0,
        skip_reason="predicted_loser",
        fitness_history=[],
        prediction_history=[],
    )
    retried = dataclasses.replace(
        full_record(),
        epochs=[
            EpochRecord(epoch=e, validation_accuracy=v, train_loss=math.nan)
            for e, v in ((1, 10.0), (2, -0.0), (1, 11.0), (2, math.inf))
        ],
    )
    return [full_record(), cache_hit, quarantined, zero_budget, retried, ModelRecord(0, 0, {})]


class TestModelFileText:
    """``ModelRecord.to_json`` is the generic encoder's text, byte for byte."""

    def assert_published(self, record: ModelRecord) -> None:
        expected = published_text(record)
        assert record.to_json().encode() == expected
        assert grown(record).to_json().encode() == expected
        assert ModelRecord.from_dict(record.to_dict()).to_json().encode() == expected

    @pytest.mark.parametrize("index", range(len(special_records())))
    def test_the_shapes_a_run_publishes(self, index):
        self.assert_published(special_records()[index])

    @given(model_records())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_any_record(self, record):
        self.assert_published(record)

    @staticmethod
    def assert_files_are_the_records(root: Path, run_id: str, live: list[ModelRecord]) -> None:
        loaded = DataCommons(root).load_models(run_id)
        assert [r.model_id for r in loaded] == [r.model_id for r in live]
        for ours, theirs in zip(live, loaded, strict=True):
            path = root / "runs" / run_id / "models" / f"model_{ours.model_id:05d}.json"
            written = path.read_bytes()
            assert published_text(ours) == written
            assert ours.to_json().encode() == written
            assert theirs.to_json().encode() == written

    def test_a_sampled_barrier_run_with_faults(self, tmp_path):
        document = {
            "nas": {"population_size": 4, "offspring_per_generation": 4, "generations": 3, "max_epochs": 10},
            "engine": {"e_pred": 10},
            "faults": {"max_retries": 1},
            "fault_injection": {"rate": 0.3, "modes": ["crash", "nan"]},
            "seed": 11,
        }
        config = WorkflowConfig.from_dict(document)
        result = run_workflow(config, commons_path=tmp_path)
        live = result.tracker.all_records()
        assert any(r.fault_events for r in live) and any(r.fault for r in live)
        self.assert_files_are_the_records(tmp_path, config.resolved_run_id(), live)

    def test_a_steady_run(self, tmp_path):
        config = steady_config(36, "model-text", SurrogateConfig(min_records=4))
        result = run_workflow(config, commons_path=tmp_path)
        self.assert_files_are_the_records(tmp_path, config.run_id, result.tracker.all_records())

    def test_a_real_run_with_checkpoints(self, tmp_path):
        document = {
            "nas": {"population_size": 3, "offspring_per_generation": 3, "generations": 1, "max_epochs": 2},
            "engine": {"e_pred": 2},
            "dataset": {"images_per_class": 8, "image_size": 12},
            "mode": "real",
            "seed": 5,
        }
        config = WorkflowConfig.from_dict(document)
        result = run_workflow(config, commons_path=tmp_path / "c", checkpoint_dir=tmp_path / "ck")
        live = result.tracker.all_records()
        assert all(entry.checkpoint for r in live for entry in r.epochs)
        self.assert_files_are_the_records(tmp_path / "c", config.resolved_run_id(), live)


# -- published bytes ---------------------------------------------------------------


def published_digests(root: Path) -> dict:
    """sha256 of every file a seeded steady search publishes, then republishes
    after losing its second half and resuming.

    Engine-less surrogate mode has no wall-clock field, so the bytes are a
    pure function of the seed.  ``tests/fixtures/make_published_digests.py``
    wrote the fixture from this function at the parent of the commit that
    replaced ``asdict``; its two ``run.json`` entries were re-pinned when
    ``WorkflowConfig.to_dict`` lost the ``arena`` key, and again when it
    lost ``dtype`` and ``rng_keying``; its two ``run.json`` and two
    ``manifest.json`` entries when neither file kept the run's totals.
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


# -- stacked curve fits and Algorithm 1 in lockstep -----------------------------

#: families solved by projection, and the ones fitted by trust region
_PROJECTED = sorted(name for name, f in FUNCTION_REGISTRY.items() if f.separable is not None)
_ITERATIVE = sorted(name for name, f in FUNCTION_REGISTRY.items() if f.separable is None)

#: rows a fit cannot use: a gap, an overflow, and values no finite curve fits
_UNUSABLE = {
    "nan": lambda n: np.where(np.arange(n) == n // 2, np.nan, 60.0),
    "inf": lambda n: np.full(n, np.inf),
    "huge": lambda n: np.resize([1e200, -1e200], n),
}


@st.composite
def curve_stacks(draw, families, max_rows):
    """A family, the epochs and a ``(M, n)`` stack of curves measured at them.

    The rows are noisy learning curves, flat ones, exact duplicates of an
    earlier row, and rows no fit can use; ``n`` runs from one below the
    family's parameter count (every row underdetermined) to 25.
    """
    function = FUNCTION_REGISTRY[draw(st.sampled_from(families))]
    n = draw(st.integers(function.n_params - 1, 25))
    epochs = np.arange(1.0, n + 1)
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["curve", "curve", "curve", "flat", "duplicate", *_UNUSABLE]))
        if kind == "duplicate" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind in _UNUSABLE:
            rows.append(_UNUSABLE[kind](n))
        elif kind == "flat":
            rows.append(np.full(n, draw(st.sampled_from([0.0, 50.0, 100.0]))))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            asymptote, start = rng.uniform(70.0, 100.0), rng.uniform(30.0, 65.0)
            curve = asymptote - (asymptote - start) * np.exp(-rng.uniform(0.05, 0.8) * epochs)
            rows.append(np.clip(curve + rng.normal(0.0, rng.uniform(0.0, 4.0), n), 0.0, 100.0))
    return function, epochs, np.array(rows)


def fit_text(fit) -> tuple | None:
    return None if fit is None else (repr(fit.theta), repr(fit.residual_norm), repr(fit.rmse), fit.n_points)


class TestStackedFits:
    """A stack of curves fits each row to the bytes it gets alone."""

    @staticmethod
    def assert_rows_fit_alone(function, epochs, stack):
        with np.errstate(all="ignore"):
            stacked = fit_curve(function, epochs, stack)
            alone = [fit_curve(function, epochs, row) for row in stack]
        assert [fit_text(f) for f in stacked] == [fit_text(f) for f in alone]

    @given(curve_stacks(_PROJECTED, max_rows=9))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_projected_families(self, case):
        self.assert_rows_fit_alone(*case)

    @given(curve_stacks(_ITERATIVE, max_rows=3))
    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    def test_trust_region_families(self, case):
        self.assert_rows_fit_alone(*case)

    @pytest.mark.parametrize("name", sorted(FUNCTION_REGISTRY))
    def test_failing_rows_beside_fitting_rows(self, name):
        function = FUNCTION_REGISTRY[name]
        epochs = np.arange(1.0, 13)
        curve = make_learning_curve(12)
        stack = np.array([curve, _UNUSABLE["nan"](12), curve, _UNUSABLE["inf"](12), curve[::-1]])
        self.assert_rows_fit_alone(function, epochs, stack)
        fits = fit_curve(function, epochs, stack)
        assert [fit is None for fit in fits] == [False, True, False, True, False]
        # one point short of the parameter count: every row is underdetermined
        few = stack[:, : function.n_params - 1]
        assert fit_curve(function, epochs[: function.n_params - 1], few) == [None] * len(stack)


#: families that fail a chosen check on a chosen row: a projected line
#: whose solution is non-finite for a low curve and whose fitted curve is
#: non-finite for a high one, and a trust-region line whose optimizer
#: refuses the start it gets for a high curve
_FAILING_LINE = ParametricFunction(
    name="failing_line",
    formula="a + b * x",
    n_params=2,
    fn=lambda x, a, b: np.where(a > 90.0, np.inf, a + b * x),
    lower=(-1e3, -1e3),
    upper=(1e3, 1e3),
    separable=Separable(
        basis=lambda x, _: x,
        k_bounds=lambda _: (-1e3, 1e3),
        theta=lambda a, k, _: (a, np.nan if a < 10.0 else k),
    ),
)
_FAILING_START = ParametricFunction(
    name="failing_start",
    formula="a + b * x",
    n_params=2,
    fn=lambda x, a, b: a + b * x,
    lower=(-1e3, -1e3),
    upper=(1e3, 1e3),
    initial_guess=lambda x, y: (np.nan if y[0] > 90.0 else y[0], 0.0),
)

#: a row of each kind, and the check it fails in each family (None: it fits)
_ROWS = {
    "curve": lambda n: make_learning_curve(n) - 40.0,
    "nan": _UNUSABLE["nan"],
    "huge": _UNUSABLE["huge"],
    "low": lambda n: np.full(n, 5.0),
    "high": lambda n: np.full(n, 95.0),
}
_REASONS = {
    "failing_line": {
        "curve": None,
        "nan": "curve contains non-finite values",
        "huge": "no finite parameters fit the curve",
        "low": "solver returned non-finite parameters",
        "high": "fitted curve is non-finite on the data",
    },
    "failing_start": {
        "curve": None,
        "nan": "curve contains non-finite values",
        "low": None,
        "high": "optimizer error: Initial guess is outside of provided bounds",
    },
}


class TestStackedSettle:
    """A stack's checks, predictions and strict errors are its rows' own."""

    @staticmethod
    def assert_rows_predict_alone(engine, stack):
        epoch = stack.shape[1]
        with np.errstate(all="ignore"):
            stacked = engine.predictor(epoch, stack)
            alone = [engine.predictor(epoch, row) for row in stack]
        assert repr(stacked) == repr(alone)

    @given(curve_stacks(_PROJECTED, max_rows=9))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_projected_predictions(self, case):
        function, _, stack = case
        engine = PredictionEngine(EngineConfig(function=function.name, c_min=function.n_params))
        self.assert_rows_predict_alone(engine, stack)

    @given(curve_stacks(_ITERATIVE, max_rows=3))
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    def test_trust_region_predictions(self, case):
        function, _, stack = case
        engine = PredictionEngine(EngineConfig(function=function.name, c_min=function.n_params))
        self.assert_rows_predict_alone(engine, stack)

    @pytest.mark.parametrize("family", [_FAILING_LINE, _FAILING_START], ids=lambda f: f.name)
    def test_each_row_fails_its_own_check(self, family):
        epochs = np.arange(1.0, 13)
        for kind, reason in _REASONS[family.name].items():
            row = _ROWS[kind](12)
            if reason is None:
                assert fit_curve(family, epochs, row, strict=True) is not None
            else:
                with pytest.raises(FitError, match=f"^cannot fit {family.name}: {re.escape(reason)}$"):
                    fit_curve(family, epochs, row, strict=True)
        stack = np.array([_ROWS[kind](12) for kind in [*_REASONS[family.name], "curve"]])
        fits = fit_curve(family, epochs, stack)
        assert [fit is None for fit in fits] == [
            reason is not None for reason in [*_REASONS[family.name].values(), None]
        ]
        # the prediction of each row, failed or not, is the one it gets alone
        engine = PredictionEngine(EngineConfig(c_min=3))
        engine.function = family
        self.assert_rows_predict_alone(engine, stack)

    @given(st.sampled_from([_FAILING_LINE, _FAILING_START]).flatmap(
        lambda family: st.tuples(st.just(family), st.permutations([*_REASONS[family.name], "curve"]))
    ))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_strict_raises_the_first_failing_rows_error(self, case):
        family, kinds = case
        epochs = np.arange(1.0, 13)
        stack = np.array([_ROWS[kind](12) for kind in kinds])
        errors = []
        for row in stack:
            try:
                fit_curve(family, epochs, row, strict=True)
            except FitError as exc:
                errors.append(str(exc))
        with pytest.raises(FitError) as raised:
            fit_curve(family, epochs, stack, strict=True)
        assert str(raised.value) == errors[0]


def make_learning_curve(n: int) -> np.ndarray:
    epochs = np.arange(1.0, n + 1)
    return 95.0 - 40.0 * np.exp(-0.3 * epochs) + np.random.default_rng(3).normal(0.0, 0.5, n)


@st.composite
def lockstep_batches(draw):
    """Sampled curves of one intensity and a budget each, probe budgets included."""
    intensity = draw(st.sampled_from(list(BeamIntensity)))
    curves, budgets = [], []
    for _ in range(draw(st.integers(1, 8))):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        curves.append(sample_curve(random_genome(rng), REGIMES[intensity], rng, 25))
        budgets.append(draw(st.one_of(st.sampled_from([1, 2, 3, 25]), st.integers(1, 25))))
    return curves, budgets


def _timings_zeroed(result: TrainingResult) -> TrainingResult:
    return dataclasses.replace(
        result, engine_overhead_seconds=0.0, engine_overhead_mean=0.0, engine_overhead_variance=0.0
    )


class TestLockstep:
    """Algorithm 1 over several models at once: each model's own outcome."""

    @given(lockstep_batches(), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_each_model_gets_the_result_it_gets_alone(self, batch, with_engine):
        curves, budgets = batch
        engine = PredictionEngine() if with_engine else None
        together = [[] for _ in curves]
        results = run_lockstep(
            [LearningCurveModel(curve) for curve in curves],
            engine,
            budgets,
            epoch_callbacks=[lambda *epoch, trail=trail: trail.append(epoch) for trail in together],
        )
        for curve, budget, result, trail in zip(curves, budgets, results, together):
            alone: list = []
            single = run_training_loop(
                LearningCurveModel(curve), engine, budget, epoch_callback=lambda *e: alone.append(e)
            )
            assert repr(_timings_zeroed(result)) == repr(_timings_zeroed(single))
            assert repr(trail) == repr(alone)
            assert result.engine_interactions == (result.epochs_trained if with_engine else 0)

    def test_the_shares_of_a_batch_sum_to_its_engine_time(self, monkeypatch):
        # the k-th reading of this clock is (k + 1) ms after the one before
        # it, so every stacked call's lap lasts a different time
        readings = itertools.count()
        state = {"now": 0.0}

        def clock() -> float:
            state["now"] += 1e-3 * (1 + next(readings))
            return state["now"]

        monkeypatch.setattr(timing_module.time, "perf_counter", clock)
        rng = np.random.default_rng(7)
        curves = [sample_curve(random_genome(rng), REGIMES[BeamIntensity.HIGH], rng, 25) for _ in range(6)]
        budgets = [25, 1, 9, 25, 3, 17]
        results = run_lockstep([LearningCurveModel(c) for c in curves], PredictionEngine(), budgets)
        monkeypatch.undo()
        calls = max(r.epochs_trained for r in results)
        # call j reads the clock twice, at readings 2j and 2j + 1
        engine_time = sum(1e-3 * (2 + 2 * j) for j in range(calls))
        assert sum(r.engine_overhead_seconds for r in results) == pytest.approx(engine_time, rel=1e-12)
        assert [r.engine_interactions for r in results] == [r.epochs_trained for r in results]
        assert min(r.epochs_trained for r in results) < calls  # some models left early
