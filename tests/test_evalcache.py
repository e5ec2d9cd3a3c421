"""Tests for the evaluation fast path: genome canonicalization, the
duplicate-architecture memoization layer, its workflow wiring
(cache-on == cache-off search outcomes, replay, resume), and the
compute dtype policy."""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.plugin import TrainingResult
from repro.lineage import DataCommons
from repro.lineage.replay import verify_run
from repro.nas import NSGANetConfig, random_genome
from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.evalcache import CacheEntry, EvaluationCache, MemoizingStream, evaluation_key
from repro.nas.genome import Genome, PhaseGenome
from repro.nas.population import Individual
from repro.nn.dtype import SUPPORTED_DTYPES, resolve_dtype
from repro.nn.flops import network_flops
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.workflow import WorkflowConfig, run_workflow
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel import BeamIntensity, DatasetConfig
from repro.xfel.dataset import load_or_generate

from tests.test_reproducibility import assert_reproduces


def iso_phases():
    """Two bit strings encoding the same 3-node DAG (edge under relabeling)."""
    # layout for n=3: (0,1), (0,2), (1,2), skip
    a = PhaseGenome(3, (1, 0, 0, 0))  # single edge 0 -> 1
    b = PhaseGenome(3, (0, 0, 1, 0))  # single edge 1 -> 2
    return a, b


class TestCanonicalization:
    def test_isomorphic_phases_share_canonical_form(self):
        a, b = iso_phases()
        assert a.bits != b.bits
        assert a.canonical().bits == b.canonical().bits

    def test_isomorphic_genomes_share_canonical_key(self):
        a, b = iso_phases()
        ga = Genome((a, a, b))
        gb = Genome((b, b, a))
        assert ga.key() != gb.key()
        assert ga.canonical_key() == gb.canonical_key()

    def test_canonical_preserves_connection_count_and_skip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_genome(rng, n_phases=3, nodes_per_phase=4, density=0.5)
            c = g.canonical()
            assert c.n_connections == g.n_connections
            assert c.n_skips == g.n_skips
            assert c.nodes_per_phase == g.nodes_per_phase

    def test_canonical_is_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_genome(rng, n_phases=3, nodes_per_phase=4, density=0.5)
            c = g.canonical()
            assert c.canonical() is c
            assert c.canonical_key() == g.canonical_key()

    def test_non_isomorphic_phases_stay_distinct(self):
        chain = PhaseGenome(3, (1, 0, 1, 0))  # 0 -> 1 -> 2
        single = PhaseGenome(3, (1, 0, 0, 0))  # 0 -> 1 only
        assert chain.canonical().bits != single.canonical().bits

    def test_skip_bit_survives_and_separates_classes(self):
        a, _ = iso_phases()
        skipped = PhaseGenome(3, a.bits[:-1] + (1,))
        assert skipped.canonical().skip
        assert skipped.canonical().bits != a.canonical().bits

    def test_oversized_phase_is_its_own_canonical_form(self):
        # beyond the brute-force bound canonicalization degrades to identity
        n = 9
        bits = tuple([1] * (n * (n - 1) // 2)) + (0,)
        phase = PhaseGenome(n, bits)
        assert phase.canonical() is phase

    def test_isomorphic_genomes_decode_to_equal_flops(self):
        a, b = iso_phases()
        ga, gb = Genome((a, a, b)), Genome((b, b, a))
        config = DecoderConfig(input_shape=(1, 16, 16), n_classes=2)
        na = decode_genome(ga, config, rng=np.random.default_rng(0))
        nb = decode_genome(gb, config, rng=np.random.default_rng(0))
        assert network_flops(na) == network_flops(nb)

    def test_canonical_decode_materializes_identical_networks(self):
        a, b = iso_phases()
        ga, gb = Genome((a, a, b)), Genome((b, b, a))
        config = DecoderConfig(input_shape=(1, 16, 16), n_classes=2)
        na = decode_genome(ga, config, rng=np.random.default_rng(3), canonical=True)
        nb = decode_genome(gb, config, rng=np.random.default_rng(3), canonical=True)
        for (name_a, pa), (name_b, pb) in zip(na.parameters(), nb.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.value, pb.value)


class TestEvaluationCache:
    def test_lookup_counts_hits_and_misses(self):
        cache = EvaluationCache()
        entry = CacheEntry(0, training_result(), ())
        assert cache.lookup(("k",)) is None
        cache.put(("k",), entry)
        assert cache.lookup(("k",)) is entry
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_first_writer_wins(self):
        cache = EvaluationCache()
        first = CacheEntry(0, training_result(), ())
        cache.put(("k",), first)
        cache.put(("k",), CacheEntry(1, training_result(), ()))
        assert cache.lookup(("k",)) is first
        assert len(cache) == 1

    def test_key_is_canonical_genome_and_budget(self):
        a, b = iso_phases()
        assert evaluation_key(make_individual(0, a), 2) == evaluation_key(make_individual(1, b), 2)
        probe = make_individual(2, b, budget=1)
        assert evaluation_key(probe, 2) == (Genome((b,)).canonical_key(), 1)
        # a zero-budget skip is a prediction, not a measurement
        assert evaluation_key(make_individual(3, budget=0), 2) is None


class FakeChain:
    """Evaluation-chain stand-in that leaves a two-epoch trace."""

    def __init__(self, quarantine_ids=(), raise_ids=()):
        self.calls = []
        self.max_epochs = 2
        self.quarantine_ids = set(quarantine_ids)
        self.raise_ids = set(raise_ids)

    def evaluate(self, individual):
        self.calls.append(individual.model_id)
        if individual.model_id in self.raise_ids:
            raise RuntimeError(f"boom {individual.model_id}")
        if individual.model_id in self.quarantine_ids:
            individual.quarantined = True
            individual.fitness = 0.0
            individual.flops = 1
            return individual
        individual.settle(
            TrainingResult(
                80.0, 2, False, fitness_history=(51.0, 52.0), flops=123, epoch_seconds=(0.1, 0.2)
            )
        )
        for epoch in (1, 2):
            individual.trace.append((epoch, 50.0 + epoch, None, {"loss": 1.0}, None))
        return individual


def make_individual(model_id, phase=None, budget=None):
    phase = phase or iso_phases()[0]
    individual = Individual(genome=Genome((phase,)), model_id=model_id, generation=0)
    individual.budget_assigned = budget
    return individual


class FakeInnerStream:
    """Streaming-seam stand-in: evaluates eagerly at submit, settles FIFO."""

    def __init__(self, chain):
        self.chain = chain
        self.pending = []
        self.committed = []
        self.finish_calls = 0

    def submit(self, individual):
        try:
            self.pending.append(self.chain.evaluate(individual))
        except RuntimeError as exc:
            self.pending.append(exc)

    def settled(self):
        outcome = self.pending.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def on_commit(self, individual):
        self.committed.append(individual.model_id)

    def finish(self):
        self.finish_calls += 1
        return "inner-report"


def make_stream(wait_for_leader=False, **chain_kwargs):
    chain = FakeChain(**chain_kwargs)
    inner = FakeInnerStream(chain)
    stream = MemoizingStream(inner, max_epochs=chain.max_epochs, wait_for_leader=wait_for_leader)
    return stream, chain, inner


def evaluate(stream, individual):
    """The whole seam for one candidate: submit, settle, commit."""
    stream.submit(individual)
    settled = stream.settled()
    stream.on_commit(settled)
    return settled


def drain(stream, batch):
    """One barrier generation: submit all, settle all, then commit in order."""
    for individual in batch:
        stream.submit(individual)
    for _ in batch:
        stream.settled()
    for individual in batch:
        stream.on_commit(individual)


class TestMemoizingEvaluator:
    """One candidate at a time, then whole generations, under the barrier
    rule (in-flight duplicates wait for their leader)."""

    def test_miss_then_isomorphic_hit(self):
        stream, chain, _ = make_stream(wait_for_leader=True)
        a, b = iso_phases()
        first = evaluate(stream, make_individual(0, a))
        second = evaluate(stream, make_individual(1, b))  # isomorphic duplicate
        assert chain.calls == [0]
        assert not first.cache_hit
        assert second.cache_hit and second.cache_source == 0
        assert second.fitness == first.fitness
        assert second.flops == first.flops
        assert second.epoch_seconds == first.epoch_seconds
        assert second.result is first.result  # frozen, so shared
        assert stream.cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_hit_replays_observers_with_cache_context(self):
        # the follower is released when its leader settles, not at submit;
        # its trace is the leader's measurements, with nothing trained
        stream, _, _ = make_stream(wait_for_leader=True)
        leader, hit = make_individual(0), make_individual(1)
        drain(stream, [leader, hit])
        assert hit.cache_hit and hit.cache_source == 0
        assert [(e, f, p) for e, f, p, *_ in hit.trace] == [
            (e, f, p) for e, f, p, *_ in leader.trace
        ]
        assert all(stats is None and ckpt is None for *_, stats, ckpt in hit.trace)
        assert all(stats == {"loss": 1.0} for *_, stats, _ in leader.trace)

    def test_quarantined_outcomes_never_cached(self):
        stream, chain, _ = make_stream(wait_for_leader=True, quarantine_ids={0})
        evaluate(stream, make_individual(0))
        assert len(stream.cache) == 0
        follower = evaluate(stream, make_individual(1))
        assert chain.calls == [0, 1]  # duplicate re-evaluated for real
        assert not follower.cache_hit and not follower.quarantined

    def test_faulted_and_retried_outcomes_never_cached(self):
        stream, _, _ = make_stream(wait_for_leader=True)
        faulted = make_individual(0)
        faulted.fault_events = [{"kind": "nan"}]
        evaluate(stream, faulted)
        assert len(stream.cache) == 0
        retried = make_individual(1, PhaseGenome(3, (1, 0, 1, 0)))
        stream.submit(retried)
        retried.eval_attempt = 1  # what a fault policy leaves behind
        stream.on_commit(stream.settled())
        assert len(stream.cache) == 0

    def test_zero_budget_bypasses_cache(self):
        stream, chain, _ = make_stream(wait_for_leader=True)
        evaluate(stream, make_individual(0, budget=0))
        second = evaluate(stream, make_individual(1, budget=0))
        assert chain.calls == [0, 1]
        assert len(stream.cache) == 0
        assert not second.cache_hit
        assert stream.cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_generation_dedup_is_submission_ordered(self):
        stream, chain, _ = make_stream(wait_for_leader=True)
        a, b = iso_phases()
        other = PhaseGenome(3, (1, 0, 1, 0))
        batch = [
            make_individual(0, a),
            make_individual(1, b),  # follower of 0
            make_individual(2, other),
            make_individual(3, a),  # follower of 0
        ]
        drain(stream, batch)
        assert chain.calls == [0, 2]  # leaders only, in submission order
        assert [i.cache_hit for i in batch] == [False, True, False, True]
        assert batch[1].cache_source == batch[3].cache_source == 0
        assert stream.cache.stats() == {"entries": 2, "hits": 2, "misses": 2}

    def test_second_wave_when_leader_uncacheable(self):
        stream, chain, _ = make_stream(wait_for_leader=True, quarantine_ids={0})
        a, b = iso_phases()
        batch = [make_individual(0, a), make_individual(1, b), make_individual(2, a)]
        drain(stream, batch)
        # the first follower is promoted to a real evaluation and leads the rest
        assert chain.calls == [0, 1]
        assert batch[0].quarantined and not batch[1].quarantined
        assert [i.cache_hit for i in batch] == [False, False, True]
        assert batch[1].fitness == 80.0 and batch[2].cache_source == 1
        assert stream.cache.stats() == {"entries": 1, "hits": 1, "misses": 2}

    def test_followers_of_a_raising_leader_are_evaluated(self):
        # no fault policy: the leader's error surfaces at settle, and its
        # followers still settle — by running, as with the cache off
        stream, chain, _ = make_stream(wait_for_leader=True, raise_ids={0})
        follower = make_individual(1)
        stream.submit(make_individual(0))
        stream.submit(follower)
        with pytest.raises(RuntimeError, match="boom 0"):
            stream.settled()
        assert stream.settled() is follower
        assert chain.calls == [0, 1] and not follower.cache_hit
        with pytest.raises(RuntimeError, match="no evaluations in flight"):
            stream.settled()

    def test_prime_seeds_hits_with_original_attribution(self):
        stream, chain, _ = make_stream(wait_for_leader=True)
        restored = make_individual(4)
        restored.settle(
            TrainingResult(77.0, 1, False, fitness_history=(77.0,), flops=99, epoch_seconds=(0.3,))
        )
        restored.trace = [(1, 77.0, None, None, None)]
        assert stream.prime(restored)
        hit = evaluate(stream, make_individual(5))
        assert chain.calls == []
        assert hit.cache_hit and hit.cache_source == 4
        assert hit.trace == restored.trace

    def test_prime_rejects_quarantined_and_unevaluated(self):
        stream, _, _ = make_stream(wait_for_leader=True)
        empty = make_individual(0)
        assert not stream.prime(empty)
        bad = make_individual(1)
        bad.settle(TrainingResult(1.0, 1, False, flops=1))
        bad.quarantined = True
        assert not stream.prime(bad)
        assert len(stream.cache) == 0


class TestMemoizingStream:
    """The steady rule: entries appear at commit, in-window duplicates re-evaluate."""

    def test_hit_decided_at_submit_skips_inner(self):
        stream, chain, inner = make_stream()
        a, b = iso_phases()
        leader = evaluate(stream, make_individual(0, a))
        stream.submit(make_individual(1, b))  # isomorphic, past the window
        assert chain.calls == [0]  # hit never reached the pool
        hit = stream.settled()
        assert hit.cache_hit and hit.cache_source == 0
        assert hit.fitness == leader.fitness
        assert stream.cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_ready_hits_settle_before_inner_results(self):
        stream, _, inner = make_stream()
        a, b = iso_phases()
        evaluate(stream, make_individual(0, a))
        stream.submit(make_individual(1, PhaseGenome(3, (1, 0, 1, 0))))  # miss
        stream.submit(make_individual(2, b))  # hit -> queued in _ready
        assert stream.settled().model_id == 2  # hit jumps the queue
        assert stream.settled().model_id == 1
        assert not inner.pending

    def test_duplicate_inside_lag_window_reevaluates(self):
        # both submitted before either commits: the follower cannot see
        # the leader's entry yet and must run for real
        stream, chain, _ = make_stream()
        a, b = iso_phases()
        stream.submit(make_individual(0, a))
        stream.submit(make_individual(1, b))
        assert chain.calls == [0, 1]
        stream.on_commit(stream.settled())
        stream.on_commit(stream.settled())
        assert len(stream.cache) == 1  # first writer wins at commit
        stream.submit(make_individual(2, a))  # now past the window: a hit
        assert chain.calls == [0, 1]
        assert stream.settled().cache_source == 0
        assert stream.cache.stats() == {"entries": 1, "hits": 1, "misses": 2}

    def test_priming_waits_for_commit(self):
        stream, _, inner = make_stream()
        stream.submit(make_individual(0))
        settled = stream.settled()
        assert len(stream.cache) == 0  # settle alone must not publish
        stream.on_commit(settled)
        assert len(stream.cache) == 1
        assert inner.committed == [0]

    def test_hit_commit_does_not_overwrite_entry(self):
        stream, _, _ = make_stream()
        a, b = iso_phases()
        evaluate(stream, make_individual(0, a))
        evaluate(stream, make_individual(1, b))
        assert len(stream.cache) == 1
        assert stream.cache.stats()["hits"] == 1

    def test_quarantined_outcome_not_primed(self):
        stream, chain, inner = make_stream(quarantine_ids={0})
        evaluate(stream, make_individual(0))
        assert len(stream.cache) == 0
        assert inner.committed == [0]
        stream.submit(make_individual(1))  # no entry -> real evaluation
        assert chain.calls == [0, 1]

    def test_unkeyed_individuals_bypass_cache(self):
        stream, chain, _ = make_stream()
        evaluate(stream, make_individual(0, budget=0))
        evaluate(stream, make_individual(1, budget=0))
        assert chain.calls == [0, 1]
        assert len(stream.cache) == 0

    def test_hit_replays_observers_with_cache_context(self):
        stream, _, _ = make_stream()
        a, b = iso_phases()
        evaluate(stream, make_individual(0, a))
        stream.submit(make_individual(1, b))
        hit = stream.settled()
        assert hit.cache_hit and hit.cache_source == 0
        assert hit.trace == [(1, 51.0, None, None, None), (2, 52.0, None, None, None)]

    def test_finish_delegates_to_inner(self):
        stream, _, inner = make_stream()
        assert stream.finish() == "inner-report"
        assert inner.finish_calls == 1


def training_result() -> TrainingResult:
    return TrainingResult(
        fitness=80.5,
        epochs_trained=3,
        terminated_early=True,
        max_epochs=8,
        fitness_history=(51.0, 62.0, 71.5),
        prediction_history=(None, 80.25, 80.5),
        measured_fitness=71.5,
        engine_overhead_seconds=0.125,
        engine_interactions=3,
        flops=123,
        epoch_seconds=(0.5, 0.5, 0.25),
        arena_peak_bytes=4096,
    )


class TestResultCopies:
    """A hit, its entry and its leader share one frozen
    :class:`TrainingResult`: nothing can change it under the others."""

    def hit_entry_leader(self):
        stream, _, _ = make_stream()
        a, b = iso_phases()
        leader = make_individual(0, a)
        leader.settle(training_result())
        assert stream.prime(leader)
        entry = stream.cache.lookup(evaluation_key(leader, stream.max_epochs))
        hit = make_individual(1, b)
        stream.submit(hit)
        assert stream.settled() is hit and hit.cache_hit
        return hit, entry, leader

    def test_a_hit_restores_every_field(self):
        hit, entry, leader = self.hit_entry_leader()
        assert hit.result is entry.result is leader.result
        assert hit.result == training_result()
        assert (hit.fitness, hit.flops) == (80.5, 123)
        assert hit.epoch_seconds == (0.5, 0.5, 0.25) and hit.arena_peak_bytes == 4096
        assert hit.result.epochs_saved == 5

    def test_mutating_a_hit_leaves_entry_and_leader_untouched(self):
        hit, entry, leader = self.hit_entry_leader()
        with pytest.raises(dataclasses.FrozenInstanceError):
            hit.result.fitness = -1.0
        with pytest.raises(AttributeError):
            hit.result.fitness_history.append(0.0)
        assert entry.result == leader.result == training_result()

    def test_mutating_entry_or_leader_leaves_the_hit_untouched(self):
        hit, entry, leader = self.hit_entry_leader()
        with pytest.raises(dataclasses.FrozenInstanceError):
            leader.result.prediction_history = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.result = None
        assert entry.result is hit.result and hit.result == training_result()


def cached_config(mode="surrogate"):
    """Small search on a 2-node-per-phase space so duplicates occur."""
    nas = NSGANetConfig(
        population_size=6,
        offspring_per_generation=6,
        generations=3,
        max_epochs=12,
        nodes_per_phase=2,
    )
    return WorkflowConfig(
        nas=nas,
        engine=EngineConfig(e_pred=12, tolerance=1.0),
        dataset=DatasetConfig(
            intensity=BeamIntensity.MEDIUM, images_per_class=20, image_size=16
        ),
        mode=mode,
        n_gpus=(1,),
        seed=9,
    )


class TestWorkflowCacheEquivalence:
    def test_cache_on_and_off_produce_identical_searches(self):
        # the reference has hits: the small genome space guarantees duplicates
        assert_reproduces("barrier-off-clean", ("thread", 1), cache=False)

    def test_hits_marked_in_lineage_records(self, tmp_path):
        config = cached_config()
        commons = DataCommons(tmp_path)
        orchestrator = A4NNOrchestrator(config, commons=commons)
        result = orchestrator.run()
        records = commons.load_models(result.run_id)
        hits = [r for r in records if r.cache_hit]
        assert len(hits) == orchestrator.memoizer.cache.stats()["hits"]
        by_id = {r.model_id: r for r in records}
        for record in hits:
            source = by_id[record.cache_source]
            assert not source.cache_hit  # sources are real evaluations
            assert record.fitness == source.fitness
            assert record.flops == source.flops
            assert record.fitness_history == source.fitness_history


class TestReplayAndResume:
    def test_cached_run_replays_exactly(self, tmp_path):
        config = cached_config()
        result = run_workflow(config, commons_path=tmp_path)
        report = verify_run(DataCommons(tmp_path), result.run_id)
        assert report.matches, report.summary()
        assert report.n_models == len(result.search.archive)

    def test_resumed_run_matches_uninterrupted(self):
        # cache-hit attribution survives the restart, including hits whose
        # source was evaluated before the interruption (models 4 and 6)
        assert_reproduces("barrier-off-clean", ("thread", 1), cut=("resume", 8))


def _hold_layers_to_dtype(network, dtype):
    """Wrap ``forward``/``backward`` of every layer — the ones inside a
    ``PhaseBlock`` included — so each tensor going in or out is checked;
    returns the wrapped layers and the list the wrappers log their calls to."""
    calls = []

    def held(layer, method):
        inner = getattr(layer, method)

        def checked(tensor, **kwargs):
            result = inner(tensor, **kwargs)
            assert tensor.dtype == result.dtype == dtype, (type(layer).__name__, method)
            calls.append((layer, method))
            return result

        return checked

    layers = list(network.layers)
    for layer in network.layers:
        if isinstance(layer, PhaseBlock):
            layers.extend(sub for _, sub in layer._sublayers())
    for layer in layers:
        layer.forward, layer.backward = held(layer, "forward"), held(layer, "backward")
    return layers, calls


class TestDtypePolicy:
    def test_decoded_network_and_dataset_follow_config_dtype(self):
        """One real training step per supported dtype: nothing the
        trainer, a kernel, the loss or the optimizer produces leaves the
        configured width (the run-time form of the deleted
        NUM005/NUM006/SHAPE002 static rules).  A run trains in float32."""
        orchestrator = A4NNOrchestrator(cached_config(mode="real"))
        orchestrator.build_evaluator()
        assert orchestrator._dataset.dtype == np.float32
        assert orchestrator._base.decoder_config.dtype == np.float32
        genome = random_genome(np.random.default_rng(0), nodes_per_phase=2)
        for label in SUPPORTED_DTYPES:
            dtype = resolve_dtype(label)
            dataset = load_or_generate(cached_config().dataset).astype(label)
            assert dataset.x_train.dtype == dtype
            network = decode_genome(
                genome,
                DecoderConfig(
                    input_shape=dataset.input_shape,
                    n_classes=dataset.n_classes,
                    dtype=dtype,
                ),
                rng=np.random.default_rng(1),
            )
            for _, param in network.parameters():
                assert param.value.dtype == dtype
            assert network.forward(dataset.x_train[:4], training=False).dtype == dtype

            layers, calls = _hold_layers_to_dtype(network, dtype)
            Trainer(
                network,
                dataset.x_train[:8],
                dataset.y_train[:8],
                dataset.x_test[:4],
                dataset.y_test[:4],
                optimizer=Adam(network),
                batch_size=8,
                rng=np.random.default_rng(2),
            ).train()
            assert len(layers) > len(network.layers)  # phase internals included
            assert {(id(l), m) for l, m in calls} == {
                (id(l), m) for l in layers for m in ("forward", "backward")
            }
            for name, param in network.parameters():
                assert param.grad.dtype == dtype, (label, name)
                assert param.value.dtype == dtype, (label, name)
