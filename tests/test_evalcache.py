"""Tests for the evaluation fast path: genome canonicalization, the
duplicate-architecture memoization layer, its workflow wiring
(cache-on == cache-off search outcomes, replay, resume), the compute
dtype policy, and the float64 byte-exact regression fixture."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.plugin import TrainingResult
from repro.lineage import DataCommons
from repro.lineage.replay import verify_run
from repro.nas import NSGANetConfig, random_genome
from repro.nas.decoder import DecoderConfig, PhaseBlock, decode_genome
from repro.nas.evalcache import CacheEntry, EvaluationCache, MemoizingStream
from repro.nas.genome import Genome, PhaseGenome
from repro.nas.population import Individual
from repro.nn.dtype import SUPPORTED_DTYPES, resolve_dtype
from repro.nn.flops import network_flops
from repro.nn.optimizers import Adam
from repro.nn.trainer import Trainer
from repro.utils.validation import ValidationError
from repro.workflow import WorkflowConfig, resume_workflow, run_workflow
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel import BeamIntensity, DatasetConfig
from repro.xfel.dataset import load_or_generate

FIXTURE = Path(__file__).parent / "fixtures" / "prepr_float64_real.json"


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
        entry = CacheEntry(0, 80.0, 100, [], None, [])
        assert cache.lookup(("k",)) is None
        cache.put(("k",), entry)
        assert cache.lookup(("k",)) is entry
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_peek_does_not_count(self):
        cache = EvaluationCache()
        assert cache.peek(("k",)) is None
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_first_writer_wins(self):
        cache = EvaluationCache()
        first = CacheEntry(0, 80.0, 100, [], None, [])
        cache.put(("k",), first)
        cache.put(("k",), CacheEntry(1, 90.0, 200, [], None, []))
        assert cache.peek(("k",)) is first
        assert len(cache) == 1


class FakeBase:
    """Innermost-backend stand-in: memo_key."""

    def __init__(self, keyed=True):
        self.keyed = keyed

    def memo_key(self, individual):
        if not self.keyed:
            return None
        return ("fake", individual.genome.canonical_key())


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
            individual.result = {"quarantined": True}
            return individual
        individual.fitness = 80.0
        individual.flops = 123
        individual.result = {"history": [51.0, 52.0]}
        individual.epoch_seconds = [0.1, 0.2]
        for epoch in (1, 2):
            individual.trace.append((epoch, 50.0 + epoch, None, {"loss": 1.0}, None))
        return individual


def make_individual(model_id, phase=None):
    phase = phase or iso_phases()[0]
    return Individual(genome=Genome((phase,)), model_id=model_id, generation=0)


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


def make_stream(keyed=True, wait_for_leader=False, **chain_kwargs):
    base = FakeBase(keyed=keyed)
    chain = FakeChain(**chain_kwargs)
    inner = FakeInnerStream(chain)
    stream = MemoizingStream(base, inner, wait_for_leader=wait_for_leader)
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
        assert second.result == first.result and second.result is not first.result
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

    def test_model_keying_bypasses_cache(self):
        stream, chain, _ = make_stream(keyed=False, wait_for_leader=True)
        evaluate(stream, make_individual(0))
        second = evaluate(stream, make_individual(1))
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
        restored.fitness, restored.flops = 77.0, 99
        restored.result = {"history": [77.0]}
        restored.epoch_seconds = [0.3]
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
        bad.fitness, bad.flops, bad.result = 1.0, 1, {}
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
        stream, chain, _ = make_stream(keyed=False)
        evaluate(stream, make_individual(0))
        evaluate(stream, make_individual(1))
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
    result = TrainingResult(
        fitness=80.5,
        epochs_trained=3,
        terminated_early=True,
        fitness_history=[51.0, 62.0, 71.5],
        prediction_history=[None, 80.25, 80.5],
        measured_fitness=71.5,
        engine_overhead_seconds=0.125,
        engine_interactions=3,
    )
    result._max_epochs = 8
    return result


class TestResultCopies:
    """A hit, its entry and its leader each own their result (once by
    ``deepcopy``; a :class:`TrainingResult` now by field copy)."""

    def hit_entry_leader(self):
        stream, _, _ = make_stream()
        a, b = iso_phases()
        leader = make_individual(0, a)
        leader.fitness, leader.flops, leader.result = 80.5, 123, training_result()
        assert stream.prime(leader)
        entry = stream.cache.peek(stream.base.memo_key(leader))
        hit = make_individual(1, b)
        stream.submit(hit)
        assert stream.settled() is hit and hit.cache_hit
        return hit, entry, leader

    def test_a_hit_restores_every_field(self):
        hit, entry, leader = self.hit_entry_leader()
        assert hit.result == entry.result == leader.result == training_result()
        assert hit.result._max_epochs == entry.result._max_epochs == 8
        assert hit.result.epochs_saved == 5

    def test_mutating_a_hit_leaves_entry_and_leader_untouched(self):
        hit, entry, leader = self.hit_entry_leader()
        hit.result.fitness_history.append(0.0)
        hit.result.prediction_history.clear()
        hit.result.fitness = -1.0
        assert entry.result == leader.result == training_result()

    def test_mutating_entry_or_leader_leaves_the_hit_untouched(self):
        hit, entry, leader = self.hit_entry_leader()
        leader.result.fitness_history.clear()
        leader.result.prediction_history.append(1.0)
        assert entry.result == hit.result == training_result()
        entry.result.fitness_history.append(2.0)
        entry.result.prediction_history[0] = 3.0
        assert hit.result == training_result()

    def test_any_other_result_is_still_deep_copied(self):
        stream, _, _ = make_stream()
        a, b = iso_phases()
        first = evaluate(stream, make_individual(0, a))  # FakeChain's result is a dict
        first.result["history"].append(53.0)
        second = evaluate(stream, make_individual(1, b))
        assert second.cache_hit and second.result == {"history": [51.0, 52.0]}
        second.result["history"].clear()
        assert evaluate(stream, make_individual(2, a)).result == {"history": [51.0, 52.0]}


def cached_config(seed=9, mode="surrogate", generations=3):
    """Small search on a 2-node-per-phase space so duplicates occur."""
    nas = NSGANetConfig(
        population_size=6,
        offspring_per_generation=6,
        generations=generations,
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
        seed=seed,
    )


def archive_signature(result):
    return [
        (m.model_id, m.generation, m.genome.key(), m.fitness, m.flops)
        for m in result.search.archive
    ]


def pareto_signature(result):
    return [(m.model_id, m.fitness, m.flops) for m in result.search.pareto_individuals()]


class TestWorkflowCacheEquivalence:
    def test_cache_on_and_off_produce_identical_searches(self):
        config = cached_config()
        cached = A4NNOrchestrator(config)
        cached_result = cached.run()
        assert cached.memoizer is not None
        stats = cached.memoizer.cache.stats()
        assert stats["hits"] >= 1  # the small genome space guarantees duplicates
        uncached_result = A4NNOrchestrator(
            dataclasses.replace(config, eval_cache=False)
        ).run()
        assert archive_signature(cached_result) == archive_signature(uncached_result)
        assert pareto_signature(cached_result) == pareto_signature(uncached_result)

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

    def test_generation_stats_report_hits(self):
        config = cached_config()
        result = A4NNOrchestrator(config).run()
        per_generation = [g.n_cache_hits for g in result.search.generations]
        assert sum(per_generation) >= 1
        assert all(h >= 0 for h in per_generation)


class TestReplayAndResume:
    def test_cached_run_replays_exactly(self, tmp_path):
        config = cached_config()
        result = run_workflow(config, commons_path=tmp_path)
        report = verify_run(DataCommons(tmp_path), result.run_id)
        assert report.matches, report.summary()
        assert report.n_models == len(result.search.archive)

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        config = cached_config(seed=17)
        full = run_workflow(config, commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        # drop every record past generation 0 to simulate an interruption
        for record in commons.load_models(full.run_id):
            if record.generation >= 1:
                (
                    commons.root
                    / "runs"
                    / full.run_id
                    / "models"
                    / f"model_{record.model_id:05d}.json"
                ).unlink()
        resumed = resume_workflow(commons, full.run_id)
        assert archive_signature(resumed) == archive_signature(full)
        # cache-hit attribution must survive the restart, including hits
        # whose source was evaluated before the interruption
        full_flags = {
            m.model_id: (m.cache_hit, m.cache_source) for m in full.search.archive
        }
        resumed_flags = {
            m.model_id: (m.cache_hit, m.cache_source) for m in resumed.search.archive
        }
        assert resumed_flags == full_flags


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
        NUM005/NUM006/SHAPE002 static rules)."""
        assert cached_config().dtype == "float32"
        genome = random_genome(np.random.default_rng(0), nodes_per_phase=2)
        for label in SUPPORTED_DTYPES:
            config = dataclasses.replace(cached_config(), dtype=label)
            dtype = resolve_dtype(config.dtype)
            dataset = load_or_generate(config.dataset).astype(config.dtype)
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

    def test_cache_requires_genome_keying(self):
        with pytest.raises(ValidationError, match="eval_cache"):
            WorkflowConfig(rng_keying="model", eval_cache=True)

    def test_legacy_documents_default_to_pre_fastpath_semantics(self):
        payload = cached_config().to_dict()
        for key in ("dtype", "rng_keying", "eval_cache"):
            payload.pop(key, None)
        payload["dataset"].pop("dtype", None)
        legacy = WorkflowConfig.from_dict(payload)
        assert legacy.dtype == "float64"
        assert legacy.rng_keying == "model"
        assert legacy.eval_cache is False

    def test_memo_keys_separate_dtypes(self):
        from repro.nas.evaluation import TrainingEvaluator

        config = cached_config()
        dataset = load_or_generate(config.dataset)
        keys = {}
        for label in ("float32", "float64"):
            evaluator = TrainingEvaluator(
                dataset.astype(label),
                None,
                max_epochs=4,
                rng_keying="genome",
                dtype=resolve_dtype(label),
                dataset_key=config.dataset.cache_key(),
            )
            keys[label] = evaluator.memo_key(make_individual(0))
        assert keys["float32"] != keys["float64"]


class TestFloat64Regression:
    """The legacy float64/model-keyed path reproduces the pre-fast-path
    run captured in fixtures/prepr_float64_real.json, byte for byte."""

    def test_fixture_reproduced_exactly(self):
        fixture = json.loads(FIXTURE.read_text())
        fc = fixture["config"]
        config = WorkflowConfig(
            nas=NSGANetConfig(
                population_size=fc["nas"]["population_size"],
                offspring_per_generation=fc["nas"]["offspring_per_generation"],
                generations=fc["nas"]["generations"],
                max_epochs=fc["nas"]["max_epochs"],
            ),
            engine=EngineConfig(
                e_pred=fc["engine"]["e_pred"], tolerance=fc["engine"]["tolerance"]
            ),
            dataset=DatasetConfig(
                intensity=BeamIntensity.from_label(fc["dataset"]["intensity"]),
                images_per_class=fc["dataset"]["images_per_class"],
                image_size=fc["dataset"]["image_size"],
            ),
            mode=fc["mode"],
            seed=fc["seed"],
            n_gpus=(1,),
            dtype="float64",
            rng_keying="model",
            eval_cache=False,
        )
        result = run_workflow(config)
        records = {r.model_id: r for r in result.tracker.all_records()}
        assert len(records) == len(fixture["models"])
        for expected in fixture["models"]:
            record = records[expected["model_id"]]
            assert record.generation == expected["generation"]
            assert record.genome == expected["genome"]
            assert record.flops == expected["flops"]
            assert record.fitness == expected["fitness"]
            assert record.measured_fitness == expected["measured_fitness"]
            assert record.fitness_history == expected["fitness_history"]
            assert record.epochs_trained == expected["epochs_trained"]
            assert record.terminated_early == expected["terminated_early"]
