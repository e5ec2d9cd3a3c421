"""The reproducibility contract, checked on generated cases.

A seeded run publishes one record projection,
:func:`repro.lineage.reproducible`, whatever runs it: the search thread
or worker processes, the evaluation cache on or off (which changes who
was a hit, never what anyone measured), whole, resumed from commit *k*,
or interrupted after commit *k* and resumed.  :func:`assert_reproduces`
holds one such run against its recipe's reference run; a derandomized
Hypothesis test draws the runs, and named cells elsewhere call it too.

Each recipe runs its reference once.  Here each (recipe family, worker
count) builds one process pool, which the runs share through the
orchestrator's pool hooks: the recipes of a family differ only in what
the parent decides (evolution, budgets, the cache), which a worker does
not read.
"""

import dataclasses
import functools
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig
from repro.lineage import DataCommons, RunRecord, reproducible
from repro.nas.search import NSGANetConfig
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.workflow import WorkflowConfig, rebuild_search_state, resume_workflow
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.xfel.dataset import DatasetConfig


def recipe(evolution, surrogate=False, faults=False, real=False):
    """A seeded search: 12 sampled models on 2-node phases, where duplicates
    are common, 24 with the surrogate on (it scores from model 18), or 8
    real ones on a tiny dataset with both sanitizers on."""
    size = 6 if surrogate else 4
    return WorkflowConfig(
        nas=NSGANetConfig(
            population_size=size,
            offspring_per_generation=size,
            generations=2 if real else 4 if surrogate else 3,
            max_epochs=3 if real else 8,
            nodes_per_phase=4 if real else 2,
            evolution=evolution,
            # one logical clock for every worker count
            steady_lag=2 if evolution == "steady" else None,
        ),
        engine=EngineConfig(e_pred=3 if real else 8),
        dataset=DatasetConfig(images_per_class=8, image_size=12),
        mode="real" if real else "surrogate",
        n_gpus=(1,),
        seed=11,
        run_id="harness",
        surrogate=SurrogateConfig(min_records=6, explore_every=3, band=0.5) if surrogate else None,
        faults=FaultPolicy(max_retries=1) if faults else None,
        fault_injection=FaultInjectionConfig(rate=0.3, modes=("crash", "nan")) if faults else None,
        # an untripped sanitizer changes no number on any backend
        sanitize=real,
        sanitize_writes=real,
    )


RECIPES = {
    f"{evolution}-{surrogate}-{faults}": recipe(evolution, surrogate == "rank", faults == "faults")
    for evolution in ("barrier", "steady")
    for surrogate in ("off", "rank")
    for faults in ("clean", "faults")
}
RECIPES["real"] = recipe("steady", real=True)


class Interrupted(BaseException):
    """Stops a run after a commit, as a kill would: no fault policy routes it."""


def outcome(result, orchestrator):
    """What a run must share with its reference besides its projections."""
    search, allocator, memoizer = result.search, orchestrator.allocator, orchestrator.memoizer
    return SimpleNamespace(
        ledgers=(
            search.epoch_budget,
            search.total_epochs_trained,
            search.total_epochs_saved,
            search.total_epochs_skipped,
            search.n_quarantined,
        ),
        observations=allocator
        and (allocator.predictor.fingerprint(), allocator.n_scored, allocator.n_losers),
        stats=memoizer and memoizer.cache.stats(),
    )


@functools.cache
def reference(name):
    """The recipe run on the search thread, cache on, whole; it exercises
    what the recipe is for."""
    orchestrator = A4NNOrchestrator(RECIPES[name])
    result = orchestrator.run()
    records = result.tracker.all_records()
    assert len(records) == RECIPES[name].nas.total_evaluations
    if name.endswith("faults"):  # injection keys each evaluation: no cache
        actions = {e["action"] for r in records for e in r.fault_events}
        assert {"retry", "quarantine"} <= actions and not any(r.cache_hit for r in records)
    else:
        assert any(r.cache_hit for r in records)
    if name.endswith("rank-clean"):
        assert any(r.budget_assigned is not None for r in records)
    return records, [reproducible(r) for r in records], outcome(result, orchestrator)


def interrupted_after(k, config, commons):
    """Run ``config`` into ``commons`` until ``k`` models have committed."""
    commit = A4NNOrchestrator._on_individual
    committed = []

    def on_individual(self, individual):
        commit(self, individual)
        committed.append(individual.model_id)
        if len(committed) == k:
            raise Interrupted

    with mock.patch.object(A4NNOrchestrator, "_on_individual", on_individual):
        with pytest.raises(Interrupted):
            A4NNOrchestrator(config, commons=commons).run()


def assert_reproduces(name, where, cache=True, cut=None):
    """Run recipe ``name`` on ``where`` = (backend, workers), with the cache
    on or off, whole or with ``cut`` = ("resume" | "interrupt", k), and
    hold it against the recipe's reference run (search thread, cache on,
    whole): equal projections (on disk too after a resume), epoch ledgers,
    cache statistics and surrogate observation logs."""
    backend, n_workers = where
    config = dataclasses.replace(
        RECIPES[name], backend=backend, n_workers=n_workers, eval_cache=cache
    )
    nas = config.nas
    records, projections, expected = reference(name)
    if not cache:
        # the cache changes who trains, never what anyone measured
        projections = [dict(p, cache_hit=False, cache_source=None) for p in projections]
    orchestrators, release = [], A4NNOrchestrator.close_pool

    def released(self):
        orchestrators.append(self)
        release(self)

    with tempfile.TemporaryDirectory() as root, mock.patch.object(
        A4NNOrchestrator, "close_pool", released
    ):
        commons = DataCommons(root)
        whole = 0
        if cut is None:
            result = A4NNOrchestrator(config).run()
        else:
            kind, k = cut
            if kind == "resume":
                # what a run killed after commit k leaves on disk
                commons.start_run(RunRecord(config.run_id, config.to_dict()))
                for record in records[:k]:
                    if not cache:
                        record = dataclasses.replace(record, cache_hit=False, cache_source=None)
                    commons.write_model(config.run_id, record)
            else:
                interrupted_after(k, config, commons)
            on_disk = commons.load_models(config.run_id)
            assert [r.model_id for r in on_disk] == list(range(k))
            assert commons.run_ids() == []
            restored = rebuild_search_state(
                on_disk,
                population_size=nas.population_size,
                offspring_per_generation=nas.offspring_per_generation,
                evolution=nas.evolution,
            )
            # the whole prefix in steady mode, its whole generations behind a barrier
            whole = k
            if nas.evolution == "barrier":
                whole -= (k - nas.population_size) % nas.offspring_per_generation
            assert [r.model_id for r in restored] == list(range(whole))
            result = resume_workflow(commons, config.run_id)
            assert [reproducible(r) for r in commons.load_models(config.run_id)] == projections
        assert [reproducible(r) for r in result.tracker.all_records()] == projections
    orchestrator = orchestrators[-1]
    actual = outcome(result, orchestrator)
    assert (actual.ledgers, actual.observations) == (expected.ledgers, expected.observations)
    if cut is None:
        assert actual.stats == (expected.stats if cache else None)
    # one pool report per generation (per steady run) that reached a worker
    generations = {p["generation"] for p in projections[whole:] if not p["cache_hit"]}
    episodes = len(generations) if nas.evolution == "barrier" else min(len(generations), 1)
    assert len(orchestrator.pool_reports) == (0 if backend == "thread" else episodes)
    assert all(o.pool is None for o in orchestrators)


@pytest.fixture(scope="module")
def shared_pools():
    """One process pool per (recipe family, worker count), shared by every
    run; at the end, no worker is left."""
    from tests.test_procpool import pool_workers

    pools = {}
    build = A4NNOrchestrator._build_process_pool

    def built_once(self):
        config = self.config
        key = (config.mode, config.faults is not None, config.n_workers)
        if key not in pools:
            pools[key] = build(self)
        self.first_report = len(pools[key].reports)
        return pools[key]

    def released(self):
        # what close_pool does, less stopping the workers
        if self.pool is not None:
            self.pool.finish()
            self.pool_reports = self.pool.reports[self.first_report :]
            self.pool = None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(A4NNOrchestrator, "_build_process_pool", built_once)
        patch.setattr(A4NNOrchestrator, "close_pool", released)
        yield
    for pool in pools.values():
        pool.close()
        assert pool.alive_workers() == 0
    assert not pool_workers()


#: (recipe, (backend, workers), cache, cut): the cells of the legs this
#: test replaced (worker-pool integration, the steady search on pools, the
#: fault-injected rerun and resume, the real steady and sanitizer runs),
#: then a cache-off and an interrupted run of each family
EXAMPLES = [
    ("barrier-off-clean", ("process", 3), True, None),
    ("steady-off-clean", ("process", 2), True, None),
    ("steady-off-clean", ("process", 3), True, None),
    ("barrier-off-faults", ("process", 2), True, None),
    ("barrier-off-faults", ("thread", 1), True, ("resume", 8)),
    ("real", ("process", 2), True, None),
    ("barrier-off-clean", ("thread", 1), False, ("resume", 6)),
    ("steady-off-clean", ("process", 3), False, ("interrupt", 5)),
    ("steady-off-faults", ("process", 2), True, ("interrupt", 9)),
    ("barrier-rank-faults", ("process", 2), True, ("interrupt", 14)),
    ("steady-rank-clean", ("process", 2), False, ("resume", 21)),
    ("real", ("process", 2), True, ("interrupt", 6)),
]


def with_examples(test):
    for name, where, cache, cut in reversed(EXAMPLES):
        test = example(name=name, where=where, cache=cache, cut=cut)(test)
    return test


@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    name=st.sampled_from(sorted(RECIPES)),
    where=st.sampled_from((("thread", 1), ("process", 2), ("process", 3))),
    cache=st.booleans(),
    cut=st.one_of(
        st.none(), st.tuples(st.sampled_from(("resume", "interrupt")), st.integers(4, 24))
    ),
)
@with_examples
def test_every_way_of_running_a_recipe_reproduces_it(shared_pools, name, where, cache, cut):
    # a real-mode hit trains nothing, so it records no training loss
    assume(cache or name != "real")
    nas = RECIPES[name].nas
    assume(cut is None or nas.population_size <= cut[1] <= nas.total_evaluations)
    assert_reproduces(name, where, cache, cut)
