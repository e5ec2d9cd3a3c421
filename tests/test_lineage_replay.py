"""Tests for run replay and verification (the reproducibility loop)."""

import dataclasses

import pytest

from repro.lineage import DataCommons, replay_run, verify_run
from repro.lineage.records import RunRecord
from repro.nas.search import NSGANetConfig
from repro.utils.io import atomic_write_json, read_json
from repro.workflow import run_workflow

from tests.test_workflow import small_config


@pytest.fixture()
def published(tmp_path):
    config = small_config(seed=21)
    result = run_workflow(config, commons_path=tmp_path)
    return DataCommons(tmp_path), result.run_id


class TestReplay:
    def test_replay_reproduces_search(self, published):
        commons, run_id = published
        replayed = replay_run(commons, run_id)
        originals = commons.load_models(run_id)
        assert len(replayed) == len(originals)
        for fresh, original in zip(replayed, originals):
            assert fresh.fitness == original.fitness
            assert fresh.genome == original.genome

    def test_replay_requires_stored_config(self, tmp_path):
        commons = DataCommons(tmp_path)
        commons.start_run(RunRecord(run_id="legacy", workflow_config=None))
        commons.publish_run("legacy")
        with pytest.raises(ValueError, match="workflow_config must be a JSON object"):
            replay_run(commons, "legacy")

    @pytest.mark.parametrize("evolution", ["barrier", "steady"])
    def test_incomplete_run_replays_only_as_far_as_its_model_files(
        self, tmp_path, monkeypatch, evolution
    ):
        from repro.nas.surrogate import SurrogateEvaluator

        # 4 + 4 offspring per generation over 4 generations: 16 models
        config = dataclasses.replace(
            small_config(seed=23),
            nas=NSGANetConfig(
                population_size=4,
                offspring_per_generation=4,
                generations=4,
                max_epochs=12,
                evolution=evolution,
                steady_lag=3 if evolution == "steady" else None,
            ),
        )
        full = run_workflow(config, commons_path=tmp_path / "full")
        commons = DataCommons(tmp_path / "full")
        published = commons.load_models(full.run_id)
        evaluated = []
        evaluate_many = SurrogateEvaluator.evaluate_many

        def counted(self, individuals):
            evaluated.extend(individual.model_id for individual in individuals)
            return evaluate_many(self, individuals)

        monkeypatch.setattr(SurrogateEvaluator, "evaluate_many", counted)
        # (model files on disk, models replayed): the generation of the
        # highest model id on disk is the last one replayed
        for kept, replayed in ((0, 0), (3, 4), (4, 4), (5, 8), (9, 12), (16, 16)):
            live = DataCommons(tmp_path / f"live{kept}")
            live.start_run(commons.load_run(full.run_id))
            for record in published[:kept]:
                live.write_model(full.run_id, record)
            if kept == 16:
                live.publish_run(full.run_id)
            evaluated.clear()
            report = verify_run(live, full.run_id)
            assert report.matches, report.summary()
            assert report.n_models == kept
            # a cache hit copies an earlier model's outcome and evaluates nothing
            trained = [r.model_id for r in published[:replayed] if not r.cache_hit]
            assert sorted(evaluated) == trained


class TestVerify:
    def test_pristine_run_verifies(self, published):
        commons, run_id = published
        report = verify_run(commons, run_id)
        assert report.matches
        assert report.n_models == 6
        assert report.mismatches == []
        assert "REPRODUCED" in report.summary()

    def test_tampered_record_detected(self, published):
        commons, run_id = published
        # corrupt one published fitness value on disk
        path = commons.root / "runs" / run_id / "models" / "model_00002.json"
        record = read_json(path)
        record["fitness"] = 12.34
        atomic_write_json(path, record)

        report = verify_run(commons, run_id)
        assert not report.matches
        assert any(
            model_id == 2 and fname == "fitness"
            for model_id, fname, _, _ in report.mismatches
        )
        assert "DIVERGED" in report.summary()

    def test_tampered_cache_source_detected(self, tmp_path):
        from tests.test_evalcache import cached_config

        result = run_workflow(cached_config(), commons_path=tmp_path)
        commons = DataCommons(tmp_path)
        follower = next(r for r in commons.load_models(result.run_id) if r.cache_hit)
        # attribute the hit to another model: every outcome field still agrees
        path = commons.root / "runs" / result.run_id / "models" / (
            f"model_{follower.model_id:05d}.json"
        )
        record = read_json(path)
        record["cache_source"] = follower.model_id
        atomic_write_json(path, record)

        report = verify_run(commons, result.run_id)
        assert not report.matches
        assert report.mismatches == [
            (follower.model_id, "cache_source", follower.model_id, follower.cache_source)
        ]
        assert "DIVERGED" in report.summary()

    def test_incomplete_run_is_compared_over_its_models_on_disk(self, published, tmp_path):
        # as a kill after the third commit leaves it: unlisted, three model files
        commons, run_id = published
        live = DataCommons(tmp_path / "live")
        live.start_run(commons.load_run(run_id))
        for record in commons.load_models(run_id)[:3]:
            live.write_model(run_id, record)
        report = verify_run(live, run_id)
        assert report.matches
        assert report.n_models == 3
        assert "REPRODUCED (3 models compared; run incomplete" in report.summary()

        # a mismatch inside the prefix still fails
        path = live.root / "runs" / run_id / "models" / "model_00001.json"
        record = read_json(path)
        record["fitness"] = 12.34
        atomic_write_json(path, record)
        report = verify_run(live, run_id)
        assert report.mismatches == [(1, "fitness", 12.34, commons.load_models(run_id)[1].fitness)]
        assert "DIVERGED" in report.summary()

    def test_missing_model_detected(self, published):
        commons, run_id = published
        (commons.root / "runs" / run_id / "models" / "model_00005.json").unlink()
        report = verify_run(commons, run_id)
        assert not report.matches
        assert any(fname == "<presence>" for _, fname, _, _ in report.mismatches)


class TestCliVerify:
    def test_cli_verify_exit_codes(self, published, capsys):
        from repro.cli import main

        commons, run_id = published
        assert main(["verify", "--commons", str(commons.root)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

        # tamper and expect exit code 2
        path = commons.root / "runs" / run_id / "models" / "model_00001.json"
        record = read_json(path)
        record["epochs_trained"] = 999
        atomic_write_json(path, record)
        assert main(["verify", "--commons", str(commons.root)]) == 2

    def test_cli_report_writes_markdown(self, published, capsys, tmp_path):
        from repro.cli import main

        commons, run_id = published
        out = tmp_path / "report.md"
        assert main(
            ["analyze", "--commons", str(commons.root), "--output", str(out)]
        ) == 0
        assert out.exists()
        assert out.read_text().startswith("# Run report")
