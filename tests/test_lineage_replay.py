"""Tests for run replay and verification (the reproducibility loop)."""

import pytest

from repro.lineage import DataCommons, replay_run, verify_run
from repro.lineage.records import RunRecord
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
        result = replay_run(commons, run_id)
        originals = commons.load_models(run_id)
        assert len(result.search.archive) == len(originals)
        for member, original in zip(result.search.archive, originals):
            assert member.fitness == original.fitness
            assert member.genome.to_dict() == original.genome

    def test_replay_requires_stored_config(self, tmp_path):
        commons = DataCommons(tmp_path)
        commons.publish_run(
            RunRecord(run_id="legacy", intensity="low", nas_parameters={}, engine_parameters=None),
            [],
        )
        with pytest.raises(ValueError, match="cannot be replayed"):
            replay_run(commons, "legacy")


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
            ["report", "--commons", str(commons.root), "--output", str(out)]
        ) == 0
        assert out.exists()
        assert out.read_text().startswith("# Run report")
