"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.utils.io import atomic_write_json


def small_config_dict(intensity="medium", mode="surrogate", seed=5):
    """A fast WorkflowConfig document for CLI runs."""
    return {
        "nas": {
            "population_size": 3,
            "offspring_per_generation": 3,
            "generations": 2,
            "max_epochs": 12,
        },
        "engine": {"e_pred": 12, "tolerance": 1.0},
        "dataset": {"intensity": intensity, "images_per_class": 20, "image_size": 16},
        "mode": mode,
        "seed": seed,
    }


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.intensity == "medium"
        assert args.mode == "surrogate"
        assert args.seed == 42

    def test_rejects_unknown_intensity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--intensity", "ultra"])

    def test_sanitize_writes_flag_flows_into_overrides(self):
        from repro.cli import _fastpath_overrides

        args = build_parser().parse_args(["run", "--sanitize-writes"])
        assert _fastpath_overrides(args).get("sanitize_writes") is True
        args = build_parser().parse_args(["run"])
        assert "sanitize_writes" not in _fastpath_overrides(args)

    def test_check_takes_paths_and_three_options(self):
        args = build_parser().parse_args(
            ["check", "src", "--select", "DET001", "--format", "md", "--list-rules"]
        )
        assert set(vars(args)) - {"command", "verbose", "handler"} == {
            "paths", "select", "format", "list_rules",
        }


class TestConfigCommand:
    def test_emits_valid_workflow_config(self, capsys):
        assert main(["config", "--intensity", "low", "--seed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"]["intensity"] == "low"
        assert payload["seed"] == 9

        from repro.workflow import WorkflowConfig

        rebuilt = WorkflowConfig.from_dict(payload)
        assert rebuilt.intensity.label == "low"


class TestRunCommand:
    def test_run_with_config_file_and_commons(self, tmp_path, capsys):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict())
        commons_dir = tmp_path / "commons"
        code = main(
            ["run", "--config", str(config_path), "--commons", str(commons_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "networks evaluated: 6" in out
        assert "wall time 1 gpu" in out
        assert (commons_dir / "manifest.json").exists()

    def test_fault_flags_override_config_document(self, tmp_path, capsys):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict())
        code = main(
            [
                "run",
                "--config",
                str(config_path),
                "--max-retries",
                "1",
                "--inject-faults",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "quarantined" in out

    def test_fault_flags_build_policy_without_config(self):
        from repro.cli import _fault_settings_from_args

        args = build_parser().parse_args(
            ["run", "--max-retries", "3", "--eval-timeout", "60", "--retry-backoff", "2"]
        )
        policy, injection = _fault_settings_from_args(args)
        assert policy.max_retries == 3
        assert policy.timeout_seconds == 60.0
        assert policy.backoff_seconds == 2.0
        assert injection is None

        args = build_parser().parse_args(["run", "--inject-faults", "0.25"])
        policy, injection = _fault_settings_from_args(args)
        assert policy is not None  # injection alone enables the policy
        assert injection.rate == 0.25
        assert injection.modes == ("crash", "hang", "nan")

        args = build_parser().parse_args(["run"])
        assert _fault_settings_from_args(args) == (None, None)

    def test_compare_reports_savings(self, tmp_path, capsys):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict(seed=0))
        code = main(["compare", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "epochs saved" in out
        assert "A4NN vs standalone" in out


class TestAnalyzeCommand:
    def test_analyze_published_run(self, tmp_path, capsys):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict())
        commons_dir = tmp_path / "commons"
        main(["run", "--config", str(config_path), "--commons", str(commons_dir)])
        capsys.readouterr()
        code = main(["analyze", "--commons", str(commons_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pareto frontier" in out
        assert "terminated early" in out

    def test_analyze_empty_commons_fails(self, tmp_path, capsys):
        code = main(["analyze", "--commons", str(tmp_path / "empty")])
        assert code == 1
        assert "no runs" in capsys.readouterr().err
