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
        # unset flags parse to None ("not given"); the defaults are
        # applied once, when the config is built
        from repro.cli import _config_from_args

        args = build_parser().parse_args(["run"])
        assert (args.intensity, args.mode, args.seed) == (None, None, None)
        config = _config_from_args(args)
        assert config.intensity.label == "medium"
        assert config.mode == "surrogate"
        assert config.seed == 42

    def test_rejects_unknown_intensity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--intensity", "ultra"])

    def test_sanitize_writes_flag_flows_into_overrides(self):
        from repro.cli import _flag_overrides

        args = build_parser().parse_args(["run", "--sanitize-writes"])
        assert _flag_overrides(args).get("sanitize_writes") is True
        args = build_parser().parse_args(["run"])
        assert "sanitize_writes" not in _flag_overrides(args)

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

    # every run flag, with the path into config.to_dict() it must land on
    # (chosen to differ from both the CLI defaults and the document below)
    RUN_FLAGS = [
        (["--intensity", "high"], ("dataset", "intensity"), "high"),
        (["--mode", "real"], ("mode",), "real"),
        (["--seed", "7"], ("seed",), 7),
        (["--sanitize"], ("sanitize",), True),
        (["--sanitize-writes"], ("sanitize_writes",), True),
        (["--max-retries", "5"], ("faults", "max_retries"), 5),
        (["--eval-timeout", "9.5"], ("faults", "timeout_seconds"), 9.5),
        (["--retry-backoff", "0.25"], ("faults", "backoff_seconds"), 0.25),
        (["--inject-faults", "0.125"], ("fault_injection", "rate"), 0.125),
        (
            ["--inject-faults", "0.125", "--inject-modes", "nan"],
            ("fault_injection", "modes"),
            ["nan"],
        ),
        (["--dtype", "float64"], ("dtype",), "float64"),
        (["--rng-keying", "model", "--no-eval-cache"], ("rng_keying",), "model"),
        (["--no-eval-cache"], ("eval_cache",), False),
        (["--backend", "process"], ("backend",), "process"),
        (["--n-workers", "3"], ("n_workers",), 3),
        (["--surrogate", "rank"], ("surrogate", "probe_epochs"), 1),
        (["--evolution", "steady"], ("nas", "evolution"), "steady"),
        (["--steady-lag", "2"], ("nas", "steady_lag"), 2),
    ]

    def test_run_flag_table_covers_every_run_flag(self):
        declared = set(vars(build_parser().parse_args(["config"]))) - {
            "command", "verbose", "handler", "config", "commons",
        }
        covered = {
            flag[2:].replace("-", "_").removeprefix("no_")
            for flags, _, _ in self.RUN_FLAGS
            for flag in flags
            if flag.startswith("--")
        }
        assert declared == covered

    @pytest.mark.parametrize("with_document", [False, True])
    @pytest.mark.parametrize("flags,path,expected", RUN_FLAGS)
    def test_every_run_flag_lands_in_the_config(
        self, tmp_path, capsys, flags, path, expected, with_document
    ):
        argv = ["config", *flags]
        if with_document:
            document = dict(small_config_dict(seed=5), sanitize_writes=False)
            argv += ["--config", str(atomic_write_json(tmp_path / "cfg.json", document))]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)
        for key in path:
            value = value[key]
        assert value == expected

    def test_flags_beside_a_document_leave_the_rest_of_it_alone(self, tmp_path, capsys):
        path = atomic_write_json(tmp_path / "cfg.json", small_config_dict(seed=5))
        assert main(["config", "--config", str(path), "--seed", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["nas"]["population_size"] == 3
        assert payload["dataset"]["images_per_class"] == 20
        assert payload["dataset"]["intensity"] == "medium"


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

    @pytest.mark.parametrize("inject", [False, True], ids=["plain", "injecting"])
    def test_cache_line_only_when_the_cache_runs(self, tmp_path, capsys, inject):
        # fault injection bypasses the cache, so a hit count would be a lie
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict(seed=3))
        flags = ["--rng-keying", "genome", "--eval-cache"]
        flags += ["--inject-faults", "0.3"] if inject else []
        assert main(["run", "--config", str(config_path), *flags]) == 0
        out = capsys.readouterr().out
        assert ("cache hits" in out) is not inject
        assert ("quarantined" in out) is inject

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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--rng-keying", "model"], "eval_cache requires rng_keying='genome'"),
            (["--n-workers", "0"], "n_workers must be >= 1"),
        ],
    )
    def test_invalid_flag_combination_is_one_error_line(self, capsys, flags, message):
        assert main(["run", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("a4nn: error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

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

    def test_analyze_and_report_a_one_model_run(self, tmp_path, capsys):
        # too few records for a correlation: both commands say so and go on
        document = small_config_dict()
        document["nas"].update(population_size=1, offspring_per_generation=1, generations=1)
        config_path = atomic_write_json(tmp_path / "cfg.json", document)
        commons_dir = tmp_path / "commons"
        main(["run", "--config", str(config_path), "--commons", str(commons_dir)])
        capsys.readouterr()
        assert main(["analyze", "--commons", str(commons_dir)]) == 0
        out = capsys.readouterr().out
        assert "flops~accuracy rho: n/a (need >= 3 evaluated records, have 1)" in out
        assert "pareto frontier" in out
        report_path = tmp_path / "report.md"
        assert main(["report", "--commons", str(commons_dir), "--output", str(report_path)]) == 0
        assert "Spearman rho = n/a (need >= 3" in report_path.read_text(encoding="utf-8")

    def test_analyze_empty_commons_fails(self, tmp_path, capsys):
        code = main(["analyze", "--commons", str(tmp_path / "empty")])
        assert code == 1
        assert "no runs" in capsys.readouterr().err
