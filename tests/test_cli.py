"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.lineage import DataCommons
from repro.nas.surrogate import SurrogateConfig
from repro.scheduler.faults import FaultInjectionConfig, FaultPolicy
from repro.utils.io import atomic_write_json
from repro.workflow import A4NNOrchestrator, WorkflowConfig, run_workflow


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

        from repro.workflow import A4NNOrchestrator, WorkflowConfig, run_workflow

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
        (
            ["--eval-timeout", "9.5", "--backend", "process"],
            ("faults", "timeout_seconds"),
            9.5,
        ),
        (["--max-retries", "0", "--inject-faults", "0.25"], ("fault_injection", "rate"), 0.25),
        (["--inject-faults", "0.125"], ("fault_injection", "rate"), 0.125),
        (
            ["--inject-faults", "0.125", "--inject-modes", "nan"],
            ("fault_injection", "modes"),
            ["nan"],
        ),
        (["--eval-cache"], ("eval_cache",), True),
        (["--backend", "thread"], ("backend",), "thread"),
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
            # values the --sanitize-writes, --eval-cache and --backend
            # thread rows must override
            document = dict(
                small_config_dict(seed=5), sanitize_writes=False, eval_cache=False,
                backend="process",
            )
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

    @pytest.mark.parametrize(
        "document,message",
        [
            ({"dataset": {"images_per_class": 2}}, "images_per_class=2 at train_fraction=0.8"),
            ({"faults": {"max_retries": 1, "bogus": 2}}, "unknown key in faults: bogus"),
            ({"nas": {"popsize": 3}}, "unknown key in nas: popsize"),
            ({"nas": {"evolution": "steadyy"}}, "evolution must be one of"),
            ({"faults": {"retry_numerical": True}}, "unknown key in faults: retry_numerical"),
            ({"faults": {"quarantine_fitness": 0.0}}, "unknown key in faults: quarantine_fitness"),
            ({"faults": {"quarantine_flops": 10**15}}, "unknown key in faults: quarantine_flops"),
            ({"sed": 7}, "unknown key in workflow_config: sed"),
            ({"rng_keying": "genome"}, "unknown key in workflow_config: rng_keying"),
            ({"dtype": "float32"}, "unknown key in workflow_config: dtype"),
            ({"backend": "serial"}, "backend must be one of"),
            ({"faults": {"backoff_seconds": 1}}, "unknown key in faults: backoff_seconds"),
            ({"checkpoint_models": True}, "unknown key in workflow_config: checkpoint_models"),
            ({"nas": {"initial_density": 0.5}}, "unknown key in nas: initial_density"),
            ({"nas": {"mutation_rate": None}}, "unknown key in nas: mutation_rate"),
            ({"dataset": {"dtype": "float64"}}, "unknown key in dataset: dtype"),
            ({"nas": None}, "nas cannot be null"),
            ({"dataset": None}, "dataset cannot be null"),
            (
                {"engine": {"e_pred": 5}},
                "engine.e_pred (5) must equal nas.max_epochs (25); set engine.e_pred to 25",
            ),
            # a document or a section that is not an object
            ([1], "workflow_config must be a JSON object, got list"),
            ("text", "workflow_config must be a JSON object, got str"),
            ({"nas": 5}, "nas must be a JSON object, got int"),
            ({"faults": 3}, "faults must be a JSON object, got int"),
            ({"engine": "x"}, "engine must be a JSON object, got str"),
            # a leaf value of the wrong JSON type
            ({"n_gpus": 4}, "workflow_config.n_gpus must be a list of int, got 4"),
            (
                {"dataset": {"intensity": 5}},
                "dataset.intensity must be one of 'low', 'medium', 'high', got 5",
            ),
            ({"nas": {"population_size": "x"}}, "nas.population_size must be int, got 'x'"),
            ({"seed": "7"}, "workflow_config.seed must be int, got '7'"),
            ({"n_workers": 2.5}, "workflow_config.n_workers must be int, got 2.5"),
            # a run id names a directory the run removes and rewrites
            ({"run_id": "."}, "run_id must be one plain directory name, got '.'"),
            ({"run_id": ".."}, "run_id must be one plain directory name, got '..'"),
            ({"run_id": "../x"}, "run_id must be one plain directory name, got '../x'"),
            ({"run_id": "/tmp"}, "run_id must be one plain directory name, got '/tmp'"),
        ],
    )
    def test_bad_document_is_one_error_line(self, tmp_path, capsys, document, message):
        # the document and each section refuse a bad value or an unknown
        # key with a ValidationError, which the CLI prints as its one
        # error line; a retired key is an unknown one
        path = atomic_write_json(tmp_path / "doc.json", document)
        assert main(["config", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"a4nn: error: {message}")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize(
        "section, defaults",
        [("faults", FaultPolicy), ("fault_injection", FaultInjectionConfig), ("surrogate", SurrogateConfig)],
    )
    def test_an_empty_section_takes_its_defaults(self, tmp_path, capsys, section, defaults):
        # `{}` is the section on its defaults; only `null` turns it off
        path = atomic_write_json(tmp_path / "doc.json", {section: {}})
        assert main(["config", "--config", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed[section] == defaults().to_dict()
        assert WorkflowConfig.from_dict(printed) == WorkflowConfig(**{section: defaults()})


class TestEngineSection:
    @pytest.mark.parametrize("command", ["config", "run"])
    @pytest.mark.parametrize(
        "engine,message",
        [
            ({"stability_metric": "median"}, "stability_metric must be one of"),
            ({"tolerance": 0.0}, "tolerance must be positive, got 0.0"),
            ({"function": "cubic"}, "unknown parametric function 'cubic'; known: exp3,"),
            ({"n_predictions": 1}, "n_predictions must be >= 2"),
            ({"fitness_bounds": [100.0, 0.0]}, "fitness_bounds must satisfy low < high"),
            ({"c_min": 0}, "c_min must be >= 1"),
            ({"function": "weibull"}, "c_min=3 is below the weibull parameter count 4"),
        ],
    )
    def test_a_bad_engine_section_is_refused_at_load(
        self, tmp_path, capsys, command, engine, message
    ):
        # the engine section is checked as the document loads, so `config`
        # prints no document that `run` refuses, and an unknown family is
        # one line, not a traceback
        path = atomic_write_json(tmp_path / "doc.json", {"engine": engine})
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"a4nn: error: {message}")
        assert captured.err.count("\n") == 1


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
        flags = ["--eval-cache"]
        flags += ["--inject-faults", "0.3"] if inject else []
        assert main(["run", "--config", str(config_path), *flags]) == 0
        out = capsys.readouterr().out
        assert ("cache hits" in out) is not inject
        assert ("quarantined" in out) is inject

    def test_fault_flags_build_policy_without_config(self):
        from repro.cli import _fault_settings_from_args

        args = build_parser().parse_args(
            ["run", "--max-retries", "3", "--eval-timeout", "60"]
        )
        assert _fault_settings_from_args(args) == (FaultPolicy(3, 60.0), None)

        # injection alone enables the policy
        args = build_parser().parse_args(["run", "--inject-faults", "0.25"])
        assert _fault_settings_from_args(args) == (FaultPolicy(), FaultInjectionConfig(0.25))

        args = build_parser().parse_args(["run"])
        assert _fault_settings_from_args(args) == (None, None)

    def test_retry_backoff_flag_is_gone(self, capsys):
        # so are --dtype and --rng-keying: every run is float32 and genome-keyed
        for flag, value in (("--retry-backoff", "1"), ("--dtype", "float64"),
                            ("--rng-keying", "model")):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--inject-faults", "1.5"], "rate must be in [0, 1]"),
            (["--n-workers", "0"], "n_workers must be >= 1"),
            (["--eval-timeout", "5"], "timeout_seconds needs backend='process'"),
            (["--mode", "real", "--n-workers", "2"], "--backend process"),
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


class TestCompareCommand:
    """``compare`` reads its pair through the seed grid: a given commons keeps it."""

    @staticmethod
    def compare(tmp_path, capsys, document, *flags):
        config_path = atomic_write_json(tmp_path / "cfg.json", document)
        code = main(["compare", "--config", str(config_path), *flags])
        return code, capsys.readouterr()

    @staticmethod
    def assert_one_error_line(code, captured, message):
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("a4nn: error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_an_engine_less_config_is_one_error_line(self, tmp_path, capsys):
        document = dict(small_config_dict(seed=0), engine=None)
        code, captured = self.compare(tmp_path, capsys, document)
        self.assert_one_error_line(code, captured, "compare needs an engine")

    def test_one_gpu_rows_whatever_n_gpus_lists(self, tmp_path, capsys):
        code, default = self.compare(tmp_path, capsys, small_config_dict(seed=0))
        assert code == 0 and "4-gpu speedup" in default.out
        document = dict(small_config_dict(seed=0), n_gpus=[2])
        code, two_gpus = self.compare(tmp_path, capsys, document)
        assert code == 0
        assert two_gpus.out.splitlines() == default.out.splitlines()[:-1]

    def test_a_second_call_on_one_commons_searches_nothing(self, tmp_path, capsys, monkeypatch):
        commons = ("--commons", str(tmp_path / "commons"))
        code, first = self.compare(tmp_path, capsys, small_config_dict(seed=0), *commons)
        assert code == 0

        def no_search(self):
            raise AssertionError("compare searched a published run again")

        monkeypatch.setattr(A4NNOrchestrator, "run", no_search)
        code, second = self.compare(tmp_path, capsys, small_config_dict(seed=0), *commons)
        assert code == 0 and second.out == first.out

    def test_another_config_under_a_stored_run_id_is_one_error_line(self, tmp_path, capsys):
        commons = ("--commons", str(tmp_path / "commons"))
        assert self.compare(tmp_path, capsys, small_config_dict(seed=0), *commons)[0] == 0
        document = dict(small_config_dict(seed=0), engine={"e_pred": 12, "tolerance": 0.5})
        code, captured = self.compare(tmp_path, capsys, document, *commons)
        self.assert_one_error_line(code, captured, "was run with another config")


RUN_ID = "a4nn_surrogate_medium_seed5"  # small_config_dict()'s derived run id


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                lambda document: document.update(workflow_config=None),
                "workflow_config must be a JSON object, got NoneType",
            ),
            # every document written before the one evaluation identity
            (
                lambda document: document["workflow_config"].update(
                    dtype="float64", rng_keying="model"
                ),
                "unknown key in workflow_config: dtype, rng_keying",
            ),
            (
                lambda document: document.pop("workflow_config"),
                "{run_json}: a run document holds exactly run_id and workflow_config "
                "(missing ['workflow_config'], unknown [])",
            ),
            # the totals a run document carried before they were summed from the models
            (
                lambda document: document.update(n_models=6, total_epochs_trained=40),
                "{run_json}: a run document holds exactly run_id and workflow_config "
                "(missing [], unknown ['n_models', 'total_epochs_trained'])",
            ),
        ],
        ids=["no-config", "retired-keys", "missing-key", "unknown-key"],
    )
    def test_unreplayable_run_is_one_error_line(self, tmp_path, capsys, edit, message):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict())
        commons = tmp_path / "commons"
        main(["run", "--config", str(config_path), "--commons", str(commons)])
        run_path = commons / "runs" / RUN_ID / "run.json"
        document = json.loads(run_path.read_text())
        edit(document)
        atomic_write_json(run_path, document)
        capsys.readouterr()
        assert main(["verify", "--commons", str(commons)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"a4nn: error: {message.format(run_json=run_path)}")
        assert captured.err.count("\n") == 1


def edit_model(commons, run_id, model_id, edit):
    path = commons / "runs" / run_id / "models" / f"model_{model_id:05d}.json"
    document = json.loads(path.read_text())
    edit(document)
    atomic_write_json(path, document)


class TestVerifyReach:
    """verify compares what a seeded rerun reproduces: every decision and
    epoch, the sampled epoch seconds too; never a clock or a folder."""

    @pytest.mark.parametrize(
        "model_id,field,edit",
        [
            (1, "fault_events", lambda d: d["fault_events"][0].update(action="quarantine")),
            # the attempt that crashed trained first: its epochs lead the trail
            (1, "epochs", lambda d: d["epochs"][0].update(validation_accuracy=1.0)),
            (2, "epochs", lambda d: d["epochs"][0].update(epoch_seconds=1.0)),
        ],
        ids=["fault-action", "failed-attempt-epoch", "sampled-epoch-seconds"],
    )
    def test_an_edited_decision_or_epoch_diverges(
        self, tmp_path, capsys, monkeypatch, model_id, field, edit
    ):
        from repro.nas.surrogate import SurrogateEvaluator

        evaluate_many = SurrogateEvaluator.evaluate_many

        def crash_after_training(self, individuals):  # model 1's first attempt
            outcomes = evaluate_many(self, individuals)
            return [
                RuntimeError("crashed after training")
                if (individual.model_id, individual.eval_attempt) == (1, 0)
                else outcome
                for individual, outcome in zip(individuals, outcomes)
            ]

        monkeypatch.setattr(SurrogateEvaluator, "evaluate_many", crash_after_training)
        document = dict(small_config_dict(), faults={"max_retries": 1})
        run_workflow(WorkflowConfig.from_dict(document), commons_path=tmp_path)
        record = DataCommons(tmp_path).load_models(RUN_ID)[1]
        assert len(record.epochs) > record.epochs_trained  # attempt 0's epochs kept
        edit_model(tmp_path, RUN_ID, model_id, edit)
        capsys.readouterr()
        assert main(["verify", "--commons", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert f"run {RUN_ID}: DIVERGED (6 models compared)" in out
        assert f"  model {model_id}.{field}: published " in out

    def test_measured_seconds_and_checkpoint_paths_are_not_compared(self, tmp_path, capsys):
        document = small_config_dict(mode="real")
        document["nas"].update(generations=1, max_epochs=2)
        document["engine"]["e_pred"] = 2
        document["dataset"].update(images_per_class=8, image_size=12)
        config = WorkflowConfig.from_dict(document)
        run_workflow(config, commons_path=tmp_path / "c", checkpoint_dir=tmp_path / "ck")

        def edit(d):
            d["engine_overhead_seconds"] += 1.0
            d["epochs"][0]["epoch_seconds"] *= 2
            d["epochs"][0]["checkpoint"]["state"] = "elsewhere/epoch_1.state.npz"

        edit_model(tmp_path / "c", config.resolved_run_id(), 0, edit)
        capsys.readouterr()
        assert main(["verify", "--commons", str(tmp_path / "c")]) == 0
        assert "REPRODUCED (3 models compared)" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_published_run(self, tmp_path, capsys):
        config_path = atomic_write_json(tmp_path / "cfg.json", small_config_dict())
        commons_dir = tmp_path / "commons"
        main(["run", "--config", str(config_path), "--commons", str(commons_dir)])
        capsys.readouterr()
        code = main(["analyze", "--commons", str(commons_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "## Pareto frontier" in out
        assert "terminated early" in out
        assert "| status | complete |" in out

    def test_analyze_and_report_a_one_model_run(self, tmp_path, capsys):
        # too few records for a correlation: the report says so and goes on
        document = small_config_dict()
        document["nas"].update(population_size=1, offspring_per_generation=1, generations=1)
        config_path = atomic_write_json(tmp_path / "cfg.json", document)
        commons_dir = tmp_path / "commons"
        main(["run", "--config", str(config_path), "--commons", str(commons_dir)])
        capsys.readouterr()
        assert main(["analyze", "--commons", str(commons_dir)]) == 0
        out = capsys.readouterr().out
        assert "Spearman rho = n/a (need >= 3 evaluated records, have 1)" in out
        assert "## Pareto frontier" in out
        report_path = tmp_path / "report.md"
        assert main(["analyze", "--commons", str(commons_dir), "--output", str(report_path)]) == 0
        assert "Spearman rho = n/a (need >= 3" in report_path.read_text(encoding="utf-8")

    def test_analyze_empty_commons_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["analyze", "--commons", str(tmp_path / "empty")])
        assert code == 1
        assert "no runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["verify", "--run-id", "x"]], ids=["analyze", "verify"]
    )
    def test_missing_commons_is_one_error_line_and_is_not_created(self, tmp_path, capsys, argv):
        # a typo in --commons must not leave an empty commons behind
        missing = tmp_path / "nocommons"
        assert main([*argv, "--commons", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"a4nn: error: no data commons at {missing}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    @pytest.mark.parametrize(
        "run_id, message",
        [
            ("nope", "run 'nope' is not in the commons"),
            (".", "run id must be one plain directory name, got '.'"),
            ("..", "run id must be one plain directory name, got '..'"),
            ("../x", "run id must be one plain directory name, got '../x'"),
        ],
    )
    def test_bad_run_id_is_one_error_line(self, tmp_path, capsys, command, run_id, message):
        assert main([command, "--commons", str(tmp_path), "--run-id", run_id]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"a4nn: error: {message}")
        assert captured.err.count("\n") == 1
