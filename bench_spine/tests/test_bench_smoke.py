"""Smoke test of the benchmark itself, at ``--scale smoke``.

Run with ``python -m pytest bench_spine/tests -q`` from the repo root;
the directory is outside ``testpaths``, so the tier-1 suite is unaffected.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import _env  # noqa: E402,F401
import hostprobe  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> tuple:
    """Run the contract command at smoke scale: (exit code, last line, run file)."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "21", "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=180,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((_env.OUT / f"run_{workload}_s21_t{trace}_smoke.json").read_text())
    return done.returncode, line, record


@pytest.fixture(scope="module")
def traced():
    return {workload: invoke(workload, 1) for workload in WORKLOADS}


def test_benchmark_json_matches_the_tables():
    assert SPEC["paths"] == ["bench_spine"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    steady = [m for m in run.END_TO_END if m[0] in run.SEED_STEADY]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == steady
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER
    ]


def test_untraced_line_carries_every_end_to_end_metric():
    code, line, record = invoke("overhead_steady", 0)
    assert code == 0 and line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in line["metrics"].values())
    # the run file also holds the raw readings bench.py and compare.py use
    assert set(record["end_to_end"]) == {m[0] for m in run.END_TO_END}
    assert all(math.isfinite(v) for v in record["end_to_end"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_line_carries_every_per_layer_metric(traced, workload):
    code, line, record = traced[workload]
    assert code == 0 and line["correct"] and line["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    # in the run file an unobservable metric is an explicit null
    assert set(record["per_layer"]) == set(declared)
    assert all(v is None or math.isfinite(v) for v in record["per_layer"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_correctness_checks_pass(traced, workload):
    _, _, record = traced[workload]
    assert {name for name, check in record["checks"].items() if not check["ok"]} == set()
    expected = {"1_repeat_digest", "4_ledgers", "span_tree", "nothing_left_behind",
                "no_process_left_running"}
    if "resume" in WORKLOADS[workload].stages:
        expected.add("3_resume_digest")
    if "publish" in WORKLOADS[workload].stages:
        expected.add("5_commons_roundtrip")
    assert expected <= set(record["checks"])
    assert record["end_to_end"]["failed_frac"] == 0


def test_backends_share_one_lineage(traced):
    assert traced["real_proc2"][2]["digest"] == traced["real_serial"][2]["digest"]


def test_predicted_blind_spots_and_zeros(traced):
    proc = traced["real_proc2"][2]["per_layer"]
    serial = traced["real_serial"][2]["per_layer"]
    # spawned workers re-import the package: wrappers inside evaluations see nothing
    assert proc["nn.conv_fwd_s"] is None and proc["core.fit_s"] is None
    assert proc["xfel.shm_publish_s"] > 0 and proc["scheduler.pool_wall_s"] > 0
    assert serial["nn.conv_fwd_s"] > 0 and serial["scheduler.pool_wall_s"] is None
    assert traced["surrogate_paper"][2]["per_layer"]["nn.train_s"] == 0
    assert traced["overhead_steady"][2]["per_layer"]["core.engine_calls"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_span_tree_is_well_formed(traced, workload):
    rows = json.loads((_env.OUT / f"trace_{workload}_smoke.json").read_text())["spans"]
    tree = [spans.Span(**row) for row in rows]
    assert tree and spans.check_tree(tree) == []
    by_id = {s.id: s for s in tree}
    assert all(s.parent is None or s.parent in by_id for s in tree)
    assert min(spans.self_seconds(tree).values()) >= -1e-9


def test_instrument_restores_every_original():
    targets = layers.resolve_targets()

    def current(holder, attr):
        return holder[attr] if isinstance(holder, dict) else vars(holder)[attr]

    before = [current(holder, attr) for holder, attr, _ in targets]
    with spans.instrument(spans.Recorder(), targets) as replaced:
        assert len(replaced) == len(targets)
        assert all(current(h, a) is not o for (h, a, _), o in zip(targets, before))
    assert all(current(h, a) is o for (h, a, _), o in zip(targets, before))


@pytest.mark.parametrize("kind", list(hostprobe.KERNELS))
def test_host_probe_samples_and_leaves_no_timer(kind):
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostprobe.HostProbe(kind) as probe:
        deadline = time.perf_counter() + 3.5 * hostprobe.INTERVAL
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) == 3 and 0.1 < probe.speed < 2.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with hostprobe.HostProbe(kind) as short:
        pass
    assert len(short.samples) == 1


def test_workloads_name_a_probe_kernel():
    assert {w.probe for w in WORKLOADS.values()} <= set(hostprobe.KERNELS)


def test_stop_helpers_reaps_the_resource_tracker():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert pid in run._child_pids()
    assert run.stop_helpers() == [] and pid not in run._child_pids()
    idle = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert run.stop_helpers() == [idle.pid] and run._child_pids() == []


def test_corrupted_record_fails_the_resume_check():
    workload = WORKLOADS["overhead_steady"]
    section = run.run_section(workload, workload.build(21, True), spans.Recorder(), run=0)
    assert section.checks["3_resume_digest"][0] and section.raw["failed_frac"] == 0
    record = section.resumed.tracker.records[0]
    record.fitness = record.fitness - 1.0
    run.account(section, workload)
    assert not section.checks["3_resume_digest"][0]
    assert section.raw["failed_frac"] > 0 and section.raw["failed"] == 1
