"""One workload, one interpreter: the measured unit of the benchmark.

``python3 bench_spine/run.py --workload NAME --seed N --seconds S --trace 0|1``

Sets up (imports, config, dataset), executes the workload's timed
section until ``S`` seconds have been measured (at least once), checks
the outputs, writes the full record to ``bench_spine/out/`` and prints
one JSON object as the last line of standard output.  With ``--trace 1``
the section is executed once untraced and once with the timing wrappers
of :mod:`layers` installed; the difference is the tracing overhead.

``bench.py`` starts this file once per repeat of each workload.
"""

from __future__ import annotations

import _env  # noqa: F401  -- first: pins BLAS threads before NumPy loads

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy
import scipy

from repro.analysis import hypervolume_2d, pareto_frontier, skip_report, training_matrix
from repro.lineage.commons import DataCommons
from repro.lineage.records import ModelRecord
from repro.workflow.orchestrator import A4NNOrchestrator
from repro.workflow.resume import resume_workflow
from repro.xfel.dataset import generate_dataset

from hostprobe import HostProbe
from layers import PER_LAYER, layer_metrics, resolve_targets
from spans import Recorder, check_tree, instrument
from workloads import DEFAULT_SEED, EXECUTED_EPOCHS, SCALES, WORKLOADS, Workload

# name, unit, better, bound (relative worsening of the median that counts
# as a regression).  The first four are the bounded metrics of
# BENCHMARK.json: they hold still when the seed changes (per work unit)
# and when the shared host changes speed (times the host's speed over
# the measured stretch, see hostprobe), and their bounds leave room for
# what is left of both.  The rest are the raw readings of one search;
# they compare only at one seed, which is how bench.py and compare.py
# use them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("norm_wall_ms_per_unit", "ms", "lower", 0.25),
    ("norm_cpu_ms_per_unit", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("wall_ms_per_unit", "ms", "lower", 0.25),
    ("cpu_ms_per_unit", "ms", "lower", 0.25),
    ("search_wall_s", "s", "lower", 0.1),
    ("cpu_s", "s", "lower", 0.1),
    ("epochs_trained", "epochs", "lower", 0.02),
    ("best_fitness", "%", "higher", 0.01),
    ("front_hv", "%.FLOPs", "higher", 0.01),
    ("failed_frac", "ratio", "lower", 0.0),  # absolute: any rise is a regression
)
SEED_STEADY = tuple(name for name, *_ in END_TO_END[:4])

#: fields of a lineage record that a seeded run must reproduce bit for bit
DIGEST_FIELDS = (
    "model_id", "generation", "genome", "fitness", "measured_fitness", "flops",
    "terminated_early", "epochs_trained", "fitness_history", "prediction_history",
    "quarantined", "cache_hit", "budget_assigned", "skip_reason",
)

_IMPORT_PROBE = "import repro.workflow.orchestrator, repro.workflow.resume, repro.analysis"
_SHM_DIR = Path("/dev/shm")


def lineage_digest(records) -> str:
    """SHA-256 over the determinism-relevant fields of ``records``."""
    rows = [[getattr(r, name) for name in DIGEST_FIELDS] for r in records]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _env.THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# -- set-up ---------------------------------------------------------------------


def measure_setup(workload: Workload, seed: int, smoke: bool, probes: int = 3):
    """Interpreter start -> ready to search, each part the median of three.

    The imports are timed in fresh interpreters (this one has them
    loaded already); the dataset is generated once untimed and then
    three times warm, because a cold first call on this host ranged
    0.5-2.2 s against 0.56-0.58 s warm.  ``setup_s`` is the sum of the
    parts times the host's speed over the whole set-up (``hostprobe``).
    """
    with HostProbe() as host:
        import_s = []
        for _ in range(probes):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True)
            import_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        config = workload.build(seed, smoke)
        parts = {"import_s": statistics.median(import_s), "config_s": time.perf_counter() - start}
        xfel = {}
        if config.mode == "real":
            calls = []
            for _ in range(1 + probes):
                start = time.perf_counter()
                generate_dataset(config.dataset)
                calls.append(time.perf_counter() - start)
            parts["generate_s"] = statistics.median(calls[1:])
            xfel = {
                "xfel.first_call_s": calls[0],
                "xfel.generate_s": parts["generate_s"],
                "xfel.images_per_s": 2 * config.dataset.images_per_class / parts["generate_s"],
            }
    raw_s = sum(parts.values())
    parts.update(raw_setup_s=raw_s, host_speed=host.speed)
    return config, raw_s * host.speed, parts, xfel


# -- the timed section -----------------------------------------------------------


@dataclass
class Section:
    """Everything one execution of a workload's timed section produced."""

    run: int
    config: object
    result: object
    pool_reports: list
    cache_stats: dict | None
    loaded: list | None = None
    resumed: object | None = None
    publish_bytes: int | None = None
    publish_files: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    host_speed: float = 1.0
    probe_samples: int = 0
    probe_fastest_s: float = 0.0
    work_units: int = 0
    ops_attempted: int = 0
    failures: list = field(default_factory=list)
    leftovers: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def _shm_segments() -> set:
    return set(os.listdir(_SHM_DIR)) if _SHM_DIR.is_dir() else set()


def _drop_second_half(commons: DataCommons, run_id: str, first_dropped: int) -> None:
    """Simulate an interruption: lose every model file from ``first_dropped`` on."""
    for path in (commons.root / "runs" / run_id / "models").glob("model_*.json"):
        if int(path.stem.split("_")[1]) >= first_dropped:
            path.unlink()


def run_section(workload: Workload, config, recorder: Recorder, run: int) -> Section:
    """Execute the timed section once; the program sees only ``config``."""
    recorder.run = run
    _env.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=_env.OUT))
    shm_before = _shm_segments()
    attempted = 0
    failures: list = []

    def stage(name, fn, *args, **kwargs):
        """One counted operation inside a stage span; a raise is recorded."""
        nonlocal attempted
        attempted += 1
        try:
            with recorder.stage(name):
                return fn(*args, **kwargs)
        except Exception:  # boundary: the run goes on and reports the failure
            failures.append(f"{name}: {traceback.format_exc()}")
            return None

    def timed() -> Section:
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        orchestrator = A4NNOrchestrator(config)
        with recorder.stage("workflow.run"):
            result = orchestrator.run()
        section = Section(
            run=run,
            config=config,
            result=result,
            pool_reports=list(orchestrator.pool_reports),
            cache_stats=orchestrator.memoizer.cache.stats() if orchestrator.memoizer else None,
        )
        commons = None
        if "publish" in workload.stages:
            commons = DataCommons(workdir / "commons")
            orchestrator.commons = commons

            def publish():
                orchestrator.publish(result)
                files = sum(1 for p in commons.root.rglob("*") if p.is_file())
                return commons.size_bytes(), files

            published = stage("lineage.publish", publish)
            if published is not None:
                section.publish_bytes, section.publish_files = published

            def load():
                commons.load_run(result.run_id)
                return commons.load_models(result.run_id)

            section.loaded = stage("lineage.load", load)
        if "query" in workload.stages and section.loaded is not None:

            def query():
                training_matrix(section.loaded)
                skip_report(section.loaded)
                front = pareto_frontier(section.loaded)
                return hypervolume_2d(front, ref_fitness=0.0, ref_flops=workload.ref_flops)

            stage("analysis.query", query)
        if "resume" in workload.stages and commons is not None:
            _drop_second_half(commons, result.run_id, config.nas.total_evaluations // 2)
            section.resumed = stage("workflow.resume", resume_workflow, commons, result.run_id)
        section.wall_s = time.perf_counter() - start
        section.cpu_s = _cpu_seconds() - cpu_start
        if orchestrator.pool is not None:
            section.leftovers.append("the orchestrator still holds a worker pool")
        return section

    try:
        with HostProbe(workload.probe) as probe:
            section = timed()
        section.host_speed = probe.speed
        section.probe_samples = len(probe.samples)
        section.probe_fastest_s = min(probe.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    section.ops_attempted = attempted
    section.failures = failures
    if multiprocessing.active_children():
        section.leftovers.append(f"live children: {multiprocessing.active_children()}")
    leaked = _shm_segments() - shm_before
    if leaked:
        section.leftovers.append(f"shared-memory segments left behind: {sorted(leaked)}")
    if workdir.exists():
        section.leftovers.append(f"work directory not removed: {workdir}")
    account(section, workload)
    return section


def account(section: Section, workload: Workload) -> None:
    """Check the execution, then fill in its work units and raw readings."""
    search = section.result.search
    archive = search.archive.members
    front = pareto_frontier(archive)
    if workload.unit == EXECUTED_EPOCHS:
        section.work_units = sum(
            m.result.epochs_trained for m in archive if m.result and not m.cache_hit
        )
    else:
        # lineage commits: every model once, the resumed half a second time
        total = section.config.nas.total_evaluations
        section.work_units = total + (total - total // 2 if section.resumed else 0)
    digest = lineage_digest(section.result.tracker.all_records())
    section.checks = run_checks(section, digest)
    evaluations = len(archive)
    quarantined = search.n_quarantined
    if section.resumed is not None:
        evaluations += len(archive) - len(archive) // 2
        quarantined += section.resumed.search.n_quarantined
    attempted = evaluations + section.ops_attempted
    failed = quarantined + len(section.failures) + sum(not ok for ok, _ in section.checks.values())
    section.raw = {
        "search_wall_s": section.wall_s,
        "cpu_s": section.cpu_s,
        "wall_ms_per_unit": 1e3 * section.wall_s / section.work_units,
        "cpu_ms_per_unit": 1e3 * section.cpu_s / section.work_units,
        "norm_wall_ms_per_unit": 1e3 * section.wall_s * section.host_speed / section.work_units,
        "norm_cpu_ms_per_unit": 1e3 * section.cpu_s * section.host_speed / section.work_units,
        "host_speed": section.host_speed,
        "epochs_trained": section.result.total_epochs_trained,
        "best_fitness": search.population.best_fitness(),
        "front_hv": hypervolume_2d(front, ref_fitness=0.0, ref_flops=workload.ref_flops),
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
    }


# -- correctness -------------------------------------------------------------------


def run_checks(section: Section, digest: str) -> dict:
    """Checks (3)-(5) of the benchmark on one execution: name -> (ok, detail).

    ``digest`` is the lineage digest of the uninterrupted run.  (1) and
    (2) compare executions and live in :func:`same_digest`.
    """
    checks: dict = {}
    result = section.result
    search = result.search
    records = result.tracker.all_records()

    if section.resumed is not None:
        resumed = lineage_digest(section.resumed.tracker.all_records())
        checks["3_resume_digest"] = (resumed == digest, f"{resumed} vs {digest}")

    ledgers = {
        "epochs_trained": (sum(r.epochs_trained for r in records), search.total_epochs_trained),
        "epochs_saved": (sum(r.epochs_saved for r in records), search.total_epochs_saved),
        "epochs_skipped": (sum(r.epochs_skipped for r in records), search.total_epochs_skipped),
    }
    problems = [f"{k}: records {a} != search {b}" for k, (a, b) in ledgers.items() if a != b]
    if sum(a for a, _ in ledgers.values()) != search.epoch_budget:
        problems.append(f"ledgers do not add up to the budget {search.epoch_budget}")
    if any(not 0.0 <= m.fitness <= 100.0 for m in search.archive):
        problems.append("fitness outside [0, 100]")
    if any(m.flops <= 0 for m in search.archive):
        problems.append("non-positive FLOPs")
    if len(search.archive) != section.config.nas.total_evaluations:
        problems.append(f"archive holds {len(search.archive)} models")
    checks["4_ledgers"] = (not problems, "; ".join(problems))

    if section.loaded is not None:
        problems = []
        if len(section.loaded) != section.config.nas.total_evaluations:
            problems.append(f"loaded {len(section.loaded)} records")
        if any(ModelRecord.from_dict(r.to_dict()).to_dict() != r.to_dict() for r in section.loaded):
            problems.append("a record does not round-trip to_dict()")
        if lineage_digest(section.loaded) != digest:
            problems.append("loaded records differ from the tracker's")
        small, large = min(result.walltime), max(result.walltime)
        if small != large and not (
            result.walltime[large].wall_seconds < result.walltime[small].wall_seconds
        ):
            problems.append(f"simulated {large}-GPU wall not below {small}-GPU wall")
        checks["5_commons_roundtrip"] = (not problems, "; ".join(problems))

    checks["no_operation_raised"] = (not section.failures, "\n".join(section.failures))
    checks["nothing_left_behind"] = (not section.leftovers, "; ".join(section.leftovers))
    return checks


def same_digest(digests) -> tuple:
    """Check (1)/(2): executions of one seeded problem share one lineage."""
    distinct = sorted(set(digests))
    return len(distinct) == 1, " vs ".join(distinct)


# -- one invocation ------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Set up, execute, check; returns the full record of this invocation."""
    host = host_facts()
    config, setup_s, setup_parts, xfel = measure_setup(workload, seed, smoke)
    recorder = Recorder()
    sections = []
    per_layer = None
    if traced:
        sections.append(run_section(workload, config, recorder, run=0))
        with instrument(recorder, resolve_targets()):
            sections.append(run_section(workload, config, recorder, run=1))
        per_layer = layer_metrics(
            sections[1], recorder, setup=xfel, untraced_wall=sections[0].wall_s
        )
    else:
        started = time.perf_counter()
        while not sections or time.perf_counter() - started < seconds:
            sections.append(run_section(workload, config, recorder, run=len(sections)))

    # (1), and the span tree, compare or span executions; the rest were
    # checked on each execution and fail the invocation if any one failed
    across = {"1_repeat_digest": same_digest(s.raw["digest"] for s in sections)}
    if traced:
        problems = check_tree(recorder.spans)
        across["span_tree"] = (not problems, "; ".join(problems[:5]))
    checks = dict(across)
    for section in sections:
        for name, (ok, detail) in section.checks.items():
            if name not in checks or not ok:
                checks[name] = (ok, detail)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if config.backend == "process":
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # the untraced executions are the measurement; the traced one only
    # feeds the per-layer numbers
    measured = sections[:1] if traced else sections
    end_to_end = {"setup_s": setup_s, "peak_rss_mb": usage / 1024.0}
    for name, *_ in END_TO_END:
        if name not in end_to_end:
            end_to_end[name] = statistics.median(s.raw[name] for s in measured)
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": "smoke" if smoke else "full",
        "traced": traced,
        "host": host,
        "config": config.to_dict(),
        "ref_flops": workload.ref_flops,
        "unit": workload.unit,
        "setup_parts": setup_parts,
        "end_to_end": end_to_end,
        "executions": len(measured),
        "work_units": measured[0].work_units,
        "host_speed": [s.host_speed for s in sections],
        "probe_samples": [s.probe_samples for s in sections],
        "probe_fastest_s": [s.probe_fastest_s for s in sections],
        "digest": sections[0].raw["digest"],
        "attempted": sum(s.raw["attempted"] for s in sections),
        "failed": sum(s.raw["failed"] for s in sections)
        + sum(not ok for ok, _ in across.values()),
        "correct": all(ok for ok, _ in checks.values()),
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "per_layer": per_layer,
        "spans": recorder.to_rows() if traced else None,
    }


def result_line(record: dict) -> str:
    """The contract's last line: bounded metrics untraced, per-layer traced."""
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    if record["traced"]:
        # the line carries numbers only: an unobservable metric reads 0
        # here and ``null`` in the run file
        values = {k: 0.0 if v is None else v for k, v in record["per_layer"].items()}
    else:
        values = {name: record["end_to_end"][name] for name in SEED_STEADY}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    )


def write_record(record: dict) -> Path:
    """Store the run file (and the trace beside it) under ``out/``."""
    _env.OUT.mkdir(exist_ok=True)
    suffix = "_smoke" if record["scale"] == "smoke" else ""
    spans = record.pop("spans")
    if spans is not None:
        trace = _env.OUT / f"trace_{record['workload']}{suffix}.json"
        trace.write_text(json.dumps({"workload": record["workload"], "spans": spans}))
    path = _env.OUT / (
        f"run_{record['workload']}_s{record['seed']}_t{int(record['traced'])}{suffix}.json"
    )
    path.write_text(json.dumps(record, indent=1))
    return path


def _child_pids() -> list:
    """Processes whose parent is this interpreter, zombies included."""
    me, pids, proc = os.getpid(), [], Path("/proc")
    for entry in proc.iterdir() if proc.is_dir() else ():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:  # ended while we were looking
                continue
            if int(fields[1]) == me:
                pids.append(int(entry.name))
    return pids


def stop_helpers() -> list:
    """End and reap every process this interpreter started; returns the stragglers.

    ``multiprocessing`` starts a resource tracker beside the first spawned
    worker or shared-memory block and never waits for it: it would outlive
    the interpreter, first running and then as a zombie.  It ends when its
    pipe closes; nothing is registered with it any more, because the pool
    unlinks its own segments (``nothing_left_behind`` checks that).  Any
    other child still here is a straggler: it is killed, reaped and named.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    stragglers = _child_pids()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return stragglers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep executing the timed section until this much is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    args = parser.parse_args(argv)
    try:
        record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            args.scale == "smoke",
        )
    finally:
        stragglers = stop_helpers()
    record["checks"]["no_process_left_running"] = {
        "ok": not stragglers, "detail": f"killed {stragglers}" if stragglers else "",
    }
    if stragglers:
        record["correct"] = False
        record["failed"] += 1
    path = write_record(record)
    for name, check in record["checks"].items():
        if not check["ok"]:
            print(f"CHECK FAILED {name}: {check['detail']}", file=sys.stderr)
    print(f"run file: {path.relative_to(_env.REPO)}")
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
