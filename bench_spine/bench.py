"""Run every workload, print every metric, check the outputs.

``python bench_spine/bench.py [--seed N] [--repeats 3] [--workload NAME] [--scale full|smoke]``

Closed loop, one client: each repeat of each workload is its own fresh
interpreter (``run.py``), one at a time, BLAS pinned to one thread.
Timing metrics are the median of the repeats with min and max beside
them; one more, traced, run per workload gives the per-layer numbers.
Everything lands in ``bench_spine/out/latest.json``; the exit code is
non-zero when any correctness check failed.
"""

from __future__ import annotations

import _env  # noqa: F401  -- first: the children inherit the pinned threads

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END
from workloads import DEFAULT_SEED, SCALES, WORKLOADS

RUN = _env.BENCH_DIR / "run.py"
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS["scheduler.scaling_eff"] = "ratio"

#: must repeat exactly at one seed; the rest are timings
EXACT = ("epochs_trained", "best_fitness", "front_hv", "failed_frac")


def run_once(workload: str, seed: int, scale: str, traced: bool) -> dict:
    """One fresh interpreter; returns the run file it wrote."""
    suffix = "_smoke" if scale == "smoke" else ""
    path = _env.OUT / f"run_{workload}_s{seed}_t{int(traced)}{suffix}.json"
    path.unlink(missing_ok=True)
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(int(traced)), "--scale", scale,
    ]
    # the run file carries everything; stderr (failed checks) passes through
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if not path.exists():
        raise RuntimeError(f"{workload}: run.py exited {done.returncode} without a run file")
    return json.loads(path.read_text())


def bench_workload(workload: str, seed: int, scale: str, repeats: int) -> dict:
    runs = [run_once(workload, seed, scale, traced=False) for _ in range(repeats)]
    traced = run_once(workload, seed, scale, traced=True)
    end_to_end = {}
    for name in runs[0]["end_to_end"]:
        values = [r["end_to_end"][name] for r in runs]
        end_to_end[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    per_layer = dict(traced["per_layer"])
    # tracing overhead against the untraced median, not the one
    # reference execution the traced interpreter made itself
    per_layer["trace.overhead_frac"] = (
        per_layer["workflow.search_wall_s"] / end_to_end["search_wall_s"]["median"] - 1.0
    )
    checks = {}
    for record in runs + [traced]:
        for name, check in record["checks"].items():
            if name not in checks or not check["ok"]:
                checks[name] = check
    digests = sorted({r["digest"] for r in runs + [traced]})
    checks["1_repeat_digest"] = {"ok": len(digests) == 1, "detail": " vs ".join(digests)}
    drifting = [n for n in EXACT if end_to_end[n]["min"] != end_to_end[n]["max"]]
    checks["exact_metrics_repeat"] = {"ok": not drifting, "detail": ", ".join(drifting)}
    return {
        "config": runs[0]["config"],
        "ref_flops": runs[0]["ref_flops"],
        "unit": runs[0]["unit"],
        "work_units": runs[0]["work_units"],
        "digest": runs[0]["digest"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": checks,
        "host": [r["host"] for r in runs + [traced]],
    }


def cross_checks(results: dict) -> None:
    """Check (2) and the scaling efficiency need two workloads' results."""
    serial, proc = results.get("real_serial"), results.get("real_proc2")
    if serial is None or proc is None:
        return
    proc["checks"]["2_backend_digest"] = {
        "ok": serial["digest"] == proc["digest"],
        "detail": f"{serial['digest']} vs {proc['digest']}",
    }
    n_workers = proc["config"]["n_workers"]
    proc["per_layer"]["scheduler.scaling_eff"] = serial["end_to_end"]["search_wall_s"][
        "median"
    ] / (n_workers * proc["end_to_end"]["search_wall_s"]["median"])


def report(results: dict) -> None:
    def show(value) -> str:
        return "null" if value is None else f"{value:.6g}"

    for workload, result in results.items():
        print(f"\n== {workload}  (digest {result['digest'][:16]}, "
              f"{result['work_units']} {result['unit']})")
        print(f"{'end-to-end':28} {'unit':>8} {'median':>12} {'min':>12} {'max':>12}")
        for name, stats in result["end_to_end"].items():
            print(f"{name:28} {UNITS[name]:>8} {show(stats['median']):>12} "
                  f"{show(stats['min']):>12} {show(stats['max']):>12}")
        print(f"{'per-layer (traced run)':38} {'unit':>8} {'value':>12}")
        for name, value in result["per_layer"].items():
            print(f"{name:38} {UNITS[name]:>8} {show(value):>12}")
        for name, check in result["checks"].items():
            print(f"check {name:28} {'ok' if check['ok'] else 'FAILED ' + check['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        help="only this workload (may be given more than once)")
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--out", type=Path, default=_env.OUT / "latest.json")
    args = parser.parse_args(argv)

    results = {
        workload: bench_workload(workload, args.seed, args.scale, args.repeats)
        for workload in (args.workload or WORKLOADS)
    }
    cross_checks(results)
    report(results)
    ok = all(c["ok"] for r in results.values() for c in r["checks"].values())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "scale": args.scale, "repeats": args.repeats,
         "correct": ok, "workloads": results},
        indent=1,
    ))
    print(f"\nwrote {args.out}  correct={ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
