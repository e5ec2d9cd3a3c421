"""Alternating parent/change pairs of the benchmark's contract command.

``python tools/pairs.py --parent REF --workload NAME --seeds A-B [--out FILE]``

Extracts ``REF`` with ``git archive`` into a temporary directory and compiles
both trees' ``src`` and ``bench_spine`` to bytecode once, so that neither side
pays for compiling its imports (under ``PYTHONDONTWRITEBYTECODE`` the fresh
extract would otherwise compile them in every run).  Then per seed it runs
each tree's own ``bench_spine/run.py --seconds 5 --trace 0`` (the
parent first on even seeds, this working tree first on odd ones) and appends
one JSON line per run to FILE.  Prints each ``BENCHMARK.json`` metric's
medians, quartiles and wins, and ``peak_rss_mb`` by ``executions``: ``run.py``
keeps every execution alive, and a faster tree fits one more into 5 s.  Per
side it also prints the ``import_s`` and ``generate_s`` parts of ``setup_s``
(when the workload has them): they show whether a ``setup_s`` change came
through the noisy import probe or through dataset generation.

A run that fails a check (``run.py`` exits 1) or crashes is recorded as
failing and the sweep goes on; medians, quartiles, wins and the
``peak_rss_mb`` table use correct runs only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the parts of setup_s worth telling apart (surrogate workloads generate no dataset)
SETUP_PARTS = ("import_s", "generate_s")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench_spine/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "5", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:  # the result line is printed after the run file is written
        line = json.loads(done.stdout.strip().splitlines()[-1])
        full = json.loads((tree / "bench_spine/out" / f"run_{workload}_s{seed}_t0.json").read_text())
    except (IndexError, ValueError, OSError):  # crashed before its result line
        return {"ok": False, "executions": None, "digest": None}
    return {"ok": done.returncode == 0 and line["correct"] and not line["failed"],
            "executions": full["executions"],
            "digest": full["digest"][:12],
            **{part: full["setup_parts"].get(part) for part in SETUP_PARTS},
            **{name: metric["value"] for name, metric in line["metrics"].items()}}


def spread(values: list) -> str:
    if not values:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:.4g} ({q1:.4g}-{q3:.4g})"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    parser.add_argument("--out", default="pairs.jsonl")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp, open(args.out, "a", buffering=1) as out:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench_spine"],
                           cwd=tree, check=True)
        for seed in range(first, last + 1):
            order = ("parent", "change")[:: 1 if seed % 2 == 0 else -1]
            for side in order:
                run = run_once(trees[side], args.workload, seed)
                runs[side].append(run)
                out.write(json.dumps({"side": side, "seed": seed, "workload": args.workload,
                                      "first": side == order[0], **run}) + "\n")
            if runs["parent"][-1]["digest"] != runs["change"][-1]["digest"]:
                print(f"seed {seed}: digests differ", *(runs[s][-1]["digest"] for s in runs))
    for side, done in runs.items():
        print(f"{side}: {len(done)} runs, {sum(not r['ok'] for r in done)} incorrect or failing")
    # a pair counts towards wins only when both of its runs are correct
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p["ok"] and c["ok"]]
    runs = {side: [r for r in done if r["ok"]] for side, done in runs.items()}
    for metric in metrics:
        name = metric["name"]
        parent, change = ([r[name] for r in runs[side]] for side in runs)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * c[name] < sign * p[name] for p, c in pairs)
        print(f"{name}: parent {spread(parent)}  change {spread(change)}  "
              f"change better in {wins}/{len(pairs)}")
    for part in SETUP_PARTS:
        if all(r[part] is not None for done in runs.values() for r in done):
            print(f"setup part {part}: " + "  ".join(
                f"{side} {spread([r[part] for r in done])}" for side, done in runs.items()))
    for side, done in runs.items():
        for count in sorted({r["executions"] for r in done}):
            rss = [r["peak_rss_mb"] for r in done if r["executions"] == count]
            print(f"peak_rss_mb {side} at {count} executions: "
                  f"median {statistics.median(rss):.1f} over {len(rss)}")


if __name__ == "__main__":
    main()
