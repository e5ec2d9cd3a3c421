"""Alternating parent/change pairs of the benchmark's contract command.

``python tools/pairs.py --parent REF --workload NAME --seeds A-B [--out FILE]``

Extracts ``REF`` with ``git archive`` into a temporary directory, then per
seed runs each tree's own ``bench_spine/run.py --seconds 5 --trace 0`` (the
parent first on even seeds, this working tree first on odd ones) and appends
one JSON line per run to FILE.  Prints each ``BENCHMARK.json`` metric's
medians, quartiles and wins, and ``peak_rss_mb`` by ``executions``: ``run.py``
keeps every execution alive, and a faster tree fits one more into 5 s.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench_spine/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "5", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    full = json.loads((tree / "bench_spine/out" / f"run_{workload}_s{seed}_t0.json").read_text())
    return {"ok": line["correct"] and not line["failed"], "executions": full["executions"],
            "digest": full["digest"][:12],
            **{name: metric["value"] for name, metric in line["metrics"].items()}}


def spread(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:.4g} ({q1:.4g}-{q3:.4g})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    parser.add_argument("--out", default="pairs.jsonl")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp, open(args.out, "a", buffering=1) as out:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
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
    for metric in metrics:
        parent, change = ([r[metric["name"]] for r in runs[side]] for side in runs)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        print(f"{metric['name']}: parent {spread(parent)}  change {spread(change)}  "
              f"change better in {wins}/{len(parent)}")
    for side, done in runs.items():
        for count in sorted({r["executions"] for r in done}):
            rss = [r["peak_rss_mb"] for r in done if r["executions"] == count]
            print(f"peak_rss_mb {side} at {count} executions: "
                  f"median {statistics.median(rss):.1f} over {len(rss)}")


if __name__ == "__main__":
    main()
