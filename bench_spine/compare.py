"""Compare two result files of ``bench.py``: ``compare.py A.json B.json``.

For every (workload, end-to-end metric) prints both medians with their
min-max, the relative change of B against A and the metric's bound, and
a verdict:

* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — it did not;
* ``unresolved`` — the repeats of either side spread wider than the
  bound (distance between their quartiles, over A's median) and the two
  ranges overlap, so the files cannot tell.

Exits non-zero on any ``worse``, on a higher ``failed_frac``, or when a
workload's lineage digest changed.
"""

from __future__ import annotations

import json
import statistics
import sys

import _env  # noqa: F401
from run import END_TO_END


def quartile_distance(values) -> float:
    """Q3 - Q1 as ``statistics.quantiles`` gives them; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(verdict, change)``; ``change`` is relative to A, positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:  # absolute: compared as is, no spread allowed
        change = sign * (b["median"] - a["median"])
        return ("worse" if change > 0 else "better" if change < 0 else "same"), change
    base = abs(a["median"])
    change = sign * (b["median"] - a["median"]) / base
    spread = max(quartile_distance(a["values"]), quartile_distance(b["values"])) / base
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def _cell(stats: dict) -> str:
    return f"{stats['median']:.5g} [{stats['min']:.5g}, {stats['max']:.5g}]"


def compare(a: dict, b: dict) -> int:
    failures = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload}: missing from B")
            failures += 1
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        same_lineage = wa["digest"] == wb["digest"]
        failures += not same_lineage
        print(f"\n== {workload}  lineage digest "
              f"{'identical' if same_lineage else 'CHANGED'}")
        print(f"{'metric':18} {'A median [min, max]':>36} {'B median [min, max]':>36} "
              f"{'change':>8} {'bound':>6}  verdict")
        for name, _, better, bound in END_TO_END:
            sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
            result, change = verdict(sa, sb, better, bound)
            failures += result == "worse"
            print(f"{name:18} {_cell(sa):>36} {_cell(sb):>36} {change:>+8.3f} {bound:>6.2f}  {result}")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in argv)
    failures = compare(a, b)
    print(f"\n{failures} regression(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
