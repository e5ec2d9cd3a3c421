"""Regenerate ``faulted_trails.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_faulted_trails.py``.
The fixture pins the record trails, as a seeded rerun reproduces them
(``repro.lineage.reproducible``) less the sampled epoch seconds, of the
seeded inline run of
``tests/test_procpool.py::TestBackendParitySurrogate::test_fault_injection_parity``:
crashes, hangs and NaNs injected into 30 % of attempts, one retry each,
then quarantine.  Inline and process runs route faults through one
rule, so their parity alone would not see a change that moved both;
each is also held against this file.  It was written at the parent of the
change that moved retry and quarantine out of the evaluator chain into
the evaluation streams.  The run is ``faulty_config("thread", 1)``
there, and ``pinned_fault_trails`` picks the fields.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_procpool import faulty_config, pinned_fault_trails  # noqa: E402

from repro.workflow.orchestrator import A4NNOrchestrator  # noqa: E402


def main() -> None:
    trails = pinned_fault_trails(A4NNOrchestrator(faulty_config("thread", 1)).run())
    out = FIXTURES / "faulted_trails.json"
    out.write_text(json.dumps(trails, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(trails)} records)")


if __name__ == "__main__":
    main()
