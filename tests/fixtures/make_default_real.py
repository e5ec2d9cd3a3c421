"""Regenerate ``default_real.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_default_real.py``.
The fixture pins the lineage of a small seeded real-mode run on the
defaults every new run takes (float32, genome-keyed RNG, evaluation
cache on): per record, the fields ``bench_spine/run.py`` digests, so
no wall-clock field and no training loss.  It was written at the parent
of the change that removed model keying and the workflow-level dtype,
so the one evaluation path that stays is compared against itself from
before the other went.  The run is
``tests/test_procpool.py::real_config("thread", 1)``, and
``default_real_records`` there picks the fields.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_procpool import default_real_records, real_config  # noqa: E402

from repro.workflow.orchestrator import A4NNOrchestrator  # noqa: E402


def main() -> None:
    records = default_real_records(A4NNOrchestrator(real_config("thread", 1)).run())
    out = FIXTURES / "default_real.json"
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(records)} records)")


if __name__ == "__main__":
    main()
