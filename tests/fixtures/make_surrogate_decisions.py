"""Regenerate ``surrogate_decisions.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_surrogate_decisions.py``.
The fixture pins every model's surrogate decision
``(model_id, predicted_fitness, predicted_rank, budget_assigned,
skip_reason)`` for barrier evolution and steady evolution at lag 1, 3
and 7, each at ``probe_epochs`` 0 and 1.  It was written at the parent
of the change that retired the predictor's commit-count prefixes, so
the decisions of the predictor that scores against every observation
are compared against the prefix-addressed one.  The sweep is defined
once, in ``tests/test_surrogate_decisions.py::surrogate_decisions``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_surrogate_decisions import surrogate_decisions  # noqa: E402


def main() -> None:
    pinned = surrogate_decisions()
    out = FIXTURES / "surrogate_decisions.json"
    # one model per line
    blocks = [
        f"{json.dumps(key)}: [\n  " + ",\n  ".join(map(json.dumps, pinned[key])) + "\n ]"
        for key in sorted(pinned)
    ]
    out.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
    print(f"wrote {out} ({sum(map(len, pinned.values()))} models)")


if __name__ == "__main__":
    main()
