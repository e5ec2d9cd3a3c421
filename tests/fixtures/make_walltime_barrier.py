"""Regenerate ``walltime_barrier.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_walltime_barrier.py``.
The fixture pins every :class:`~repro.scheduler.WallTimeReport` field
and every placement ``(model_id, gpu, start, finish)``, floats as
``repr``, of two seeded barrier searches on 1, 2, 4 and 8 GPUs.  It was
written at the parent of the change that replaced ``GpuPool`` and
``schedule_run`` with :func:`~repro.scheduler.fifo_schedule`, so the
barrier numbers of the one schedule function are byte-compared against
the scheduler it replaced; it was re-pinned once when the engine's
measured in-situ seconds left the simulated schedule (the report lost
its ``engine_overhead_seconds`` field, and the placements their
stand-in overhead).  The searches are defined once, in
``tests/test_walltime.py::walltime_barrier``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_walltime import walltime_barrier  # noqa: E402


def main() -> None:
    pinned = walltime_barrier()
    out = FIXTURES / "walltime_barrier.json"
    out.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(pinned)} searches)")


if __name__ == "__main__":
    main()
