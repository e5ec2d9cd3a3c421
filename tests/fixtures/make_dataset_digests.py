"""Regenerate ``dataset_digests.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_dataset_digests.py``.
The fixture pins a content hash (shapes, dtypes and bytes of x/y
train/test) of fourteen generated datasets: three beam intensities at
four sizes, one medium set cast to float32 the way a run casts it, and
one three-protein set.  It was written
at the parent of the change that made the diffraction simulator sum
each shot's structure factor separably, so the photon-count images of
the new kernel are byte-compared against the per-pixel sum it
replaced.  The datasets are defined once, in
``tests/test_xfel.py::dataset_digests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_xfel import dataset_digests  # noqa: E402


def main() -> None:
    digests = dataset_digests()
    out = FIXTURES / "dataset_digests.json"
    out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(digests)} datasets)")


if __name__ == "__main__":
    main()
