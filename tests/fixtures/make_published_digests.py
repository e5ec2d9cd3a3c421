"""Regenerate ``published_digests.json``.

Run from the repo root with
``PYTHONPATH=src python tests/fixtures/make_published_digests.py``.
The fixture pins the sha256 of every JSON file a small seeded steady
search publishes (and republishes after a resume), so a change to how
records are serialised is byte-compared against the commit it was
written at: the parent of the PR that replaced ``dataclasses.asdict``
in ``lineage/records.py``.  Re-pinned three times since, each time for
the two ``run.json`` entries only, while the 60 model files and both
manifests kept their digests: by the change that removed
``WorkflowConfig.arena`` (one key fewer), by the change that removed
``WorkflowConfig.dtype`` and ``rng_keying`` (two keys fewer), and by the
change that removed the four settings no run could vary (the workflow's
checkpoint switch, the dataset's dtype, and the search's initial density
and mutation rate; four keys fewer).  Re-pinned a fourth time, for the
two ``run.json`` and the two ``manifest.json`` entries, by the change
that made ``run.json`` hold only the run id and its stored config and
the manifest list run ids without totals; the 60 model files kept their
digests.  The run is defined once, in
``tests/test_properties_fastpaths.py::published_digests``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))

from test_properties_fastpaths import published_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        digests = published_digests(Path(root))
    out = FIXTURES / "published_digests.json"
    out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(digests)} files)")


if __name__ == "__main__":
    main()
