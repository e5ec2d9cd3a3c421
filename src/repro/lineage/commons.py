"""The NN data commons: a durable, queryable store of record trails.

Stands in for the paper's Harvard Dataverse deposit: a directory of
JSON documents with a manifest, one run document per search, one model
document per architecture — "enabling reproducible and explainable
machine learning".  The layout is plain files so any tool (or the
paper's own Pandas snippet) can read it:

.. code-block:: text

    commons/
      manifest.json
      runs/<run_id>/run.json
      runs/<run_id>/models/model_00042.json

A run writes in situ: ``start_run`` writes its ``run.json`` (the run id
and the stored config, never rewritten) before its search,
``write_model`` each model's file as it commits, and ``publish_run``
lists the run in the manifest at the end.  Nothing else is stored: a
run's totals are sums over its model files.  A run id in the manifest
names a complete directory; an unlisted directory is an incomplete run,
which :func:`~repro.workflow.resume.resume_workflow` continues.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lineage.records import ModelRecord, RunRecord
from repro.utils.io import atomic_write_bytes, atomic_write_json, read_json
from repro.utils.validation import ValidationError, ensure_plain_name

__all__ = ["DataCommons"]


class DataCommons:
    """Filesystem-backed commons with publish and query operations."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)  # made by the first write, never by a reader
        self._manifest_path = self.root / "manifest.json"

    # -- publishing -------------------------------------------------------------

    def start_run(self, run: RunRecord) -> None:
        """Begin ``run`` afresh: drop its manifest entry, then any earlier
        directory under its id, then write its ``run.json``."""
        ensure_plain_name(run.run_id, "run id")  # it names the directory removed here
        manifest = self._manifest()
        if manifest["runs"].pop(run.run_id, None) is not None:
            atomic_write_json(self._manifest_path, manifest)
        shutil.rmtree(self.root / "runs" / run.run_id, ignore_errors=True)
        atomic_write_json(self.root / "runs" / run.run_id / "run.json", run.to_dict())

    def write_model(self, run_id: str, record: ModelRecord) -> Path:
        """Write one committed model's record trail; returns its path.

        The file is :meth:`ModelRecord.to_json`: the same bytes
        :func:`atomic_write_json` would write for ``record.to_dict()``.
        """
        path = self.root / "runs" / run_id / "models" / f"model_{record.model_id:05d}.json"
        return atomic_write_bytes(path, record.to_json().encode("utf-8"))

    def publish_run(self, run_id: str) -> None:
        """List ``run_id``, its model files written, in the manifest: the run is complete."""
        manifest = self._manifest()
        manifest["runs"][run_id] = {}
        atomic_write_json(self._manifest_path, manifest)

    def _manifest(self) -> dict:
        manifest = read_json(self._manifest_path) if self._manifest_path.exists() else {}
        manifest.setdefault("runs", {})
        return manifest

    # -- reading -----------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All published (complete) run ids, sorted."""
        return sorted(self._manifest()["runs"])

    def load_run(self, run_id: str) -> RunRecord:
        """Load one run's id and stored config, published or not."""
        path = self.root / "runs" / ensure_plain_name(run_id, "run id") / "run.json"
        if not path.is_file():
            raise ValidationError(f"run {run_id!r} is not in the commons {self.root}")
        try:
            return RunRecord.from_dict(read_json(path))
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    def load_models(self, run_id: str) -> list[ModelRecord]:
        """Load every model record trail of a run, ordered by model id.

        As in a live tracker, records with equal ``training_parameters``
        share one dict (the run's).  A run killed before its first commit
        has none.
        """
        models_dir = self.root / "runs" / run_id / "models"
        if not models_dir.parent.exists():
            raise FileNotFoundError(f"run {run_id!r} is not in the commons")
        # not by file name: ``model_{id:05d}`` puts model_100000 before model_20000
        records = [ModelRecord.from_dict(read_json(p)) for p in models_dir.glob("model_*.json")]
        shared: list[dict] = []
        for record in records:
            parameters = record.training_parameters
            for candidate in shared:
                if candidate == parameters:
                    record.training_parameters = candidate
                    break
            else:
                shared.append(parameters)
        return sorted(records, key=lambda record: record.model_id)

    def size_bytes(self) -> int:
        """Total on-disk footprint of the commons."""
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())
