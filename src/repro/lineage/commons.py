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
"""

from __future__ import annotations

from pathlib import Path

from repro.lineage.records import ModelRecord, RunRecord
from repro.lineage.tracker import LineageTracker
from repro.utils.io import atomic_write_json, read_json

__all__ = ["DataCommons"]


class DataCommons:
    """Filesystem-backed commons with publish and query operations."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / "manifest.json"

    # -- publishing -------------------------------------------------------------

    def publish_run(
        self,
        run: RunRecord,
        records: list[ModelRecord] | LineageTracker,
    ) -> Path:
        """Store one search run and all of its model record trails.

        Returns the run directory.  Re-publishing the same ``run_id``
        replaces it (runs are immutable-by-convention, replayable by
        seed): the new trails are written first, then every model file
        of the earlier publish that is not among them is deleted, so an
        interrupted publish never leaves fewer trails than either
        version.
        """
        if isinstance(records, LineageTracker):
            records = records.all_records()
        run.n_models = len(records)
        run.total_epochs_trained = sum(r.epochs_trained for r in records)
        run.total_epochs_saved = sum(r.epochs_saved for r in records)
        run.total_epochs_skipped = sum(r.epochs_skipped for r in records)

        run_dir = self.root / "runs" / run.run_id
        atomic_write_json(run_dir / "run.json", run.to_dict())
        written = set()
        for record in records:
            written.add(
                atomic_write_json(
                    run_dir / "models" / f"model_{record.model_id:05d}.json",
                    record.to_dict(),
                )
            )
        for stale in set((run_dir / "models").glob("model_*.json")) - written:
            stale.unlink()
        self._update_manifest(run)
        return run_dir

    def _update_manifest(self, run: RunRecord) -> None:
        manifest = {"runs": {}}
        if self._manifest_path.exists():
            manifest = read_json(self._manifest_path)
        manifest.setdefault("runs", {})[run.run_id] = {
            "intensity": run.intensity,
            "n_models": run.n_models,
            "total_epochs_trained": run.total_epochs_trained,
            "total_epochs_saved": run.total_epochs_saved,
            "total_epochs_skipped": run.total_epochs_skipped,
        }
        atomic_write_json(self._manifest_path, manifest)

    # -- reading -----------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All published run ids, sorted."""
        if not self._manifest_path.exists():
            return []
        return sorted(read_json(self._manifest_path).get("runs", {}))

    def load_run(self, run_id: str) -> RunRecord:
        """Load one run's metadata."""
        return RunRecord.from_dict(read_json(self.root / "runs" / run_id / "run.json"))

    def load_models(self, run_id: str) -> list[ModelRecord]:
        """Load every model record trail of a run, ordered by model id."""
        models_dir = self.root / "runs" / run_id / "models"
        if not models_dir.exists():
            raise FileNotFoundError(f"run {run_id!r} has no models directory")
        # not by file name: ``model_{id:05d}`` puts model_100000 before model_20000
        records = [ModelRecord.from_dict(read_json(p)) for p in models_dir.glob("model_*.json")]
        return sorted(records, key=lambda record: record.model_id)

    def iter_all_models(self):
        """Yield ``(run_id, ModelRecord)`` over the whole commons."""
        for run_id in self.run_ids():
            for record in self.load_models(run_id):
                yield run_id, record

    def size_bytes(self) -> int:
        """Total on-disk footprint of the commons."""
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())
