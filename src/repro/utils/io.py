"""Durable JSON / NPZ persistence helpers for the data commons.

Record trails are the product the lineage tracker ships; partially
written files would corrupt the commons, so all writes are atomic
(write to a temporary sibling, then ``os.replace``); a JSON write whose
target already holds the same bytes is skipped.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = ["atomic_write_json", "read_json", "atomic_write_npz", "read_npz", "JsonEncoder"]


class JsonEncoder(json.JSONEncoder):
    """JSON encoder that understands numpy scalars and arrays."""

    def default(self, o: Any) -> Any:
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, Path):
            return str(o)
        return super().default(o)


def _atomic_replace(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(path: str | Path, payload: Any, *, indent: int = 2) -> Path:
    """Serialize ``payload`` to JSON at ``path`` atomically; returns the path.

    A target that already holds exactly these bytes is left as it is — no
    temporary, no rename, same inode and mtime — so re-publishing an
    unchanged record (a resumed run restores hundreds) costs one read.
    """
    path = Path(path)
    data = json.dumps(payload, indent=indent, sort_keys=True, cls=JsonEncoder).encode("utf-8")
    try:
        unchanged = path.read_bytes() == data
    except OSError:  # missing or unreadable: write it
        unchanged = False
    if not unchanged:
        _atomic_replace(path, lambda fh: fh.write(data))
    return path


def read_json(path: str | Path) -> Any:
    """Load a JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def atomic_write_npz(path: str | Path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write named arrays to a compressed ``.npz`` atomically; returns the path."""
    path = Path(path)
    _atomic_replace(path, lambda fh: np.savez_compressed(fh, **dict(arrays)))
    return path


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Load all arrays from an ``.npz`` into a plain dict."""
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}
