"""Durable JSON / NPZ persistence helpers for the data commons.

Record trails are the product the lineage tracker ships; partially
written files would corrupt the commons, so all writes are atomic
(write to a temporary sibling, then ``os.replace``).
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "read_json",
    "atomic_write_npz",
    "read_npz",
    "JsonEncoder",
]


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


# temporaries are named ``.<name>.<pid>.<n>.tmp``: unique per process
# and, within one, per call (``next`` on a count is atomic under the GIL)
_TMP_SERIAL = itertools.count()


def _atomic_replace(path: Path, writer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # created 0666 so the kernel applies the umask, which ``os.replace``
    # then keeps (``mkstemp`` creates 0600: every file owner-only)
    while True:
        tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:  # left behind by a killed process with this pid
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the path."""
    path = Path(path)
    _atomic_replace(path, lambda fh: fh.write(data))
    return path


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Serialize ``payload`` to JSON (indent 2, sorted keys) at ``path`` atomically."""
    data = json.dumps(payload, indent=2, sort_keys=True, cls=JsonEncoder)
    return atomic_write_bytes(path, data.encode("utf-8"))


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
