"""Zero-copy views of a diffraction dataset in one inherited memory file.

The process worker pool (:mod:`repro.scheduler.procpool`) cannot pickle
the XFEL dataset into every job — a paper-scale split is hundreds of
megabytes, and each of the N workers would hold its own copy.  Instead
the parent writes the four arrays once into one anonymous memory file
(``os.memfd_create``, Linux) owned by a :class:`SharedArena`, and ships
workers only a tiny picklable :class:`SharedDatasetSpec`: the file's
descriptor number and each array's offset, shape and dtype.  Every
worker inherits the descriptor when it starts and maps the same
physical pages ``PROT_READ`` (:func:`attach_dataset`), so the marginal
memory cost per worker is zero.

Lifecycle contract (see DESIGN "Execution backends"):

* the parent owns the file — it writes it before starting workers and
  closes its descriptor exactly once, in :meth:`SharedArena.close`
  (wired into ``ProcessWorkerPool.close``);
* workers inherit the descriptor under the same number (the pool passes
  it in ``pass_fds``) and only map it; their views are read-only
  because the mapping is, so a buggy evaluator cannot corrupt the
  dataset under its siblings;
* the file has no name: nothing appears under ``/dev/shm`` and nothing
  is registered with a resource tracker.  The kernel frees the pages
  when the last descriptor and mapping are gone, which also happens
  when the parent is killed.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass

import numpy as np

from repro.xfel.dataset import DiffractionDataset
from repro.xfel.intensity import BeamIntensity

__all__ = [
    "SharedArraySpec",
    "SharedDatasetSpec",
    "SharedArena",
    "share_dataset",
    "attach_dataset",
]

#: byte alignment of each array in the file (a cache line)
_ALIGN = 64


@dataclass(frozen=True)
class SharedArraySpec:
    """Where one array lives in the memory file."""

    offset: int
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class SharedDatasetSpec:
    """Picklable handle to a :class:`DiffractionDataset` in a memory file.

    The array payload stays in the file; this spec carries only the
    descriptor number, the file size, offsets, shapes, dtypes, and the
    dataset's scalar metadata, so sending it to a worker costs a few
    hundred bytes regardless of dataset size.
    """

    fd: int
    size: int
    x_train: SharedArraySpec
    y_train: SharedArraySpec
    x_test: SharedArraySpec
    y_test: SharedArraySpec
    intensity_label: str
    image_size: int
    seed: int
    n_classes: int


class SharedArena:
    """Owner of one anonymous memory file (parent side).

    Append arrays with :meth:`share`; call :meth:`close` once every
    worker has started to drop the parent's descriptor.  ``close`` is
    idempotent and also runs from ``__del__`` as a safety net; the
    worker pool calls it explicitly.
    """

    def __init__(self) -> None:
        self.fd: int | None = os.memfd_create("a4nn-dataset")
        self.size = 0

    def share(self, array: np.ndarray) -> SharedArraySpec:
        """Copy ``array`` to the end of the file and return its spec."""
        array = np.ascontiguousarray(array)
        start = -(-self.size // _ALIGN) * _ALIGN
        self.size = start + array.nbytes
        os.ftruncate(self.fd, self.size)
        data, offset = memoryview(array).cast("B"), start
        while data:  # pwrite may stop short of a large buffer
            written = os.pwrite(self.fd, data, offset)
            data, offset = data[written:], offset + written
        return SharedArraySpec(offset=start, shape=tuple(array.shape), dtype=array.dtype.str)

    def close(self) -> None:
        """Close the parent's descriptor (idempotent)."""
        fd, self.fd = self.fd, None
        if fd is not None:
            os.close(fd)

    def __del__(self) -> None:  # pragma: no cover - safety net
        self.close()


def share_dataset(dataset: DiffractionDataset) -> tuple[SharedDatasetSpec, SharedArena]:
    """Write a dataset into a memory file; returns (spec, owning arena)."""
    arena = SharedArena()
    arrays = {name: arena.share(getattr(dataset, name))
              for name in ("x_train", "y_train", "x_test", "y_test")}
    spec = SharedDatasetSpec(
        fd=arena.fd,
        size=arena.size,
        **arrays,
        intensity_label=dataset.intensity.label,
        image_size=dataset.image_size,
        seed=dataset.seed,
        n_classes=dataset.n_classes,
    )
    return spec, arena


def attach_dataset(spec: SharedDatasetSpec) -> tuple[DiffractionDataset, list]:
    """Map a shared dataset read-only (worker side).

    Returns the dataset plus the list holding the live ``mmap``; the
    caller keeps it for as long as the arrays are in use (the views
    borrow its buffer) and may close it once they are gone.
    """
    mapping = mmap.mmap(spec.fd, spec.size, prot=mmap.PROT_READ)

    def view(array: SharedArraySpec) -> np.ndarray:
        dtype = np.dtype(array.dtype)
        flat = np.frombuffer(mapping, dtype=dtype,
                             count=array.nbytes // dtype.itemsize, offset=array.offset)
        return flat.reshape(array.shape)

    dataset = DiffractionDataset(
        x_train=view(spec.x_train),
        y_train=view(spec.y_train),
        x_test=view(spec.x_test),
        y_test=view(spec.y_test),
        intensity=BeamIntensity.from_label(spec.intensity_label),
        image_size=spec.image_size,
        seed=spec.seed,
        n_classes_=spec.n_classes,
    )
    return dataset, [mapping]
