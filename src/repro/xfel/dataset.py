"""End-to-end dataset generation with train/test splitting.

Mirrors the paper's data pipeline: simulate diffraction patterns for the
two conformations at a chosen beam intensity, balance the classes, and
produce an 80/20 train/test split (paper: 63,508 / 15,876 images at full
scale; the image count and detector size here are configurable so CPU
training stays tractable — see DESIGN.md substitutions).  Images are
generated in float64, the physics dtype; a run that trains in another
width casts the whole dataset once (:meth:`DiffractionDataset.astype`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.dtype import resolve_dtype
from repro.utils.rng import derive_rng
from repro.utils.validation import ValidationError
from repro.xfel.diffraction import Detector, diffraction_batch
from repro.xfel.intensity import BeamIntensity
from repro.xfel.noise import apply_photon_noise, normalize_patterns
from repro.xfel.orientation import concentrated_rotations
from repro.xfel.protein import make_conformations

__all__ = [
    "DatasetConfig",
    "DiffractionDataset",
    "generate_dataset",
    "generate_dataset_from_proteins",
    "load_or_generate",
]


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs for dataset generation.

    Attributes
    ----------
    intensity:
        Beam setting (low / medium / high).
    images_per_class:
        Total shots per conformation before splitting.
    image_size:
        Detector side length in pixels.
    train_fraction:
        Train share of the split (paper: 0.8); it must leave at least
        one image per class on each side.
    seed:
        Root seed; orientations and noise derive from it.
    n_atoms, q_max:
        Protein/detector physics knobs (see the xfel submodules).
    orientation_spread:
        Fraction of full SO(3) orientation variability; 1.0 is the
        paper's fully random orientations, smaller values compensate for
        reduced dataset sizes (see
        :func:`repro.xfel.orientation.concentrated_rotations`).
    """

    intensity: BeamIntensity = BeamIntensity.HIGH
    images_per_class: int = 300
    image_size: int = 32
    train_fraction: float = 0.8
    seed: int = 2023
    n_atoms: int = 220
    q_max: float = 1.1
    orientation_spread: float = 0.3

    def __post_init__(self) -> None:
        if self.images_per_class < 2:
            raise ValidationError(f"images_per_class must be >= 2, got {self.images_per_class}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        n_train = int(round(self.images_per_class * self.train_fraction))  # the split's own count
        if not 1 <= n_train <= self.images_per_class - 1:
            raise ValidationError(
                f"images_per_class={self.images_per_class} at train_fraction="
                f"{self.train_fraction} puts {n_train} of each class in training; "
                "both splits need at least one image per class"
            )


@dataclass
class DiffractionDataset:
    """A generated, split, normalized dataset ready for training.

    Images are NCHW floats with one channel, float64 as generated (a
    run casts them to its compute dtype with :meth:`astype`); labels are
    0 for conformation A, 1 for conformation B.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    intensity: BeamIntensity
    image_size: int
    seed: int

    n_classes_: int = 2

    @property
    def n_classes(self) -> int:
        return self.n_classes_

    @property
    def input_shape(self) -> tuple:
        """Per-sample NCHW shape."""
        return (1, self.image_size, self.image_size)

    @property
    def dtype(self) -> np.dtype:
        """Image dtype (train and test splits always agree)."""
        return self.x_train.dtype

    def astype(self, dtype) -> "DiffractionDataset":
        """This dataset with images cast to ``dtype`` (self if already there).

        Labels stay int64; casting float64 -> float32 rounds the images
        but changes nothing about which samples were drawn.
        """
        target = resolve_dtype(dtype)
        if self.x_train.dtype == target and self.x_test.dtype == target:
            return self
        return DiffractionDataset(
            x_train=self.x_train.astype(target),
            y_train=self.y_train,
            x_test=self.x_test.astype(target),
            y_test=self.y_test,
            intensity=self.intensity,
            image_size=self.image_size,
            seed=self.seed,
            n_classes_=self.n_classes_,
        )

    def class_balance(self) -> dict:
        """Per-split class counts, for sanity checks."""
        return {
            "train": np.bincount(self.y_train, minlength=self.n_classes).tolist(),
            "test": np.bincount(self.y_test, minlength=self.n_classes).tolist(),
        }


def generate_dataset(config: DatasetConfig) -> DiffractionDataset:
    """Simulate, noise, normalize, and split a two-conformation dataset."""
    conf_a, conf_b = make_conformations(n_atoms=config.n_atoms, seed=config.seed)
    return generate_dataset_from_proteins((conf_a, conf_b), config)


def generate_dataset_from_proteins(proteins, config: DatasetConfig) -> DiffractionDataset:
    """Simulate a dataset with one class per protein in ``proteins``.

    Generalizes :func:`generate_dataset` to multi-class problems (e.g.
    classifying protein *types*, the wider XPSI use case); class ``i``
    is ``proteins[i]``.  Protein names must be unique — they key the
    per-class orientation and noise streams.
    """
    proteins = tuple(proteins)
    if len(proteins) < 2:
        raise ValueError(f"need at least 2 proteins, got {len(proteins)}")
    names = [p.name for p in proteins]
    if len(set(names)) != len(names):
        raise ValueError(f"protein names must be unique, got {names}")
    detector = Detector(n_pixels=config.image_size, q_max=config.q_max)

    images = []
    labels = []
    for label, protein in enumerate(proteins):
        rot_rng = derive_rng(config.seed, "orientations", protein.name)
        noise_rng = derive_rng(config.seed, "noise", protein.name, config.intensity.label)
        rotations = concentrated_rotations(
            rot_rng, config.images_per_class, config.orientation_spread
        )
        clean = diffraction_batch(protein, rotations, detector)
        noisy = apply_photon_noise(clean, config.intensity, noise_rng)
        images.append(normalize_patterns(noisy))
        labels.append(np.full(config.images_per_class, label, dtype=np.int64))

    x = np.concatenate(images, axis=0)[:, None, :, :]  # NCHW, one channel
    y = np.concatenate(labels, axis=0)

    # stratified split: identical per-class proportions in both splits
    split_rng = derive_rng(config.seed, "split", config.intensity.label)
    train_idx, test_idx = [], []
    for label in range(len(proteins)):
        members = np.flatnonzero(y == label)
        members = split_rng.permutation(members)
        n_train = int(round(len(members) * config.train_fraction))
        train_idx.append(members[:n_train])
        test_idx.append(members[n_train:])
    train_idx = split_rng.permutation(np.concatenate(train_idx))
    test_idx = split_rng.permutation(np.concatenate(test_idx))

    return DiffractionDataset(
        x_train=x[train_idx],
        y_train=y[train_idx],
        x_test=x[test_idx],
        y_test=y[test_idx],
        intensity=config.intensity,
        image_size=config.image_size,
        seed=config.seed,
        n_classes_=len(proteins),
    )


def load_or_generate(config: DatasetConfig) -> DiffractionDataset:
    """The dataset a real-mode run trains on: :func:`generate_dataset`.

    The orchestrator loads its dataset through this name, not
    :func:`generate_dataset`, because the benchmark harness times it
    there (``xfel.load_in_run``).
    """
    return generate_dataset(config)
