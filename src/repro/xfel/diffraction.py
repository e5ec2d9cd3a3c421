"""Far-field diffraction simulation (spsim substitute).

A single XFEL shot records the far-field scattering intensity of one
protein in one orientation.  In the kinematic (single-scattering)
approximation with a flat-Ewald-sphere detector, the complex structure
factor at detector scattering vector ``q = (qx, qy)`` is

.. math::  F(q) = \\sum_j f_j \\exp(i\\, q \\cdot r'_j)

where ``r'`` are the rotated atom positions and ``f_j`` atomic form
factors; the measured intensity is ``|F(q)|^2``.  The computation is one
complex matrix product per image (atoms × pixels), fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.xfel.protein import Protein

__all__ = ["Detector", "diffraction_pattern", "diffraction_batch"]


@dataclass(frozen=True)
class Detector:
    """Square detector geometry in reciprocal space.

    Attributes
    ----------
    n_pixels:
        Side length of the square image.
    q_max:
        Maximum scattering-vector magnitude along an axis (rad/unit
        length).  ``q_max * radius_of_gyration ~ 10`` puts several
        speckle fringes on the detector.
    """

    n_pixels: int = 32
    q_max: float = 1.1

    def __post_init__(self) -> None:
        if self.n_pixels < 4:
            raise ValueError(f"n_pixels must be >= 4, got {self.n_pixels}")
        if self.q_max <= 0:
            raise ValueError(f"q_max must be positive, got {self.q_max}")

    def q_grid(self) -> np.ndarray:
        """Scattering vectors for every pixel, shape ``(n_pixels**2, 2)``."""
        axis = np.linspace(-self.q_max, self.q_max, self.n_pixels)
        qx, qy = np.meshgrid(axis, axis, indexing="xy")
        return np.stack([qx.ravel(), qy.ravel()], axis=1)


def diffraction_pattern(
    protein: Protein,
    rotation: np.ndarray,
    detector: Detector,
) -> np.ndarray:
    """Noise-free intensity image ``(n_pixels, n_pixels)`` for one shot."""
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be (3, 3), got {rotation.shape}")
    rotated_xy = (protein.coords @ rotation.T)[:, :2]  # project to detector plane
    q = detector.q_grid()  # (P, 2)
    phase = rotated_xy @ q.T  # (n_atoms, P)
    structure_factor = protein.form_factors @ np.exp(1j * phase)  # (P,)
    intensity = np.abs(structure_factor) ** 2
    return intensity.reshape(detector.n_pixels, detector.n_pixels)


def diffraction_batch(
    protein: Protein,
    rotations: np.ndarray,
    detector: Detector,
) -> np.ndarray:
    """Stack of noise-free intensity images, shape ``(n, n_pixels, n_pixels)``.

    Streamed one shot at a time through two ``(1, atoms, pixels)``
    buffers, so peak memory is one shot's whatever the batch size: the
    first touch of a ``(shots, atoms, pixels)`` temporary costs more
    than the arithmetic on it.  Every ufunc sees the operands a whole
    batch would give it for that shot, so the images are the batched
    expression's to the bit.
    """
    rotations = np.asarray(rotations, dtype=float)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise ValueError(f"rotations must be (n, 3, 3), got {rotations.shape}")
    q_t = detector.q_grid().T  # (2, P)
    n_shots = rotations.shape[0]
    rotated_xy = np.einsum("nij,aj->nai", rotations, protein.coords)[..., :2]
    form_factors = protein.form_factors + 0j
    phase = np.empty((1, protein.n_atoms, q_t.shape[1]))
    wave = np.empty(phase.shape, dtype=complex)
    out = np.empty((n_shots, detector.n_pixels, detector.n_pixels))
    for shot in range(n_shots):
        np.matmul(rotated_xy[shot : shot + 1], q_t, out=phase)
        np.multiply(phase, 1j, out=wave)
        np.exp(wave, out=wave)
        factors = np.einsum("a,nap->np", form_factors, wave)
        out[shot] = (np.abs(factors) ** 2).reshape(detector.n_pixels, detector.n_pixels)
    return out
