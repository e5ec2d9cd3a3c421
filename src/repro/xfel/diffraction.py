"""Far-field diffraction simulation (spsim substitute).

A single XFEL shot records the far-field scattering intensity of one
protein in one orientation.  In the kinematic (single-scattering)
approximation with a flat-Ewald-sphere detector, the complex structure
factor at detector scattering vector ``q = (qx, qy)`` is

.. math::  F(q) = \\sum_j f_j \\exp(i\\, q \\cdot r'_j)

where ``r'`` are the rotated atom positions and ``f_j`` atomic form
factors; the measured intensity is ``|F(q)|^2``.  The detector samples a
Cartesian grid, ``qx`` and ``qy`` each running over one axis, so the
exponential factors into one term per axis and the sum is separable:

.. math::  F = E_y^T \\, \\mathrm{diag}(f) \\, E_x, \\qquad
           (E_x)_{jk} = \\exp(i\\, x'_j\\, q_k), \\quad
           (E_y)_{jk} = \\exp(i\\, y'_j\\, q_k)

with ``E_x`` and ``E_y`` of shape ``(atoms, side)``.  A shot costs
``2 * atoms * side`` complex exponentials and one complex matrix product,
not one exponential per atom and pixel (DESIGN.md §17).
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

    def axis(self) -> np.ndarray:
        """Scattering-vector component along either detector axis, ``(n_pixels,)``."""
        return np.linspace(-self.q_max, self.q_max, self.n_pixels)

    def q_grid(self) -> np.ndarray:
        """Scattering vectors for every pixel, shape ``(n_pixels**2, 2)``.

        Row-major over the image: pixel ``(row, col)`` sees
        ``(axis[col], axis[row])``.
        """
        axis = self.axis()
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
    return diffraction_batch(protein, rotation[None], detector)[0]


def diffraction_batch(
    protein: Protein,
    rotations: np.ndarray,
    detector: Detector,
) -> np.ndarray:
    """Stack of noise-free intensity images, shape ``(n, n_pixels, n_pixels)``.

    Streamed one shot at a time: the shot's two ``(atoms, side)`` wave
    factors go through one ``(2, atoms, side)`` buffer and meet in one
    complex matrix product, so peak memory is one shot's whatever the
    batch size.  Every ufunc and product sees the operands a whole batch
    would give it for that shot, so the images are the batched separable
    expression's to the bit.
    """
    rotations = np.asarray(rotations, dtype=float)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise ValueError(f"rotations must be (n, 3, 3), got {rotations.shape}")
    i_axis = 1j * detector.axis()
    n_shots = rotations.shape[0]
    # (shots, 2, atoms): each shot's projected x and y coordinates
    rotated_xy = np.einsum("nij,aj->nai", rotations, protein.coords)[..., :2].transpose(0, 2, 1)
    form_factors = protein.form_factors[:, None]
    wave = np.empty((2, protein.n_atoms, detector.n_pixels), dtype=complex)
    factors = np.empty((detector.n_pixels, detector.n_pixels), dtype=complex)
    out = np.empty((n_shots, detector.n_pixels, detector.n_pixels))
    for shot in range(n_shots):
        np.multiply(rotated_xy[shot, :, :, None], i_axis, out=wave)
        np.exp(wave, out=wave)  # E_x, E_y
        np.multiply(wave[0], form_factors, out=wave[0])  # diag(f) @ E_x
        np.matmul(wave[1].T, wave[0], out=factors)  # rows are qy, columns qx
        np.abs(factors, out=out[shot])
    return np.square(out, out=out)
