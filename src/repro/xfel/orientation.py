"""Beam-orientation sampling (Xmipp substitute).

In an XFEL experiment every shot catches the protein in a random,
unknown orientation; the simulation pipeline (Xmipp in the paper)
samples orientations explicitly.  We sample rotations uniformly from
SO(3) via unit quaternions (Shoemake's method), which avoids the pole
clustering that naive Euler-angle sampling produces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_rotations",
    "quaternion_to_matrix",
    "concentrated_rotations",
]


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternion(s) ``(..., 4)`` (w, x, y, z) to matrices ``(..., 3, 3)``."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternions must have last dim 4, got {q.shape}")
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("zero quaternion is not a rotation")
    w, x, y, z = np.moveaxis(q / norm, -1, 0)
    matrix = np.empty(q.shape[:-1] + (3, 3))
    matrix[..., 0, 0] = 1 - 2 * (y * y + z * z)
    matrix[..., 0, 1] = 2 * (x * y - w * z)
    matrix[..., 0, 2] = 2 * (x * z + w * y)
    matrix[..., 1, 0] = 2 * (x * y + w * z)
    matrix[..., 1, 1] = 1 - 2 * (x * x + z * z)
    matrix[..., 1, 2] = 2 * (y * z - w * x)
    matrix[..., 2, 0] = 2 * (x * z - w * y)
    matrix[..., 2, 1] = 2 * (y * z + w * x)
    matrix[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return matrix


def random_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample ``count`` rotation matrices uniformly from SO(3).

    Uniform unit quaternions are obtained by normalizing 4-D standard
    normal draws.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    q = rng.normal(size=(count, 4))
    return quaternion_to_matrix(q)


def concentrated_rotations(
    rng: np.random.Generator, count: int, spread: float
) -> np.ndarray:
    """Sample rotations concentrated near the identity.

    ``spread`` in ``(0, 1]`` scales random axis-angle rotations:
    uniformly random axes with angles drawn from ``spread * U(0, pi)``.
    ``spread = 1.0`` delegates to the uniform SO(3) sampler.

    The paper's full-scale dataset (63k images) covers all of SO(3); at
    the reduced dataset sizes this reproduction trains on, full SO(3)
    coverage would leave the orientation manifold under-sampled and the
    task unlearnable for *any* architecture, breaking the evaluation's
    premise.  Restricting the orientation spread keeps per-image
    orientation variability (every shot still differs) while matching
    the task difficulty to the data budget — see DESIGN.md §2.
    """
    if not 0.0 < spread <= 1.0:
        raise ValueError(f"spread must be in (0, 1], got {spread}")
    if spread == 1.0:
        return random_rotations(rng, count)
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = spread * rng.uniform(0.0, np.pi, size=count)
    half = angles / 2.0
    quats = np.concatenate(
        [np.cos(half)[:, None], np.sin(half)[:, None] * axes], axis=1
    )
    return quaternion_to_matrix(quats)
