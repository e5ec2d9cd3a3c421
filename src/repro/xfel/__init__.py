"""Simulated XFEL protein-diffraction data (spsim + Xmipp substitute).

Generates two-class image datasets — two conformations of a synthetic
eEF2-like protein — at the paper's three beam intensities, with photon
noise that scales inversely with beam fluence.  See DESIGN.md §2 for the
substitution rationale.
"""

from repro.xfel.dataset import (
    DatasetConfig,
    DiffractionDataset,
    generate_dataset,
    generate_dataset_from_proteins,
    load_or_generate,
)
from repro.xfel.diffraction import Detector, diffraction_batch, diffraction_pattern
from repro.xfel.gallery import render_intensity_gallery, render_pattern
from repro.xfel.intensity import BeamIntensity
from repro.xfel.noise import apply_photon_noise, normalize_patterns, snr_estimate
from repro.xfel.orientation import (
    concentrated_rotations,
    quaternion_to_matrix,
    random_rotations,
)
from repro.xfel.protein import Protein, make_conformations, make_protein, rotation_matrix

__all__ = [
    "DatasetConfig",
    "DiffractionDataset",
    "generate_dataset",
    "generate_dataset_from_proteins",
    "load_or_generate",
    "Detector",
    "diffraction_pattern",
    "diffraction_batch",
    "BeamIntensity",
    "apply_photon_noise",
    "normalize_patterns",
    "snr_estimate",
    "random_rotations",
    "concentrated_rotations",
    "quaternion_to_matrix",
    "Protein",
    "make_conformations",
    "make_protein",
    "rotation_matrix",
    "render_pattern",
    "render_intensity_gallery",
]
