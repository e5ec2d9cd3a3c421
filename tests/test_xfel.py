"""Tests for the XFEL diffraction data simulation."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.xfel import (
    BeamIntensity,
    DatasetConfig,
    Detector,
    DiffractionDataset,
    Protein,
    apply_photon_noise,
    concentrated_rotations,
    diffraction_batch,
    diffraction_pattern,
    generate_dataset,
    generate_dataset_from_proteins,
    make_conformations,
    make_protein,
    normalize_patterns,
    quaternion_to_matrix,
    random_rotations,
    rotation_matrix,
    snr_estimate,
)
from repro.utils.rng import derive_rng

DATASET_DIGESTS = Path(__file__).resolve().parent / "fixtures" / "dataset_digests.json"


def _dataset_fingerprint(dataset: DiffractionDataset) -> str:
    """Content hash of a dataset's four arrays, shapes and dtypes included."""
    digest = hashlib.blake2b(digest_size=16)
    for array in (dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test):
        array = np.ascontiguousarray(array)
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def dataset_digests() -> dict:
    """Content hash of x/y train/test of every dataset ``dataset_digests.json`` pins."""
    digests = {}
    for intensity in BeamIntensity:
        for per_class, size in ((20, 32), (12, 16), (40, 17), (300, 32)):
            config = DatasetConfig(intensity=intensity, images_per_class=per_class, image_size=size)
            digests[f"{intensity.label}_n{per_class}_s{size}"] = _dataset_fingerprint(
                generate_dataset(config)
            )
    medium = DatasetConfig(intensity=BeamIntensity.MEDIUM, images_per_class=20, image_size=32)
    digests["float32_medium_n20_s32"] = _dataset_fingerprint(
        generate_dataset(medium).astype("float32")
    )
    proteins = tuple(
        make_protein(name, n_atoms=n_atoms, seed=3)
        for name, n_atoms in (("alpha", 60), ("beta", 140), ("gamma", 220))
    )
    three = DatasetConfig(intensity=BeamIntensity.HIGH, images_per_class=12, image_size=17, seed=7)
    digests["three_proteins_high_n12_s17"] = _dataset_fingerprint(
        generate_dataset_from_proteins(proteins, three)
    )
    return digests


class TestBeamIntensity:
    def test_paper_fluences(self):
        assert BeamIntensity.LOW.photons_per_um2 == 1e14
        assert BeamIntensity.MEDIUM.photons_per_um2 == 1e15
        assert BeamIntensity.HIGH.photons_per_um2 == 1e16

    def test_photon_budget_ordering(self):
        assert (
            BeamIntensity.LOW.photon_budget
            < BeamIntensity.MEDIUM.photon_budget
            < BeamIntensity.HIGH.photon_budget
        )

    def test_label_round_trip(self):
        for member in BeamIntensity:
            assert BeamIntensity.from_label(member.label) is member
            assert BeamIntensity.from_label(member.label.upper()) is member

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown beam intensity"):
            BeamIntensity.from_label("ultra")


class TestProtein:
    def test_conformations_same_composition(self):
        a, b = make_conformations(n_atoms=100)
        assert a.n_atoms == b.n_atoms == 100
        np.testing.assert_array_equal(a.form_factors, b.form_factors)

    def test_conformations_differ_structurally(self):
        a, b = make_conformations(n_atoms=100)
        rmsd = np.sqrt(np.mean(np.sum((a.coords - b.coords) ** 2, axis=1)))
        assert rmsd > 1.0  # the domain actually moved

    def test_centered(self):
        a, _ = make_conformations(n_atoms=60)
        com = np.average(a.coords, axis=0, weights=a.form_factors)
        np.testing.assert_allclose(com, 0.0, atol=1e-9)

    def test_deterministic_per_seed(self):
        a1, _ = make_conformations(seed=5)
        a2, _ = make_conformations(seed=5)
        np.testing.assert_array_equal(a1.coords, a2.coords)
        a3, _ = make_conformations(seed=6)
        assert not np.array_equal(a1.coords, a3.coords)

    def test_radius_of_gyration_near_requested(self):
        a, _ = make_conformations(n_atoms=200, radius=10.0)
        assert a.radius_of_gyration() == pytest.approx(10.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Protein("x", np.zeros((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            Protein("x", np.zeros((3, 3)), np.ones(4))
        with pytest.raises(ValueError):
            make_conformations(hinge_fraction=1.5)

    def test_rotation_matrix_orthonormal(self):
        rot = rotation_matrix(np.array([1.0, 2.0, 0.5]), 0.7)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)


class TestOrientations:
    def test_random_rotations_are_rotations(self, rng):
        rots = random_rotations(rng, 50)
        assert rots.shape == (50, 3, 3)
        for rot in rots:
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_quaternion_identity(self):
        np.testing.assert_allclose(
            quaternion_to_matrix(np.array([1.0, 0, 0, 0])), np.eye(3), atol=1e-12
        )

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_matrix(np.zeros(4))

    def test_concentrated_spread_limits_angle(self, rng):
        rots = concentrated_rotations(rng, 100, 0.2)
        # rotation angle from trace: cos(theta) = (tr - 1) / 2
        angles = np.arccos(np.clip((np.trace(rots, axis1=1, axis2=2) - 1) / 2, -1, 1))
        assert angles.max() <= 0.2 * np.pi + 1e-9

    def test_spread_one_is_uniform_sampler(self, rng):
        rots = concentrated_rotations(rng, 10, 1.0)
        assert rots.shape == (10, 3, 3)

    def test_invalid_spread(self, rng):
        with pytest.raises(ValueError):
            concentrated_rotations(rng, 5, 0.0)


def per_pixel_batch(protein, rotations, detector) -> np.ndarray:
    """The per-pixel sum the separable kernel replaced, kept as its oracle:
    one exponential per atom and detector pixel, summed over atoms."""
    rotated_xy = np.einsum("nij,aj->nai", rotations, protein.coords)[..., :2]
    phase = rotated_xy @ detector.q_grid().T  # (shots, atoms, pixels)
    factors = np.einsum("a,nap->np", protein.form_factors + 0j, np.exp(1j * phase))
    return (np.abs(factors) ** 2).reshape(-1, detector.n_pixels, detector.n_pixels)


class TestDiffraction:
    def test_pattern_shape_and_positivity(self):
        protein, _ = make_conformations(n_atoms=50)
        pattern = diffraction_pattern(protein, np.eye(3), Detector(n_pixels=16))
        assert pattern.shape == (16, 16)
        assert np.all(pattern >= 0)

    def test_central_speckle_is_brightest(self):
        # at q=0 all atoms scatter in phase: I(0) = (sum f)^2 is the max
        protein, _ = make_conformations(n_atoms=80)
        pattern = diffraction_pattern(protein, np.eye(3), Detector(n_pixels=17))
        center = pattern[8, 8]
        assert center == pytest.approx(protein.form_factors.sum() ** 2, rel=1e-6)
        assert center == pattern.max()

    def test_batch_matches_single(self, rng):
        # a single pattern is a batch of one, and a shot's image does not
        # depend on the batch it is streamed in
        protein, _ = make_conformations(n_atoms=40)
        detector = Detector(n_pixels=12)
        rots = random_rotations(rng, 3)
        batch = diffraction_batch(protein, rots, detector)
        for i in range(3):
            single = diffraction_pattern(protein, rots[i], detector)
            np.testing.assert_array_equal(batch[i], single)

    @pytest.mark.parametrize("n_shots", [1, 20, 89, 200])
    def test_streamed_batch_equals_the_batched_expression(self, n_shots):
        # the whole-batch separable sum: (shots, 2, atoms, side) wave
        # factors and one stacked complex matmul, which the per-shot
        # stream must reproduce to the bit
        protein, _ = make_conformations(n_atoms=60)
        detector = Detector(n_pixels=12)
        rots = concentrated_rotations(np.random.default_rng(n_shots), n_shots, 0.35)
        rotated_xy = np.einsum("nij,aj->nai", rots, protein.coords)[..., :2]
        waves = np.exp(rotated_xy.transpose(0, 2, 1)[..., None] * (1j * detector.axis()))
        factors = waves[:, 1].transpose(0, 2, 1) @ (protein.form_factors[:, None] * waves[:, 0])
        expected = np.abs(factors) ** 2
        np.testing.assert_array_equal(diffraction_batch(protein, rots, detector), expected)

    @pytest.mark.parametrize("q_max", [0.5, 1.1, 3.0])
    @pytest.mark.parametrize("n_pixels", [12, 33])
    def test_separable_sum_matches_the_per_pixel_sum(self, n_pixels, q_max):
        detector = Detector(n_pixels=n_pixels, q_max=q_max)
        for n_atoms, n_shots in ((20, 30), (220, 1), (220, 30)):
            protein = make_protein("oracle", n_atoms=n_atoms, seed=n_pixels)
            rots = random_rotations(np.random.default_rng(n_atoms + n_shots), n_shots)
            expected = per_pixel_batch(protein, rots, detector)
            scale = expected.max(axis=(1, 2), keepdims=True)
            error = np.abs(diffraction_batch(protein, rots, detector) - expected) / scale
            assert error.max() <= 1e-12, (n_atoms, n_shots, error.max())

    def test_batch_memory_is_one_shot_whatever_the_batch(self):
        protein, _ = make_conformations(n_atoms=220)
        detector = Detector(n_pixels=32)
        rots = concentrated_rotations(np.random.default_rng(5), 40, 0.35)
        one_complex_buffer = protein.n_atoms * detector.n_pixels**2 * 16
        tracemalloc.start()
        diffraction_batch(protein, rots, detector)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # a (40, atoms, pixels) complex temporary would be 40 buffers
        assert peak < 8 * one_complex_buffer, f"peak {peak} bytes"

    def test_orientation_changes_pattern(self, rng):
        protein, _ = make_conformations(n_atoms=60)
        detector = Detector(n_pixels=16)
        p1 = diffraction_pattern(protein, np.eye(3), detector)
        p2 = diffraction_pattern(protein, random_rotations(rng, 1)[0], detector)
        assert not np.allclose(p1, p2)

    def test_conformations_give_different_patterns(self):
        a, b = make_conformations(n_atoms=60)
        detector = Detector(n_pixels=16)
        pa = diffraction_pattern(a, np.eye(3), detector)
        pb = diffraction_pattern(b, np.eye(3), detector)
        assert not np.allclose(pa, pb)

    def test_invalid_rotation_shape(self):
        protein, _ = make_conformations(n_atoms=20)
        with pytest.raises(ValueError):
            diffraction_pattern(protein, np.eye(4), Detector())

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            Detector(n_pixels=2)
        with pytest.raises(ValueError):
            Detector(q_max=-1.0)


class TestNoise:
    def _clean(self):
        protein, _ = make_conformations(n_atoms=50)
        return diffraction_pattern(protein, np.eye(3), Detector(n_pixels=16))

    def test_budget_respected_in_expectation(self, rng):
        clean = self._clean()
        noisy = apply_photon_noise(clean, BeamIntensity.MEDIUM, rng)
        assert noisy.sum() == pytest.approx(BeamIntensity.MEDIUM.photon_budget, rel=0.05)

    def test_counts_are_integral_nonnegative(self, rng):
        noisy = apply_photon_noise(self._clean(), BeamIntensity.LOW, rng)
        assert np.all(noisy >= 0)
        np.testing.assert_array_equal(noisy, np.round(noisy))

    def test_snr_increases_with_intensity(self):
        clean = self._clean()
        snrs = []
        for intensity in BeamIntensity:
            rng = derive_rng(0, "snr", intensity.label)
            noisy = apply_photon_noise(clean, intensity, rng)
            snrs.append(snr_estimate(clean, noisy))
        assert snrs[0] < snrs[1] < snrs[2]

    def test_normalize_zero_mean_unit_std(self, rng):
        noisy = apply_photon_noise(
            np.stack([self._clean()] * 3), BeamIntensity.HIGH, rng
        )
        normed = normalize_patterns(noisy)
        assert normed.shape == noisy.shape
        np.testing.assert_allclose(normed.mean(axis=(1, 2)), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.std(axis=(1, 2)), 1.0, atol=1e-6)

    def test_negative_intensity_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_photon_noise(-np.ones((4, 4)), BeamIntensity.LOW, rng)


class TestDataset:
    def test_shapes_split_and_balance(self):
        config = DatasetConfig(images_per_class=20, image_size=16)
        dataset = generate_dataset(config)
        assert dataset.x_train.shape == (32, 1, 16, 16)
        assert dataset.x_test.shape == (8, 1, 16, 16)
        assert dataset.class_balance() == {"train": [16, 16], "test": [4, 4]}
        assert dataset.input_shape == (1, 16, 16)

    def test_deterministic_per_seed(self):
        config = DatasetConfig(images_per_class=10, image_size=16, seed=3)
        d1 = generate_dataset(config)
        d2 = generate_dataset(config)
        np.testing.assert_array_equal(d1.x_train, d2.x_train)
        np.testing.assert_array_equal(d1.y_train, d2.y_train)

    def test_intensities_differ(self):
        low = generate_dataset(DatasetConfig(intensity=BeamIntensity.LOW, images_per_class=5, image_size=16))
        high = generate_dataset(DatasetConfig(intensity=BeamIntensity.HIGH, images_per_class=5, image_size=16))
        assert not np.allclose(low.x_train, high.x_train)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(images_per_class=1)
        with pytest.raises(ValueError):
            DatasetConfig(train_fraction=1.0)

    @pytest.mark.parametrize("per_class, fraction", [(2, 0.8), (4, 0.9), (5, 0.1)])
    def test_split_leaving_a_side_empty_is_refused(self, per_class, fraction):
        with pytest.raises(ValueError, match="images_per_class.*train_fraction"):
            DatasetConfig(images_per_class=per_class, train_fraction=fraction)

    @pytest.mark.parametrize("per_class, fraction", [(2, 0.5), (3, 0.8)])
    def test_smallest_splits_with_both_sides(self, per_class, fraction):
        dataset = generate_dataset(
            DatasetConfig(images_per_class=per_class, train_fraction=fraction, image_size=8)
        )
        assert dataset.class_balance() == {"train": [per_class - 1] * 2, "test": [1, 1]}

    def test_datasets_match_the_pinned_digests(self):
        # written by the per-pixel simulator the separable sum replaced:
        # its clean intensities move by ~1e-15 of their maximum, the
        # photon counts must not move at all
        assert dataset_digests() == json.loads(DATASET_DIGESTS.read_text())
