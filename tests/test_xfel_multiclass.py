"""Tests for multi-protein (protein-type classification) datasets."""

import numpy as np
import pytest

from repro.xfel import (
    DatasetConfig,
    generate_dataset,
    generate_dataset_from_proteins,
    make_conformations,
    make_protein,
)


@pytest.fixture(scope="module")
def proteins():
    return [make_protein(f"prot{i}", n_atoms=80, seed=100 + i) for i in range(3)]


class TestMakeProtein:
    def test_distinct_seeds_distinct_structures(self):
        a = make_protein("a", seed=1)
        b = make_protein("b", seed=2)
        assert a.coords.shape == b.coords.shape
        assert not np.allclose(a.coords, b.coords)

    def test_deterministic_per_name_and_seed(self):
        a1 = make_protein("x", seed=3)
        a2 = make_protein("x", seed=3)
        np.testing.assert_array_equal(a1.coords, a2.coords)

    def test_centered(self):
        p = make_protein("c", seed=4)
        com = np.average(p.coords, axis=0, weights=p.form_factors)
        np.testing.assert_allclose(com, 0.0, atol=1e-9)


class TestMulticlassDataset:
    def test_three_class_shapes_and_balance(self, proteins):
        config = DatasetConfig(images_per_class=10, image_size=16)
        dataset = generate_dataset_from_proteins(proteins, config)
        assert dataset.n_classes == 3
        assert dataset.x_train.shape == (24, 1, 16, 16)
        assert set(np.unique(dataset.y_train)) == {0, 1, 2}
        assert dataset.class_balance() == {"train": [8, 8, 8], "test": [2, 2, 2]}

    def test_two_conformations_equivalent_path(self):
        config = DatasetConfig(images_per_class=8, image_size=16)
        via_default = generate_dataset(config)
        conformations = make_conformations(n_atoms=config.n_atoms, seed=config.seed)
        via_explicit = generate_dataset_from_proteins(conformations, config)
        np.testing.assert_array_equal(via_default.x_train, via_explicit.x_train)
        np.testing.assert_array_equal(via_default.y_test, via_explicit.y_test)

    def test_duplicate_names_rejected(self, proteins):
        config = DatasetConfig(images_per_class=4, image_size=16)
        with pytest.raises(ValueError, match="unique"):
            generate_dataset_from_proteins([proteins[0], proteins[0]], config)

    def test_too_few_proteins_rejected(self, proteins):
        config = DatasetConfig(images_per_class=4, image_size=16)
        with pytest.raises(ValueError, match="at least 2"):
            generate_dataset_from_proteins([proteins[0]], config)

    def test_nas_decodes_multiclass_head(self, proteins):
        from repro.nas import DecoderConfig, decode_genome, random_genome

        rng = np.random.default_rng(0)
        config = DatasetConfig(images_per_class=4, image_size=16)
        dataset = generate_dataset_from_proteins(proteins, config)
        network = decode_genome(
            random_genome(rng),
            DecoderConfig(dataset.input_shape, dataset.n_classes, (2, 3, 4)),
            rng=rng,
        )
        out = network.forward(dataset.x_train[:5])
        assert out.shape == (5, 3)
