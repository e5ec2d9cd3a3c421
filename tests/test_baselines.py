"""Tests for the XPSI baseline."""

import numpy as np
import pytest

from repro.baselines import (
    Autoencoder,
    KNNClassifier,
    XPSIConfig,
    run_xpsi,
)


class TestKNN:
    def test_memorizes_training_points(self, rng):
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, 20)
        knn = KNNClassifier(k=1).fit(x, y)
        np.testing.assert_array_equal(knn.predict(x), y)

    def test_separable_blobs(self, rng):
        x0 = rng.normal(size=(30, 3))
        x1 = rng.normal(size=(30, 3)) + 8.0
        x = np.vstack([x0, x1])
        y = np.array([0] * 30 + [1] * 30)
        knn = KNNClassifier(k=5).fit(x, y)
        queries = np.vstack([rng.normal(size=(5, 3)), rng.normal(size=(5, 3)) + 8.0])
        expected = np.array([0] * 5 + [1] * 5)
        np.testing.assert_array_equal(knn.predict(queries), expected)
        assert knn.score_percent(queries, expected) == 100.0

    def test_chunked_matches_unchunked(self, rng):
        x = rng.normal(size=(50, 6))
        y = rng.integers(0, 3, 50)
        q = rng.normal(size=(40, 6))
        knn = KNNClassifier(k=3).fit(x, y)
        np.testing.assert_array_equal(knn.predict(q, chunk=7), knn.predict(q, chunk=1000))

    def test_predict_before_fit(self, rng):
        with pytest.raises(RuntimeError):
            KNNClassifier().predict(rng.normal(size=(3, 2)))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            KNNClassifier(k=5).fit(rng.normal(size=(3, 2)), np.array([0, 1, 0]))
        knn = KNNClassifier(k=1).fit(rng.normal(size=(5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            knn.predict(rng.normal(size=(2, 3)))


class TestAutoencoder:
    def test_reconstruction_improves_with_training(self, rng, tiny_dataset):
        ae = Autoencoder(input_dim=16 * 16, hidden_dim=32, latent_dim=8, rng=rng)
        first = ae.train_epoch(tiny_dataset.x_train)
        for _ in range(8):
            last = ae.train_epoch(tiny_dataset.x_train)
        assert last < first
        assert len(ae.loss_history) == 9

    def test_encode_shape(self, rng, tiny_dataset):
        ae = Autoencoder(input_dim=16 * 16, hidden_dim=32, latent_dim=8, rng=rng)
        features = ae.encode(tiny_dataset.x_test)
        assert features.shape == (len(tiny_dataset.x_test), 8)

    def test_reconstruct_in_unit_range(self, rng, tiny_dataset):
        ae = Autoencoder(input_dim=16 * 16, hidden_dim=32, latent_dim=8, rng=rng)
        ae.fit(tiny_dataset.x_train, epochs=2)
        recon = ae.reconstruct(tiny_dataset.x_test)
        assert np.all((recon >= 0) & (recon <= 1))

    def test_validation(self):
        with pytest.raises(Exception):
            Autoencoder(input_dim=0)


class TestXPSI:
    def test_pipeline_on_tiny_data(self, tiny_dataset):
        config = XPSIConfig(latent_dim=16, hidden_dim=64, autoencoder_epochs=10)
        result = run_xpsi(tiny_dataset, config)
        assert 0.0 <= result.accuracy <= 100.0
        assert result.accuracy > 50.0  # better than chance on clean data
        assert result.measured_seconds > 0
        assert result.intensity == "high"

    def test_simulated_hours_fixed_across_intensities(self, tiny_dataset, tiny_noisy_dataset):
        config = XPSIConfig(latent_dim=8, hidden_dim=32, autoencoder_epochs=5)
        high = run_xpsi(tiny_dataset, config)
        low = run_xpsi(tiny_noisy_dataset, config)
        assert high.simulated_hours == pytest.approx(low.simulated_hours)

    def test_default_config_maps_to_paper_hours(self):
        from repro.baselines.xpsi import _simulated_hours
        from repro.xfel import DatasetConfig, generate_dataset

        dataset = generate_dataset(DatasetConfig(images_per_class=3, image_size=32))
        assert _simulated_hours(XPSIConfig(), dataset) == pytest.approx(15.45, abs=0.01)

    def test_deterministic_per_seed(self, tiny_dataset):
        config = XPSIConfig(latent_dim=8, hidden_dim=32, autoencoder_epochs=3, seed=9)
        r1 = run_xpsi(tiny_dataset, config)
        r2 = run_xpsi(tiny_dataset, config)
        assert r1.accuracy == r2.accuracy
