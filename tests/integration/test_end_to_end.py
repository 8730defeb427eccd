"""End-to-end integration tests across subsystem boundaries."""

import numpy as np
import pytest

from repro import (
    QuantumAutoencoder,
    Trainer,
    paper_accuracy,
)
from repro.data import paper_dataset, rank_limited_binary_dataset
from repro.io.model_io import load_autoencoder, save_autoencoder
from repro.network.targets import TruncatedInputTarget
from repro.noise.trajectory import measure_probabilities
from repro.parallel.batch import ChunkedPipeline
from repro.training.optimizers import Adam


@pytest.fixture(scope="module")
def trained():
    """One converged (Adam, 120 iters) paper-config autoencoder."""
    ds = paper_dataset()
    X = ds.matrix()
    ae = QuantumAutoencoder(16, 4, 12, 14).initialize(
        "uniform", rng=np.random.default_rng(7)
    )
    strat = TruncatedInputTarget.from_pca(ae.projection, X)
    result = Trainer(
        iterations=120,
        gradient_method="adjoint",
        optimizer_factory=lambda: Adam(0.05),
        record_theta_every=None,
    ).train(ae, X, target_strategy=strat)
    return ae, X, result


class TestTrainedPipeline:
    def test_high_accuracy_reached(self, trained):
        _, X, result = trained
        # Full convergence lands ~97-100% (see EXPERIMENTS.md); the
        # reduced 120-iteration budget used here reliably clears 90%.
        assert result.final_accuracy > 90.0

    def test_losses_near_zero(self, trained):
        _, _, result = trained
        assert result.final_loss_c < 0.05
        assert result.final_loss_r < 0.05

    def test_compression_really_compresses(self, trained):
        ae, X, _ = trained
        out = ae.forward(X)
        assert out.compact_codes.shape == (4, 25)
        assert np.mean(out.retained_probability) > 0.98

    def test_generalisation_to_unseen_same_structure(self, trained):
        """Unseen unions of the same base patterns reconstruct well."""
        ae, _, _ = trained
        fresh = paper_dataset(num_samples=40, seed=999).matrix()
        out = ae.forward(fresh)
        assert paper_accuracy(out.x_hat, fresh) > 85.0

    def test_save_load_preserves_behaviour(self, trained, tmp_path):
        ae, X, _ = trained
        path = tmp_path / "trained.npz"
        save_autoencoder(ae, path)
        clone = load_autoencoder(path)
        assert np.allclose(
            clone.forward(X).x_hat, ae.forward(X).x_hat, atol=1e-12
        )

    def test_finite_shots_approach_exact(self, trained):
        ae, X, _ = trained
        enc = ae.codec.encode(X)
        out = ae.forward_encoded(enc)
        exact = np.abs(out.output_amplitudes)
        est = np.sqrt(measure_probabilities(
            exact**2, 200000, np.random.default_rng(0)
        ))
        assert np.max(np.abs(est - exact)) < 0.02

    def test_chunked_pipeline_on_bulk_data(self, trained):
        ae, _, _ = trained
        bulk = rank_limited_binary_dataset(
            num_samples=300, rank=4, image_size=4, seed=1
        ).matrix()
        # rank_limited uses stripe patterns; accuracy is not meaningful
        # here, but the streamed path must agree with the direct one.
        direct = ae.forward(bulk).x_hat
        streamed = ChunkedPipeline(ae, chunk_size=64).reconstruct(bulk)
        assert np.allclose(direct, streamed)


class TestFailurePaths:
    def test_zero_image_rejected_end_to_end(self):
        ae = QuantumAutoencoder(4, 2, 1, 1)
        X = np.zeros((2, 4))
        X[0, 0] = 1.0
        from repro.exceptions import NormalizationError

        with pytest.raises(NormalizationError):
            ae.forward(X)

    def test_wrong_width_rejected_end_to_end(self):
        ae = QuantumAutoencoder(4, 2, 1, 1)
        from repro.exceptions import DimensionError

        with pytest.raises(DimensionError):
            ae.forward(np.ones((2, 8)))

    def test_trainer_rejects_nan_images(self):
        ae = QuantumAutoencoder(4, 2, 1, 1)
        X = np.ones((2, 4))
        X[0, 0] = np.nan
        from repro.exceptions import DimensionError

        with pytest.raises(DimensionError):
            Trainer(iterations=1).train(ae, X)
