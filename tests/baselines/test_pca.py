"""Tests for repro.baselines.pca."""

import numpy as np
import pytest

from repro.baselines.pca import PCACompressor
from repro.exceptions import BaselineError
from repro.training.metrics import paper_accuracy


class TestPCACompressor:
    def test_codes_shape(self, paper_images):
        pca = PCACompressor(num_components=4).fit(paper_images)
        assert pca.transform(paper_images).shape == (4, 25)

    def test_rank4_data_reconstructed_exactly(self, paper_images):
        pca = PCACompressor(num_components=4).fit(paper_images)
        x_hat = pca.reconstruct(paper_images)
        assert paper_accuracy(x_hat, paper_images) == pytest.approx(100.0)
        assert np.allclose(x_hat, paper_images, atol=1e-8)

    def test_insufficient_components_lossy(self, paper_images):
        pca = PCACompressor(num_components=2).fit(paper_images)
        x_hat = pca.reconstruct(paper_images)
        assert not np.allclose(x_hat, paper_images, atol=1e-3)

    def test_reconstruction_error_decreases_with_d(self, paper_images):
        errors = [
            np.sum(
                (
                    PCACompressor(num_components=d)
                    .fit(paper_images)
                    .reconstruct(paper_images)
                    - paper_images
                )
                ** 2
            )
            for d in (1, 2, 4)
        ]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] == pytest.approx(0.0, abs=1e-12)

    def test_requires_fit(self, paper_images):
        with pytest.raises(BaselineError, match="fit"):
            PCACompressor(4).transform(paper_images)
        with pytest.raises(BaselineError, match="fit"):
            PCACompressor(4).reconstruct(paper_images)

    def test_invalid_components(self):
        with pytest.raises(BaselineError):
            PCACompressor(0)

    def test_too_many_components(self, paper_images):
        with pytest.raises(BaselineError, match="exceeds"):
            PCACompressor(num_components=17).fit(paper_images)

    def test_centering_option(self, paper_images):
        centered = PCACompressor(4, center=True).fit(paper_images)
        assert centered.mean is not None
        assert not np.allclose(centered.mean, 0.0)

    def test_components_orthonormal(self, paper_images):
        pca = PCACompressor(4).fit(paper_images)
        gram = pca.components @ pca.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-10)
