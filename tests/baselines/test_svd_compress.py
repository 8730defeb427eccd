"""Tests for repro.baselines.svd_compress."""

import numpy as np
import pytest

from repro.baselines.svd_compress import (
    truncated_svd_reconstruction,
)
from repro.exceptions import BaselineError


class TestTruncatedSVD:
    def test_rank1_exact_for_rank1_matrix(self):
        X = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        x_hat, err = truncated_svd_reconstruction(X, 1)
        assert err == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(x_hat, X)

    def test_error_matches_tail_energy(self, rng):
        X = rng.normal(size=(6, 8))
        s = np.linalg.svd(X, compute_uv=False)
        _, err = truncated_svd_reconstruction(X, 3)
        assert err == pytest.approx(np.sum(s[3:] ** 2))

    def test_error_decreases_with_rank(self, rng):
        X = rng.normal(size=(6, 8))
        errs = [truncated_svd_reconstruction(X, r)[1] for r in (1, 3, 6)]
        assert errs[0] >= errs[1] >= errs[2]

    def test_eckart_young_optimality(self, rng):
        """The SVD reconstruction beats any random rank-d projection."""
        X = rng.normal(size=(10, 12))
        d = 3
        _, err_svd = truncated_svd_reconstruction(X, d)
        q, _ = np.linalg.qr(rng.normal(size=(10, d)))
        err_rand = np.linalg.norm(X - q @ (q.T @ X)) ** 2
        assert err_svd <= err_rand + 1e-9

    def test_paper_dataset_rank4_floor(self, paper_images):
        _, err = truncated_svd_reconstruction(paper_images, 4)
        assert err == pytest.approx(0.0, abs=1e-18)

    def test_invalid_rank(self, rng):
        X = rng.normal(size=(4, 6))
        with pytest.raises(BaselineError):
            truncated_svd_reconstruction(X, 0)
        with pytest.raises(BaselineError):
            truncated_svd_reconstruction(X, 5)

    def test_1d_rejected(self):
        with pytest.raises(BaselineError):
            truncated_svd_reconstruction(np.ones(4), 1)
