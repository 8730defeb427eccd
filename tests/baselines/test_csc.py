"""Tests for repro.baselines.csc (the Fig. 5 / Table I comparator)."""

import numpy as np
import pytest

from repro.baselines.csc import CSCCompressor
from repro.exceptions import BaselineError
from repro.training.metrics import paper_accuracy


class TestConfiguration:
    def test_paper_matrix_size(self):
        assert CSCCompressor(dim=16).matrix_size == "16*16"

    def test_invalid_sparsity(self):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, sparsity=0)
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, sparsity=17)

    def test_unknown_update(self):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, update="newton")

    def test_unknown_coder(self):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, coder="lars")

    def test_invalid_lr_lam(self):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, lr=0.0)
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16, lam=-0.1)


class TestTraining:
    @pytest.mark.parametrize(
        "update,coder", [("gradient", "ista"), ("mod", "omp"), ("ksvd", "omp")]
    )
    def test_loss_decreases(self, paper_images, update, coder):
        csc = CSCCompressor(
            dim=16, sparsity=4, update=update, coder=coder, seed=0
        )
        history = csc.fit(paper_images, iterations=10)
        assert history.loss[-1] <= history.loss[0] + 1e-9

    def test_history_length_and_timing(self, paper_images):
        csc = CSCCompressor(dim=16, sparsity=4)
        history = csc.fit(paper_images, iterations=7)
        assert history.num_iterations == 7
        assert history.wall_seconds > 0

    def test_mod_omp_solves_rank4_exactly(self, paper_images):
        """Closed-form classical updates crack the rank-4 set."""
        csc = CSCCompressor(dim=16, sparsity=4, update="mod", coder="omp")
        history = csc.fit(paper_images, iterations=15)
        assert min(history.loss) < 1e-6
        assert paper_accuracy(csc.reconstruct(paper_images), paper_images) \
            == pytest.approx(100.0)

    def test_invalid_iterations(self, paper_images):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=16).fit(paper_images, iterations=0)

    def test_dim_mismatch(self):
        with pytest.raises(BaselineError):
            CSCCompressor(dim=8).fit(np.ones((4, 16)), iterations=1)


class TestTransformReconstruct:
    def test_transform_requires_fit(self, paper_images):
        with pytest.raises(BaselineError, match="fit"):
            CSCCompressor(dim=16).transform(paper_images)

    def test_reconstruct_requires_fit(self, paper_images):
        with pytest.raises(BaselineError, match="fit"):
            CSCCompressor(dim=16).reconstruct(paper_images)

    def test_codes_shape(self, paper_images):
        csc = CSCCompressor(dim=16, sparsity=4, coder="omp", update="mod")
        csc.fit(paper_images, iterations=3)
        assert csc.transform(paper_images).shape == (16, 25)

    def test_omp_codes_sparse(self, paper_images):
        csc = CSCCompressor(dim=16, sparsity=4, coder="omp", update="mod")
        csc.fit(paper_images, iterations=3)
        codes = csc.transform(paper_images)
        assert np.all(np.count_nonzero(codes, axis=0) <= 4)

    def test_reconstruction_shape_and_nonnegative(self, paper_images):
        csc = CSCCompressor(dim=16, sparsity=4)
        csc.fit(paper_images, iterations=5)
        x_hat = csc.reconstruct(paper_images)
        assert x_hat.shape == paper_images.shape
        assert np.all(x_hat >= 0)

    def test_debias_improves_ista_accuracy(self, paper_images):
        csc = CSCCompressor(dim=16, sparsity=4, update="gradient", coder="ista")
        csc.fit(paper_images, iterations=30)
        raw = paper_accuracy(csc.reconstruct(paper_images), paper_images)
        debiased = paper_accuracy(
            csc.reconstruct(paper_images, debias=True), paper_images
        )
        assert debiased >= raw

    def test_deterministic_given_seed(self, paper_images):
        runs = []
        for _ in range(2):
            csc = CSCCompressor(dim=16, sparsity=4, update="ksvd",
                                coder="omp", seed=3)
            h = csc.fit(paper_images, iterations=4)
            runs.append(h.loss[-1])
        assert runs[0] == pytest.approx(runs[1])
