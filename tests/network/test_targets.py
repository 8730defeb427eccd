"""Tests for repro.network.targets (compression targets b_i)."""

import numpy as np
import pytest

from repro.encoding.amplitude import encode_batch
from repro.exceptions import DimensionError, NetworkConfigError
from repro.network.projection import Projection
from repro.network.targets import (
    TruncatedInputTarget,
    UniformSubspaceTarget,
)


@pytest.fixture
def encoded(paper_images):
    return encode_batch(paper_images)


@pytest.fixture
def projection():
    return Projection.last(16, 4)


class TestUniformSubspaceTarget:
    def test_paper_example_8dim(self):
        # (b_i)^2 = [0,0,0,0,.25,.25,.25,.25] for d=4 of 8 (Section II-D).
        t = UniformSubspaceTarget(Projection.last(8, 4))
        b = t.target_vector()
        assert np.allclose(b**2, [0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25])

    def test_targets_unit_columns(self, encoded, projection):
        b = UniformSubspaceTarget(projection).targets(encoded)
        assert b.shape == (16, 25)
        assert np.allclose(np.linalg.norm(b, axis=0), 1.0)

    def test_all_columns_identical(self, encoded, projection):
        b = UniformSubspaceTarget(projection).targets(encoded)
        assert np.allclose(b, b[:, :1])

    def test_dim_mismatch(self, encoded):
        t = UniformSubspaceTarget(Projection.last(8, 4))
        with pytest.raises(DimensionError):
            t.targets(encoded)

    def test_shared_target_is_unitarily_infeasible(self, encoded, projection):
        """The design reason 'uniform' is not the default: a unitary must
        preserve pairwise overlaps, but a shared target forces all
        (distinct) inputs onto one state — impossible exactly."""
        amps = encoded.amplitudes()
        gram = amps.T @ amps
        distinct = np.abs(gram - 1.0) > 1e-9  # pairs with overlap < 1
        assert np.any(distinct), "dataset should contain distinct states"
        # If a unitary mapped all inputs to the same b, all pairwise
        # overlaps would have to be exactly 1 — contradiction.
        assert np.min(np.abs(gram[distinct])) < 1.0


class TestTruncatedInputTarget:
    def test_supported_on_subspace(self, encoded, projection):
        b = TruncatedInputTarget(projection).targets(encoded)
        assert np.allclose(b[~projection.mask], 0.0)

    def test_unit_columns(self, encoded, projection):
        b = TruncatedInputTarget(projection).targets(encoded)
        assert np.allclose(np.linalg.norm(b, axis=0), 1.0)

    def test_degenerate_sample_falls_back_to_uniform(self):
        proj = Projection.last(4, 2)
        # A state entirely outside the kept subspace.
        X = np.array([[1.0, 1.0, 0.0, 0.0]])
        enc = encode_batch(X)
        b = TruncatedInputTarget(proj).targets(enc)
        assert np.allclose(np.linalg.norm(b, axis=0), 1.0)
        assert np.allclose(b[2:, 0], 1 / np.sqrt(2))

    def test_pca_mixing_preserves_gram_on_low_rank_data(
        self, paper_images, projection
    ):
        """For exactly rank-d data, PCA-mixed targets preserve pairwise
        inner products — the feasibility condition for a unitary U_C."""
        enc = encode_batch(paper_images)
        strat = TruncatedInputTarget.from_pca(projection, paper_images)
        b = strat.targets(enc)
        amps = enc.amplitudes()
        assert np.allclose(b.T @ b, amps.T @ amps, atol=1e-8)

    def test_from_pca_shape_validation(self, projection):
        with pytest.raises(DimensionError):
            TruncatedInputTarget.from_pca(projection, np.ones((5, 8)))

    def test_bad_mixing_shape(self, projection):
        with pytest.raises(NetworkConfigError, match="shape"):
            TruncatedInputTarget(projection, mixing=np.ones((3, 16)))

    def test_non_orthonormal_mixing_rejected(self, projection):
        w = np.ones((4, 16))
        with pytest.raises(NetworkConfigError, match="orthonormal"):
            TruncatedInputTarget(projection, mixing=w)
