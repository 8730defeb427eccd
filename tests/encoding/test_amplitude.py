"""Tests for repro.encoding.amplitude (Eqs. 1-2 of the paper)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.encoding.amplitude import (
    AmplitudeCodec,
    EncodedBatch,
    decode_batch,
    decode_vector,
    encode_batch,
    encode_vector,
)
from repro.exceptions import (
    DimensionError,
    EncodingError,
    NormalizationError,
)
from repro.simulator.state import StateBatch


class TestEncodeVector:
    def test_paper_rule(self):
        # Eq. (1): A_j = x_j / sqrt(sum x^2)
        state, sq = encode_vector([3.0, 4.0])
        assert sq == pytest.approx(25.0)
        assert state.amplitudes.tolist() == pytest.approx([0.6, 0.8])

    def test_unit_norm_output(self):
        state, _ = encode_vector([1.0, 2.0, 3.0, 4.0])
        assert state.norm() == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError, match="all-zero"):
            encode_vector([0.0, 0.0])

    def test_overflowing_norm_rejected(self):
        with pytest.raises(NormalizationError, match="overflow"):
            encode_vector([1e200, 1e200])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionError):
            encode_vector([1.0, 2.0, 3.0])

    def test_padding_to_power_of_two(self):
        state, sq = encode_vector([1.0, 1.0, 1.0], pad_to_power_of_two=True)
        assert state.dim == 4
        assert state.amplitudes[3] == 0.0
        assert sq == pytest.approx(3.0)

    @given(
        arrays(
            np.float64,
            st.sampled_from([2, 4, 8, 16]),
            elements=st.floats(0, 100, allow_nan=False),
        ).filter(lambda v: np.dot(v, v) > 1e-8)
    )
    def test_property_roundtrip(self, x):
        state, sq = encode_vector(x)
        recovered = decode_vector(state.amplitudes, sq)
        assert np.allclose(recovered, np.abs(x), atol=1e-9)


class TestDecodeVector:
    def test_eq2(self):
        # x_hat = sqrt(B^2 * sum x^2)
        out = decode_vector(np.array([0.6, 0.8]), 25.0)
        assert out.tolist() == pytest.approx([3.0, 4.0])

    def test_sign_lost(self):
        out = decode_vector(np.array([-0.6, 0.8]), 25.0)
        assert out.tolist() == pytest.approx([3.0, 4.0])

    def test_complex_amplitudes_magnitudes(self):
        out = decode_vector(np.array([0.6j, 0.8]), 25.0)
        assert out.tolist() == pytest.approx([3.0, 4.0])

    def test_invalid_norm_rejected(self):
        with pytest.raises(EncodingError):
            decode_vector(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(EncodingError):
            decode_vector(np.array([1.0, 0.0]), -1.0)
        with pytest.raises(EncodingError):
            decode_vector(np.array([1.0, 0.0]), np.nan)

    def test_2d_rejected(self):
        with pytest.raises(DimensionError):
            decode_vector(np.eye(2), 1.0)


class TestEncodeBatch:
    def test_shapes_and_layout(self, paper_images):
        enc = encode_batch(paper_images)
        assert enc.states.data.shape == (16, 25)  # columns = samples
        assert enc.squared_norms.shape == (25,)

    def test_columns_unit_norm(self, paper_images):
        enc = encode_batch(paper_images)
        assert np.allclose(enc.states.norms(), 1.0)

    def test_zero_row_rejected(self):
        X = np.ones((3, 4))
        X[1] = 0.0
        with pytest.raises(NormalizationError, match="sample 1"):
            encode_batch(X)

    def test_overflowing_norm_rejected(self):
        """Finite entries whose ``sum x^2`` overflows would encode to
        all-zero amplitudes with an infinite norm."""
        X = np.ones((3, 4))
        X[2] = 1e200
        with pytest.raises(NormalizationError, match="sample 2"):
            encode_batch(X)

    def test_padding(self):
        enc = encode_batch(np.ones((2, 3)), pad_to_power_of_two=True)
        assert enc.dim == 4

    def test_decode_batch_roundtrip(self, paper_images):
        enc = encode_batch(paper_images)
        out = decode_batch(enc.states.data, enc.squared_norms)
        assert np.allclose(out, paper_images, atol=1e-10)

    def test_decode_accepts_statebatch(self, paper_images):
        enc = encode_batch(paper_images)
        out = decode_batch(enc.states, enc.squared_norms)
        assert out.shape == paper_images.shape

    def test_decode_norm_count_mismatch(self, paper_images):
        enc = encode_batch(paper_images)
        with pytest.raises(DimensionError):
            decode_batch(enc.states.data, enc.squared_norms[:-1])

    def test_decode_invalid_norms(self, paper_images):
        enc = encode_batch(paper_images)
        bad = enc.squared_norms.copy()
        bad[0] = -1.0
        with pytest.raises(EncodingError):
            decode_batch(enc.states.data, bad)


class TestEncodedBatch:
    def test_norm_count_validation(self, paper_images):
        enc = encode_batch(paper_images)
        with pytest.raises(DimensionError):
            EncodedBatch(enc.states, enc.squared_norms[:-1])

    def test_nonpositive_norm_rejected(self):
        batch = StateBatch(np.eye(2))
        with pytest.raises(NormalizationError):
            EncodedBatch(batch, np.array([1.0, 0.0]))

    def test_amplitudes_view(self, paper_images):
        enc = encode_batch(paper_images)
        assert enc.amplitudes() is enc.states.data


class TestAmplitudeCodec:
    def test_roundtrip(self):
        codec = AmplitudeCodec(4)
        X = np.array([[1.0, 0.0, 1.0, 0.0], [0.5, 0.5, 0.0, 0.0]])
        assert np.allclose(codec.roundtrip(X), X, atol=1e-12)

    def test_dim_checked_on_encode(self):
        with pytest.raises(DimensionError, match="bound to dim"):
            AmplitudeCodec(4).encode(np.ones((2, 8)))

    def test_non_power_of_two_dim_rejected(self):
        with pytest.raises(DimensionError):
            AmplitudeCodec(10)

    def test_num_qubits(self):
        assert AmplitudeCodec(16).num_qubits == 4

    def test_decode_width_checked(self):
        codec = AmplitudeCodec(4)
        with pytest.raises(DimensionError):
            codec.decode(np.ones((8, 2)), np.ones(2))
