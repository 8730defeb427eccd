"""Tests for repro.simulator.gates."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import GateError
from repro.simulator.gates import BeamsplitterGate, apply_givens_batch

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


def apply_givens(v, k, theta, inverse=False):
    """Out-of-place rotation of one vector: the batch kernel on a column."""
    out = np.array(v, dtype=np.float64).reshape(-1, 1)
    apply_givens_batch(out, k, theta, inverse=inverse)
    return out.ravel()


class TestApplyGivens:
    def test_identity_at_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(apply_givens(v, 0, 0.0), v)

    def test_quarter_rotation_swaps_with_sign(self):
        v = np.array([1.0, 0.0])
        out = apply_givens(v, 0, np.pi / 2)
        assert np.allclose(out, [0.0, 1.0])

    def test_inverse_roundtrip(self):
        v = np.array([0.3, 0.4, 0.5])
        out = apply_givens(apply_givens(v, 1, 0.7), 1, 0.7, inverse=True)
        assert np.allclose(out, v)

    def test_mode_out_of_range(self):
        with pytest.raises(GateError, match="out of range"):
            apply_givens(np.ones(3), 2, 0.1)

    def test_batch_inplace(self):
        data = np.eye(4)
        apply_givens_batch(data, 1, 0.5)
        assert not np.allclose(data, np.eye(4))
        assert np.allclose(data.T @ data, np.eye(4))  # still orthogonal

    def test_alpha_on_real_batch_raises(self):
        with pytest.raises(GateError, match="complex"):
            apply_givens_batch(np.eye(4), 0, 0.3, alpha=0.5)

    def test_complex_alpha_unitary(self):
        data = np.eye(4, dtype=np.complex128)
        apply_givens_batch(data, 0, 0.3, alpha=0.7)
        assert np.allclose(np.conj(data.T) @ data, np.eye(4))

    def test_complex_inverse_roundtrip(self):
        data = np.eye(4, dtype=np.complex128)
        apply_givens_batch(data, 1, 0.4, alpha=1.1)
        apply_givens_batch(data, 1, 0.4, alpha=1.1, inverse=True)
        assert np.allclose(data, np.eye(4))

    @given(theta=angles)
    def test_property_norm_preserved(self, theta):
        v = np.array([0.6, 0.8, 0.0])
        out = apply_givens(v, 0, theta)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    @given(theta=angles, k=st.integers(0, 2))
    def test_property_matches_matrix(self, theta, k):
        g = BeamsplitterGate(k, theta)
        v = np.arange(1.0, 5.0)
        assert np.allclose(apply_givens(v, k, theta), g.embed(4) @ v)


class TestBeamsplitterGate:
    def test_matrix_orthogonal(self):
        m = BeamsplitterGate(0, 0.37).matrix2()
        assert np.allclose(m.T @ m, np.eye(2))

    def test_reflectivity(self):
        assert BeamsplitterGate(0, 0.0).reflectivity == pytest.approx(1.0)
        assert BeamsplitterGate(0, np.pi / 2).reflectivity == pytest.approx(
            0.0, abs=1e-15
        )

    def test_derivative_is_shifted_rotation(self):
        g = BeamsplitterGate(0, 0.9)
        shifted = BeamsplitterGate(0, 0.9 + np.pi / 2)
        assert np.allclose(g.dmatrix2_dtheta(), shifted.matrix2())

    def test_dalpha_derivative_complex(self):
        g = BeamsplitterGate(0, 0.5, alpha=0.3)
        d = g.dmatrix2_dalpha()
        num = (
            BeamsplitterGate(0, 0.5, alpha=0.3 + 1e-7).matrix2()
            - BeamsplitterGate(0, 0.5, alpha=0.3 - 1e-7).matrix2()
        ) / 2e-7
        assert np.allclose(d, num, atol=1e-6)

    def test_embed_placement(self):
        u = BeamsplitterGate(2, 0.3).embed(5)
        assert np.allclose(u[:2, :2], np.eye(2))
        assert u[4, 4] == 1.0
        assert not np.allclose(u[2:4, 2:4], np.eye(2))

    def test_embed_too_small_raises(self):
        with pytest.raises(GateError, match="fit"):
            BeamsplitterGate(3, 0.1).embed(4)

    def test_negative_mode_raises(self):
        with pytest.raises(GateError):
            BeamsplitterGate(-1, 0.1)

    def test_nonfinite_theta_raises(self):
        with pytest.raises(GateError, match="finite"):
            BeamsplitterGate(0, np.inf)

    def test_inverse_gate_real(self):
        g = BeamsplitterGate(0, 0.6)
        assert np.allclose(
            g.inverse().matrix2() @ g.matrix2(), np.eye(2)
        )

    def test_inverse_complex_gate_raises(self):
        """Regression: T(-theta, -alpha) is not the dagger for alpha != 0."""
        g = BeamsplitterGate(0, 0.6, alpha=1.1)
        with pytest.raises(GateError, match="inverse=True"):
            g.inverse()
        # The would-be "inverse" really is wrong — document the reason:
        wrong = BeamsplitterGate(0, -0.6, alpha=-1.1).matrix2()
        assert not np.allclose(wrong @ g.matrix2(), np.eye(2))
        # while the dagger applied via the kernel is exact:
        assert np.allclose(np.conj(g.matrix2().T) @ g.matrix2(), np.eye(2))

    def test_complex_matrix_unitary(self):
        m = BeamsplitterGate(0, 0.4, alpha=1.2).matrix2()
        assert np.allclose(np.conj(m.T) @ m, np.eye(2))

    def test_is_real_flag(self):
        assert BeamsplitterGate(0, 0.5).is_real
        assert not BeamsplitterGate(0, 0.5, alpha=0.1).is_real
