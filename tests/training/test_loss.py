"""Tests for repro.training.loss (Eq. 5) and the test-only infidelity loss."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradient_oracle import InfidelityLoss
from repro.exceptions import DimensionError, TrainingError
from repro.training.loss import SquaredErrorLoss


class TestSquaredErrorLoss:
    def test_eq5_sum(self):
        out = np.array([[1.0, 0.0], [0.0, 1.0]])
        tgt = np.zeros((2, 2))
        assert SquaredErrorLoss("sum").value(out, tgt) == pytest.approx(2.0)

    def test_mean_normalisation(self):
        out = np.ones((4, 5))
        tgt = np.zeros((4, 5))
        assert SquaredErrorLoss("mean").value(out, tgt) == pytest.approx(1.0)

    def test_zero_at_match(self, rng):
        x = rng.normal(size=(8, 3))
        assert SquaredErrorLoss().value(x, x.copy()) == 0.0

    def test_gradient_formula(self):
        out = np.array([1.0, 2.0])
        tgt = np.array([0.5, 2.5])
        g = SquaredErrorLoss("sum").dvalue(out, tgt)
        assert np.allclose(g, [1.0, -1.0])

    def test_gradient_mean_scaled(self):
        out = np.ones(4)
        tgt = np.zeros(4)
        g = SquaredErrorLoss("mean").dvalue(out, tgt)
        assert np.allclose(g, 0.5)

    def test_complex_magnitude(self):
        out = np.array([1j])
        tgt = np.array([0.0 + 0j])
        assert SquaredErrorLoss("sum").value(out, tgt) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            SquaredErrorLoss().value(np.ones(3), np.ones(4))

    def test_3d_rejected(self):
        with pytest.raises(DimensionError):
            SquaredErrorLoss().value(np.ones((2, 2, 2)), np.ones((2, 2, 2)))

    def test_invalid_reduction(self):
        with pytest.raises(TrainingError):
            SquaredErrorLoss("median")

    def test_gradient_is_derivative(self, rng):
        """dvalue must be the numerical derivative of value."""
        loss = SquaredErrorLoss("sum")
        out = rng.normal(size=6)
        tgt = rng.normal(size=6)
        g = loss.dvalue(out, tgt)
        eps = 1e-7
        for i in range(6):
            bumped = out.copy()
            bumped[i] += eps
            num = (loss.value(bumped, tgt) - loss.value(out, tgt)) / eps
            assert num == pytest.approx(g[i], abs=1e-5)

    @given(
        arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
        arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_property_nonnegative_symmetric(self, a, b):
        loss = SquaredErrorLoss("sum")
        assert loss.value(a, b) >= 0.0
        assert loss.value(a, b) == pytest.approx(loss.value(b, a))


class TestInfidelityLoss:
    def test_zero_for_identical_states(self):
        s = np.array([[0.6], [0.8]])
        assert InfidelityLoss().value(s, s) == pytest.approx(0.0)

    def test_one_for_orthogonal_states(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert InfidelityLoss().value(a, b) == pytest.approx(1.0)

    def test_sign_invariance(self):
        """Fidelity ignores global sign — unlike the Eq. (5) loss."""
        s = np.array([[0.6], [0.8]])
        assert InfidelityLoss().value(-s, s) == pytest.approx(0.0)
        assert SquaredErrorLoss().value(-s, s) > 0

    def test_gradient_matches_numerical(self, rng):
        loss = InfidelityLoss()
        out = rng.normal(size=(4, 2))
        tgt = rng.normal(size=(4, 2))
        tgt /= np.linalg.norm(tgt, axis=0)
        g = loss.dvalue(out, tgt)
        eps = 1e-7
        for i in range(4):
            for j in range(2):
                bumped = out.copy()
                bumped[i, j] += eps
                num = (loss.value(bumped, tgt) - loss.value(out, tgt)) / eps
                assert num == pytest.approx(g[i, j], abs=1e-5)


class TestConvenience:
    def test_paper_loss_units(self, paper_images):
        """L_R between encoded inputs and zero output = sum of squared
        amplitudes = M (unit-norm states)."""
        from repro.encoding.amplitude import encode_batch

        amps = encode_batch(paper_images).amplitudes()
        loss = SquaredErrorLoss("sum")
        assert loss.value(np.zeros_like(amps), amps) == pytest.approx(25.0)
