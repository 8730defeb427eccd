"""Tests for repro.training.optimizers (Eq. 9 and variants)."""

import numpy as np
import pytest

from repro.exceptions import OptimizerError
from repro.training.optimizers import Adam, GradientDescent, MomentumGD


class TestLearningRate:
    @pytest.mark.parametrize("cls", [GradientDescent, MomentumGD, Adam])
    def test_fixed_float(self, cls):
        opt = cls(0.01)
        opt.step(np.zeros(2), np.ones(2))
        assert opt.lr == 0.01 and type(opt.lr) is float

    @pytest.mark.parametrize("cls", [GradientDescent, MomentumGD, Adam])
    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_lr_rejected(self, lr, cls):
        with pytest.raises(OptimizerError, match="positive and finite"):
            cls(lr)


class TestGradientDescent:
    def test_eq9_update(self):
        # theta(t+1) = theta(t) - eta * grad
        opt = GradientDescent(lr=0.5)
        out = opt.step(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        assert out.tolist() == [0.5, 2.5]

    def test_iteration_counter_advances(self):
        opt = GradientDescent(1.0)
        p = np.array([0.0])
        g = np.array([1.0])
        p1 = opt.step(p, g)
        assert opt.t == 1
        p2 = opt.step(p1, g)
        assert opt.t == 2
        assert p2[0] == pytest.approx(-2.0)

    def test_shape_mismatch(self):
        with pytest.raises(OptimizerError):
            GradientDescent(0.1).step(np.ones(2), np.ones(3))

    def test_nan_gradient_rejected(self):
        with pytest.raises(OptimizerError, match="diverged"):
            GradientDescent(0.1).step(np.ones(2), np.array([np.nan, 0.0]))

    def test_reset(self):
        opt = GradientDescent(0.1)
        opt.step(np.zeros(1), np.zeros(1))
        opt.reset()
        assert opt.t == 0


class TestMomentum:
    def test_accumulates_velocity(self):
        opt = MomentumGD(lr=1.0, momentum=0.5)
        p = np.array([0.0])
        g = np.array([1.0])
        p = opt.step(p, g)   # v = -1   -> p = -1
        p = opt.step(p, g)   # v = -1.5 -> p = -2.5
        assert p[0] == pytest.approx(-2.5)

    def test_zero_momentum_equals_gd(self, rng):
        p = rng.normal(size=5)
        g = rng.normal(size=5)
        a = MomentumGD(0.1, momentum=0.0).step(p, g)
        b = GradientDescent(0.1).step(p, g)
        assert np.allclose(a, b)

    def test_invalid_momentum(self):
        with pytest.raises(OptimizerError):
            MomentumGD(0.1, momentum=1.0)
        with pytest.raises(OptimizerError):
            MomentumGD(0.1, momentum=-0.1)

    def test_shape_change_rejected(self):
        opt = MomentumGD(0.1)
        opt.step(np.ones(2), np.ones(2))
        with pytest.raises(OptimizerError, match="shape changed"):
            opt.step(np.ones(3), np.ones(3))

    def test_reset_clears_velocity(self):
        opt = MomentumGD(1.0, 0.9)
        opt.step(np.zeros(1), np.ones(1))
        opt.reset()
        out = opt.step(np.zeros(1), np.ones(1))
        assert out[0] == pytest.approx(-1.0)


class TestAdam:
    def test_first_step_size_is_lr(self):
        opt = Adam(lr=0.1)
        out = opt.step(np.array([0.0]), np.array([5.0]))
        # bias-corrected first step has magnitude ~lr regardless of grad.
        assert abs(out[0]) == pytest.approx(0.1, rel=1e-6)

    def test_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        p = np.array([5.0])
        for _ in range(500):
            p = opt.step(p, 2 * p)  # d/dp p^2
        assert abs(p[0]) < 1e-2

    def test_invalid_betas(self):
        with pytest.raises(OptimizerError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(OptimizerError):
            Adam(0.1, beta2=-0.1)

    def test_invalid_eps(self):
        with pytest.raises(OptimizerError):
            Adam(0.1, eps=0.0)

    def test_reset_clears_moments(self):
        opt = Adam(0.1)
        opt.step(np.zeros(2), np.ones(2))
        opt.reset()
        assert opt.t == 0
        out = opt.step(np.zeros(2), np.ones(2))
        assert np.allclose(np.abs(out), 0.1, rtol=1e-6)

    def test_faster_than_gd_on_ill_conditioned(self, rng):
        """Adam's per-parameter scaling wins on badly scaled quadratics."""
        scales = np.array([100.0, 0.01])

        def run(opt, steps=200):
            p = np.array([1.0, 1.0])
            for _ in range(steps):
                p = opt.step(p, 2 * scales * p)
            return np.abs(p).max()

        assert run(Adam(0.05)) < run(GradientDescent(0.001))
