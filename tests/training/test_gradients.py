"""Tests for repro.training.gradients — all three methods must agree, and
``adjoint`` must agree with the per-gate ``derivative`` oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradient_oracle import looped_loss_and_gradient
from repro.exceptions import GradientError
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.gradients import (
    PAPER_DELTA,
    available_gradient_methods,
    loss_and_gradient,
)
from repro.training.loss import FidelityLoss, SquaredErrorLoss


def make_problem(dim=8, layers=3, m=4, seed=0, descending=False):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(dim, layers, descending=descending).initialize(
        "uniform", rng=rng
    )
    x = rng.normal(size=(dim, m))
    x /= np.linalg.norm(x, axis=0)
    t = rng.normal(size=(dim, m))
    t /= np.linalg.norm(t, axis=0)
    return net, x, t


class TestMethodAgreement:
    def test_all_methods_registered(self):
        assert available_gradient_methods() == [
            "adjoint",
            "central",
            "fd",
        ]

    def test_exact_methods_agree_tightly(self):
        net, x, t = make_problem()
        _, g_adj = loss_and_gradient(net, x, t, method="adjoint")
        _, g_der = looped_loss_and_gradient(net, x, t, method="derivative")
        assert np.allclose(g_adj, g_der, atol=1e-12)

    def test_fd_close_to_exact(self):
        net, x, t = make_problem()
        _, g_fd = loss_and_gradient(net, x, t, method="fd")
        _, g_adj = loss_and_gradient(net, x, t, method="adjoint")
        assert np.allclose(g_fd, g_adj, atol=1e-5)

    def test_central_more_accurate_than_fd(self):
        net, x, t = make_problem(seed=3)
        _, g_exact = loss_and_gradient(net, x, t, method="adjoint")
        _, g_fd = loss_and_gradient(net, x, t, method="fd")
        _, g_cd = loss_and_gradient(net, x, t, method="central")
        assert np.max(np.abs(g_cd - g_exact)) <= np.max(
            np.abs(g_fd - g_exact)
        ) + 1e-12

    def test_agreement_with_projection(self):
        net, x, t = make_problem()
        proj = Projection.last(8, 4)
        tp = proj.apply(t)
        tp /= np.linalg.norm(tp, axis=0)
        grads = {}
        for m in available_gradient_methods():
            _, grads[m] = loss_and_gradient(
                net, x, tp, projection=proj, method=m
            )
        _, grads["derivative"] = looped_loss_and_gradient(
            net, x, tp, projection=proj, method="derivative"
        )
        for m in ("fd", "central", "derivative"):
            assert np.allclose(grads[m], grads["adjoint"], atol=1e-5), m

    def test_agreement_descending_network(self):
        net, x, t = make_problem(descending=True, seed=5)
        _, g_adj = loss_and_gradient(net, x, t, method="adjoint")
        _, g_der = looped_loss_and_gradient(net, x, t, method="derivative")
        assert np.allclose(g_adj, g_der, atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=15)
    def test_property_adjoint_equals_derivative(self, seed):
        net, x, t = make_problem(dim=4, layers=2, m=2, seed=seed)
        _, a = loss_and_gradient(net, x, t, method="adjoint")
        _, d = looped_loss_and_gradient(net, x, t, method="derivative")
        assert np.allclose(a, d, atol=1e-11)

    def test_loss_value_identical_across_methods(self):
        net, x, t = make_problem()
        values = [
            loss_and_gradient(net, x, t, method=m)[0]
            for m in available_gradient_methods()
        ]
        assert np.allclose(values, values[0])


class TestSemantics:
    def test_parameters_restored_after_fd(self):
        net, x, t = make_problem()
        before = net.get_flat_params().copy()
        loss_and_gradient(net, x, t, method="fd")
        assert np.allclose(net.get_flat_params(), before)

    def test_gradient_descends_loss(self):
        net, x, t = make_problem()
        loss0, grad = loss_and_gradient(net, x, t, method="adjoint")
        params = net.get_flat_params()
        net.set_flat_params(params - 1e-3 * grad)
        loss1, _ = loss_and_gradient(net, x, t, method="adjoint")
        assert loss1 < loss0

    def test_zero_gradient_at_optimum(self):
        # target == network output -> loss 0, gradient 0.
        net, x, _ = make_problem()
        t = net.forward(x)
        loss, grad = loss_and_gradient(net, x, t, method="adjoint")
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_sum_vs_mean_scaling(self):
        net, x, t = make_problem()
        l_sum, g_sum = loss_and_gradient(
            net, x, t, loss=SquaredErrorLoss("sum"), method="adjoint"
        )
        l_mean, g_mean = loss_and_gradient(
            net, x, t, loss=SquaredErrorLoss("mean"), method="adjoint"
        )
        scale = x.size
        assert l_sum == pytest.approx(l_mean * scale)
        assert np.allclose(g_sum, g_mean * scale)

    def test_fidelity_loss_gradient_fd_check(self):
        net, x, t = make_problem(seed=9)
        loss = FidelityLoss("sum")
        _, g_exact = loss_and_gradient(
            net, x, t, loss=loss, method="adjoint"
        )
        _, g_fd = loss_and_gradient(
            net, x, t, loss=loss, method="central", delta=1e-6
        )
        assert np.allclose(g_exact, g_fd, atol=1e-6)

    def test_paper_delta_constant(self):
        # Eq. (8): Delta "uniformly set to 1e-8".
        assert PAPER_DELTA == 1e-8

    def test_complex_network_uses_derivative(self):
        rng = np.random.default_rng(2)
        net = QuantumNetwork(4, 2, allow_phase=True)
        net.set_flat_params(rng.uniform(0.1, 1.0, net.num_parameters))
        x = np.eye(4)[:, :2]
        t = np.eye(4)[:, 2:4]
        _, g_der = looped_loss_and_gradient(net, x, t, method="derivative")
        _, g_fd = loss_and_gradient(net, x, t, method="fd", delta=1e-7)
        assert g_der.shape == (net.num_parameters,)
        assert np.allclose(g_der, g_fd, atol=1e-4)


class TestValidation:
    def test_unknown_method(self):
        net, x, t = make_problem()
        with pytest.raises(GradientError, match="unknown gradient method"):
            loss_and_gradient(net, x, t, method="magic")

    def test_adjoint_supports_complex_network(self):
        rng = np.random.default_rng(5)
        net = QuantumNetwork(4, 2, allow_phase=True)
        net.set_flat_params(rng.uniform(0.1, 1.0, net.num_parameters))
        x = np.eye(4)[:, :3]
        t = np.eye(4)[:, 1:4]
        _, g_adj = loss_and_gradient(net, x, t, method="adjoint")
        _, g_der = looped_loss_and_gradient(net, x, t, method="derivative")
        assert g_adj.shape == (net.num_parameters,)
        assert np.allclose(g_adj, g_der, atol=1e-12)

    def test_fidelity_loss_complex_gradient_fd_check(self):
        """Regression: the fidelity adjoint lam is -2<t|o>t, not its
        conjugate — wrong conjugation only shows up for complex states."""
        rng = np.random.default_rng(8)
        net = QuantumNetwork(4, 3, allow_phase=True)
        net.set_flat_params(rng.uniform(0.1, 1.0, net.num_parameters))
        x = np.eye(4)[:, :3]
        t = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        t /= np.linalg.norm(t, axis=0)
        loss = FidelityLoss("sum")
        _, g_adj = loss_and_gradient(net, x, t, loss=loss, method="adjoint")
        _, g_der = looped_loss_and_gradient(
            net, x, t, loss=loss, method="derivative"
        )
        _, g_fd = loss_and_gradient(
            net, x, t, loss=loss, method="central", delta=1e-6
        )
        assert np.allclose(g_adj, g_fd, atol=1e-6)
        assert np.allclose(g_der, g_fd, atol=1e-6)

    def test_adjoint_supports_complex_inputs(self):
        net, x, t = make_problem()
        xc = x.astype(complex)
        _, g_adj = loss_and_gradient(net, xc, t, method="adjoint")
        _, g_der = looped_loss_and_gradient(net, xc, t, method="derivative")
        assert np.allclose(g_adj, g_der, atol=1e-12)

    def test_shape_mismatch(self):
        net, x, t = make_problem()
        with pytest.raises(GradientError, match="targets shape"):
            loss_and_gradient(net, x, t[:, :2])

    def test_wrong_input_dim(self):
        net, _, _ = make_problem()
        with pytest.raises(GradientError, match="inputs must be"):
            loss_and_gradient(net, np.ones((4, 2)), np.ones((4, 2)))

    def test_projection_dim_mismatch(self):
        net, x, t = make_problem()
        with pytest.raises(GradientError, match="projection dim"):
            loss_and_gradient(
                net, x, t, projection=Projection.last(4, 2)
            )

    def test_nonpositive_delta_rejected(self):
        net, x, t = make_problem()
        with pytest.raises(GradientError, match="delta"):
            loss_and_gradient(net, x, t, method="fd", delta=0.0)
