"""The layer-level adjoint sweep vs the per-gate reference walk.

``method="adjoint"`` pulls the loss adjoint back one layer GEMM at a time
and reads every gate's rows and adjoints off in-layer recurrences
(:func:`repro.training.gradients.adjoint_sweep`) instead of walking gates
in Python; :mod:`gradient_oracle` keeps the original walk as the
reference.  Both are exact reverse-mode, so they agree at rounding level
on every dim / order / dtype / backend / projection / loss combination —
including the complex (``allow_phase``) extension, whose theta *and*
alpha gradients read off the same tape.
"""

import numpy as np
import pytest
from gradient_oracle import looped_loss_and_gradient

from repro.network import Projection, QuantumNetwork
from repro.training.gradients import loss_and_gradient
from repro.training.loss import FidelityLoss, SquaredErrorLoss

DIMS = [2, 3, 4, 5, 8, 16]
LOSSES = {
    "se-sum": SquaredErrorLoss("sum"),
    "se-mean": SquaredErrorLoss("mean"),
    "fidelity": FidelityLoss(),
}


def make_network(dim, layers=3, descending=False, allow_phase=False,
                 seed=11, backend="loop"):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(
        dim, layers, descending=descending, allow_phase=allow_phase,
        backend=backend,
    ).initialize("uniform", rng=rng)
    if allow_phase:
        params = net.get_flat_params()
        params[net.num_thetas :] = 0.4 * rng.normal(size=net.num_thetas)
        net.set_flat_params(params)
    return net


def batch(dim, m=7, complex_=False, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, m))
    if complex_:
        x = x + 1j * rng.normal(size=(dim, m))
    return x / np.linalg.norm(x, axis=0)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
@pytest.mark.parametrize("backend", ["loop", "fused"])
@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_vectorized_adjoint_matches_walk(dim, descending, allow_phase,
                                         backend, projected, loss_name):
    net = make_network(
        dim, descending=descending, allow_phase=allow_phase, backend=backend
    )
    x = batch(dim, complex_=allow_phase)
    t = batch(dim, complex_=allow_phase, seed=6)
    proj = Projection.last(dim, max(1, dim // 2)) if projected else None
    kwargs = dict(loss=LOSSES[loss_name], projection=proj, method="adjoint")
    l1, g1 = looped_loss_and_gradient(net, x, t, **kwargs)
    l2, g2 = loss_and_gradient(net, x, t, **kwargs)
    assert g1.shape == g2.shape == (net.num_parameters,)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.max(np.abs(g1 - g2)) < 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_vectorized_adjoint_complex_network_vs_derivative(dim):
    """Adjoint (reverse) and derivative (forward) exact modes agree on
    phase-bearing networks — both gradients off one parameterisation."""
    net = make_network(dim, allow_phase=True, descending=True,
                       backend="fused")
    x = batch(dim, complex_=True)
    t = batch(dim, complex_=True, seed=6)
    _, g_adj = loss_and_gradient(net, x, t, method="adjoint")
    _, g_der = looped_loss_and_gradient(net, x, t, method="derivative")
    assert np.max(np.abs(g_adj - g_der)) < 1e-10


def test_vectorized_adjoint_backend_independent():
    """The sweep gives the same gradient on loop and fused (loop folds
    its own layers, fused serves its cached fold)."""
    loop = make_network(6, 4)
    fused = loop.copy().set_backend("fused")
    x, t = batch(6), batch(6, seed=6)
    _, g1 = loss_and_gradient(loop, x, t, method="adjoint")
    _, g2 = loss_and_gradient(fused, x, t, method="adjoint")
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_vectorized_adjoint_complex_inputs_real_network():
    """Complex data on a real network: the imaginary adjoint component
    is dropped identically in both drives."""
    net = make_network(5, 3)
    x = batch(5, complex_=True)
    t = batch(5, complex_=True, seed=6)
    _, g1 = looped_loss_and_gradient(net, x, t, method="adjoint")
    _, g2 = loss_and_gradient(net, x, t, method="adjoint")
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_vectorized_adjoint_does_not_mutate_params():
    net = make_network(5, 3)
    before = net.get_flat_params()
    loss_and_gradient(net, batch(5), batch(5, seed=6), method="adjoint")
    assert np.array_equal(net.get_flat_params(), before)


def test_trainer_default_uses_vectorized_adjoint(monkeypatch):
    """End-to-end: a few training iterations land within rounding of the
    same run with every gradient taken by the per-gate walk (same
    optimiser trajectory)."""
    from repro.network.autoencoder import QuantumAutoencoder
    from repro.training import trainer as trainer_module
    from repro.training.trainer import Trainer

    rng = np.random.default_rng(1)
    X = np.abs(rng.normal(size=(5, 4))) + 0.1

    def final_loss_r():
        ae = QuantumAutoencoder(
            dim=4, compressed_dim=2, compression_layers=2,
            reconstruction_layers=2, backend="fused",
        ).initialize("uniform", rng=np.random.default_rng(3))
        trainer = Trainer(iterations=5, gradient_method="adjoint")
        return trainer.train(ae, X).final_loss_r

    batched = final_loss_r()
    monkeypatch.setattr(
        trainer_module, "loss_and_gradient", looped_loss_and_gradient
    )
    assert batched == pytest.approx(final_loss_r(), abs=1e-10)
