"""Backend-equivalence suite: loop vs fused must agree everywhere.

The loop backend is the bit-exact reference (the seed implementation's
kernels); the fused backend reassociates the same arithmetic into GEMMs,
so outputs agree to rounding (~1e-15 per pass) but not bitwise.

Gradient tolerances are per-method: the exact methods (``derivative``,
``adjoint``) agree to 1e-12; the finite-difference methods carry their own
cancellation noise floor of ``~ulp(loss)/delta`` — ``delta = 1e-8``
(forward) and ``1e-6`` (central) put that floor near 1e-8 and 1e-10
respectively, far above the backends' 1e-15 forward agreement, so those
methods are compared at the floor, not at 1e-12.

The same floors govern the comparison with the per-gate oracle
(:mod:`gradient_oracle`'s looped drive of the same cached workspace): both
consume the identical cached prefix/suffix arrays, so any disagreement is
pure reassociation noise — ``<= 1e-8`` for every method is the acceptance
bar, checked at the paper configuration too.
"""

import numpy as np
import pytest
from gradient_oracle import (
    derivative_output,
    looped_loss_and_gradient,
    perturbed_output,
    reference_workspace,
)

from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.program import compile_program
from repro.network import Projection, QuantumNetwork
from repro.training.gradients import loss_and_gradient

DIMS = [3, 5, 8]  # includes non-power-of-two dims
GRAD_TOL = {
    "fd": 1e-6,
    "central": 1e-9,
    "derivative": 1e-12,
    "adjoint": 1e-12,
}
ENGINE_TOL = {
    "fd": 1e-8,
    "central": 1e-10,
    "derivative": 1e-12,
    # The adjoint is the vectorised sweep, the oracle the per-gate walk —
    # exact methods both, agreeing at rounding level.
    "adjoint": 1e-12,
}


def engine_tol(method, loss_value):
    """Per-method oracle tolerance, floored at fd's own cancellation noise.

    Both drives evaluate ``(loss(plus) - base) / delta`` from the same
    cached arrays; their results can only differ by reassociation noise in
    ``loss(plus)``, which enters the quotient in quanta of
    ``ulp(loss)/delta``.  At the paper scale (mean-reduced loss ~1e-3)
    that floor sits far below 1e-8 — the paper-config test holds the
    absolute bar there — but tiny unit-test problems have O(0.1) losses whose quanta
    are ~5e-9, so the bound must scale with the observed loss.
    """
    tol = ENGINE_TOL[method]
    if method == "fd":
        tol = max(tol, 8.0 * np.spacing(abs(loss_value)) / 1e-8)
    return tol


def make_network(dim, layers=3, descending=False, allow_phase=False, seed=11):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(
        dim, layers, descending=descending, allow_phase=allow_phase
    )
    net.initialize("uniform", rng=rng)
    if allow_phase:
        params = net.get_flat_params()
        params[net.num_thetas :] = 0.4 * rng.normal(size=net.num_thetas)
        net.set_flat_params(params)
    return net


def loop_and_fused(dim, **kwargs):
    net = make_network(dim, **kwargs)
    return net, net.copy().set_backend("fused")


def batch(dim, m=7, complex_=False, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, m))
    if complex_:
        x = x + 1j * rng.normal(size=(dim, m))
    return x / np.linalg.norm(x, axis=0)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
class TestForwardEquivalence:
    def test_forward_real(self, dim, descending):
        loop, fused = loop_and_fused(dim, descending=descending)
        x = batch(dim)
        assert np.allclose(loop.forward(x), fused.forward(x), atol=1e-12)

    def test_forward_complex_input(self, dim, descending):
        loop, fused = loop_and_fused(dim, descending=descending)
        x = batch(dim, complex_=True)
        assert np.allclose(loop.forward(x), fused.forward(x), atol=1e-12)

    def test_forward_allow_phase(self, dim, descending):
        loop, fused = loop_and_fused(
            dim, descending=descending, allow_phase=True
        )
        x = batch(dim)
        out_loop = loop.forward(x)
        out_fused = fused.forward(x)
        assert np.iscomplexobj(out_loop) and np.iscomplexobj(out_fused)
        assert np.allclose(out_loop, out_fused, atol=1e-12)

    def test_inverse(self, dim, descending):
        loop, fused = loop_and_fused(dim, descending=descending)
        x = batch(dim)
        assert np.allclose(
            loop.forward(x, inverse=True),
            fused.forward(x, inverse=True),
            atol=1e-12,
        )

    def test_inverse_roundtrip(self, dim, descending):
        _, fused = loop_and_fused(dim, descending=descending)
        x = batch(dim)
        assert np.allclose(
            fused.forward(fused.forward(x), inverse=True), x, atol=1e-12
        )

    def test_inverse_allow_phase(self, dim, descending):
        loop, fused = loop_and_fused(
            dim, descending=descending, allow_phase=True
        )
        x = batch(dim, complex_=True)
        assert np.allclose(
            loop.forward(x, inverse=True),
            fused.forward(x, inverse=True),
            atol=1e-12,
        )

    def test_unitary(self, dim, descending):
        loop, fused = loop_and_fused(dim, descending=descending)
        assert np.allclose(loop.unitary(), fused.unitary(), atol=1e-12)

    def test_single_column(self, dim, descending):
        loop, fused = loop_and_fused(dim, descending=descending)
        v = batch(dim, m=1).ravel()
        assert np.allclose(loop.forward(v), fused.forward(v), atol=1e-12)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_reference_tape_equivalence(dim, descending, allow_phase):
    """The oracle's per-gate traced forward is the loop backend's forward
    bitwise, and the fused one's to rounding."""
    loop, fused = loop_and_fused(
        dim, descending=descending, allow_phase=allow_phase
    )
    x = batch(dim)
    ref = reference_workspace(loop, x)
    assert np.array_equal(ref.base_output, loop.forward(x))
    assert np.allclose(ref.base_output, fused.forward(x), atol=1e-12)
    assert np.array_equal(
        ref.row_tape, reference_workspace(fused, x).row_tape
    )


@pytest.mark.parametrize("method", sorted(GRAD_TOL))
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
def test_gradient_equivalence_real(method, dim, descending):
    loop, fused = loop_and_fused(dim, descending=descending)
    x = batch(dim)
    t = batch(dim, seed=6)
    proj = Projection.last(dim, max(1, dim // 2))
    l1, g1 = loss_and_gradient(loop, x, t, projection=proj, method=method)
    l2, g2 = loss_and_gradient(fused, x, t, projection=proj, method=method)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.max(np.abs(g1 - g2)) < GRAD_TOL[method]


@pytest.mark.parametrize("method", ["fd", "central", "derivative"])
@pytest.mark.parametrize("dim", DIMS)
def test_gradient_equivalence_complex(method, dim):
    loop, fused = loop_and_fused(dim, allow_phase=True, descending=True)
    x = batch(dim)
    t = batch(dim, seed=6)
    l1, g1 = loss_and_gradient(loop, x, t, method=method)
    l2, g2 = loss_and_gradient(fused, x, t, method=method)
    assert g1.shape == g2.shape == (2 * loop.num_thetas,)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.max(np.abs(g1 - g2)) < GRAD_TOL[method]


@pytest.mark.parametrize("method", ["fd", "central", "derivative"])
def test_cached_gradient_does_not_mutate_params(method):
    _, fused = loop_and_fused(5)
    before = fused.get_flat_params()
    loss_and_gradient(fused, batch(5), batch(5, seed=6), method=method)
    assert np.array_equal(fused.get_flat_params(), before)


def test_cached_fd_matches_exact_gradient():
    """Cached fd stays within fd's truncation error of the exact gradient."""
    loop, fused = loop_and_fused(8, layers=4)
    x = batch(8)
    t = batch(8, seed=6)
    _, exact = loss_and_gradient(loop, x, t, method="adjoint")
    _, fd = loss_and_gradient(fused, x, t, method="fd")
    assert np.max(np.abs(fd - exact)) < 1e-5


@pytest.mark.parametrize("method", sorted(ENGINE_TOL))
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_engine_equivalence(method, dim, descending, allow_phase):
    """The batched drive vs the looped oracle across dims, orders and
    dtypes."""
    _, fused = loop_and_fused(
        dim, descending=descending, allow_phase=allow_phase
    )
    x = batch(dim)
    t = batch(dim, seed=6)
    proj = Projection.last(dim, max(1, dim // 2))
    l1, g1 = looped_loss_and_gradient(
        fused, x, t, projection=proj, method=method
    )
    l2, g2 = loss_and_gradient(fused, x, t, projection=proj, method=method)
    assert g1.shape == g2.shape == (fused.num_parameters,)
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.max(np.abs(g1 - g2)) <= engine_tol(method, l1)


@pytest.mark.parametrize("method", ["fd", "central", "derivative"])
@pytest.mark.parametrize("dim", DIMS)
def test_engine_equivalence_complex_inputs(method, dim):
    """The drives agree for complex input batches on real networks too."""
    _, fused = loop_and_fused(dim)
    x = batch(dim, complex_=True)
    t = batch(dim, complex_=True, seed=6)
    l1, g1 = looped_loss_and_gradient(fused, x, t, method=method)
    _, g2 = loss_and_gradient(fused, x, t, method=method)
    assert np.max(np.abs(g1 - g2)) <= engine_tol(method, l1)


@pytest.mark.parametrize("method", sorted(ENGINE_TOL))
@pytest.mark.parametrize("allow_phase", [False, True], ids=["real", "complex"])
def test_engine_equivalence_paper_config(method, allow_phase):
    """At the paper's configuration (N = 16, l_C = 12 layers, M = 25
    samples, projection d = 4) the batched drive matches the looped
    oracle to <= 1e-8 for every method, real and complex."""
    net = QuantumNetwork(16, 12, allow_phase=allow_phase, backend="fused")
    net.initialize("uniform", rng=np.random.default_rng(2024))
    if allow_phase:
        params = net.get_flat_params()
        phases = np.random.default_rng(2025).normal(size=net.num_thetas)
        params[net.num_thetas :] = 0.4 * phases
        net.set_flat_params(params)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 25))
    x /= np.linalg.norm(x, axis=0)
    t = rng.normal(size=(16, 25))
    t /= np.linalg.norm(t, axis=0)
    proj = Projection.last(16, 4)
    _, g1 = looped_loss_and_gradient(
        net, x, t, projection=proj, method=method
    )
    _, g2 = loss_and_gradient(net, x, t, projection=proj, method=method)
    assert np.max(np.abs(g1 - g2)) <= 1e-8


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
class TestWorkspaceBatchedMethods:
    """The stacked workspace methods slice-for-slice match the oracle's
    one-parameter outputs."""

    def workspace(self, dim, descending, allow_phase, m=5):
        net = make_network(
            dim, descending=descending, allow_phase=allow_phase
        )
        ws = PrefixSuffixWorkspace(net, compile_program(net), batch(dim, m=m))
        return net, ws

    def test_perturbed_outputs_stack(self, dim, descending, allow_phase):
        _, ws = self.workspace(dim, descending, allow_phase)
        idx = np.arange(ws.num_parameters)
        stack = ws.perturbed_outputs(idx, 1e-4)
        for i in range(ws.num_parameters):
            assert np.allclose(
                stack[i], perturbed_output(ws, i, 1e-4), atol=1e-13
            )

    def test_perturbed_outputs_keep_restricts(self, dim, descending, allow_phase):
        _, ws = self.workspace(dim, descending, allow_phase)
        proj = Projection.last(dim, max(1, dim // 2))
        idx = np.arange(ws.num_parameters)
        restricted = ws.perturbed_outputs(idx, 1e-4, keep=proj.mask)
        assert restricted.shape[1] == proj.compressed_dim
        full = ws.perturbed_outputs(idx, 1e-4)
        assert np.allclose(restricted, full[:, proj.mask], atol=1e-13)

    def test_derivative_gradients_contraction(
        self, dim, descending, allow_phase
    ):
        _, ws = self.workspace(dim, descending, allow_phase)
        rng = np.random.default_rng(3)
        lam = rng.normal(size=ws.base_output.shape).astype(ws.dtype)
        if np.iscomplexobj(lam):
            lam = lam + 1j * rng.normal(size=ws.base_output.shape)
        idx = np.arange(ws.num_parameters)
        grads = ws.derivative_gradients(idx, lam)
        expected = np.array(
            [
                float(np.real(np.sum(np.conj(lam) * derivative_output(ws, i))))
                for i in range(ws.num_parameters)
            ]
        )
        assert np.allclose(grads, expected, atol=1e-12)

    def test_derivative_gradients_any_index_order(
        self, dim, descending, allow_phase
    ):
        # A shuffled strict subset of the parameters: entry p of the
        # result belongs to param_indices[p], whatever the order.
        _, ws = self.workspace(dim, descending, allow_phase)
        rng = np.random.default_rng(4)
        lam = rng.normal(size=ws.base_output.shape).astype(ws.dtype)
        if np.iscomplexobj(lam):
            lam = lam + 1j * rng.normal(size=ws.base_output.shape)
        idx = rng.permutation(ws.num_parameters)[: ws.num_parameters // 2 + 1]
        grads = ws.derivative_gradients(idx, lam)
        assert grads.shape == idx.shape
        expected = np.array(
            [
                float(np.real(np.sum(np.conj(lam) * derivative_output(ws, i))))
                for i in idx
            ]
        )
        assert np.allclose(grads, expected, atol=1e-12)

    def test_param_chunks_cover_all_parameters(
        self, dim, descending, allow_phase
    ):
        _, ws = self.workspace(dim, descending, allow_phase)
        seen = np.concatenate(list(ws.param_chunks()))
        assert sorted(seen.tolist()) == list(range(ws.num_parameters))
        per_layer = np.concatenate(list(ws.layer_param_chunks()))
        assert sorted(per_layer.tolist()) == list(range(ws.num_parameters))

    def test_param_chunks_respect_budget(self, dim, descending, allow_phase):
        _, ws = self.workspace(dim, descending, allow_phase)
        chunks = list(ws.param_chunks(max_elements=1))
        assert len(chunks) == len(list(ws.layer_param_chunks()))


def test_vectorized_build_matches_reference_sweep():
    """GEMM-assembled workspaces equal the per-gate reference sweep."""
    for descending in (False, True):
        for allow_phase in (False, True):
            net = make_network(
                6, layers=4, descending=descending, allow_phase=allow_phase
            )
            x = batch(6)
            ws = PrefixSuffixWorkspace(net, compile_program(net), x)
            ref = reference_workspace(net, x)
            assert np.allclose(ws.base_output, ref.base_output, atol=1e-13)
            assert np.allclose(ws.row_tape, ref.row_tape, atol=1e-13)
            assert np.allclose(ws.suffix_cols, ref.suffix_cols, atol=1e-13)


def test_gradient_after_parameter_update():
    """The workspace is rebuilt per evaluation — no stale caching."""
    loop, fused = loop_and_fused(5)
    x, t = batch(5), batch(5, seed=6)
    loss_and_gradient(fused, x, t, method="derivative")
    rng = np.random.default_rng(99)
    new = rng.normal(size=loop.num_parameters)
    loop.set_flat_params(new)
    fused.set_flat_params(new)
    _, g1 = loss_and_gradient(loop, x, t, method="derivative")
    _, g2 = loss_and_gradient(fused, x, t, method="derivative")
    assert np.max(np.abs(g1 - g2)) < 1e-12
