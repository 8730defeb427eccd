"""The closed-form chain fold against per-gate references.

The ``loop`` backend (two-row Givens kernels, gate by gate) is the oracle
for the clean fold; a per-gate fold kept below (rotate, then damp rows
``k, k+1``) is the oracle for the noisy one, and the per-gate traced
forward of ``gradient_oracle.reference_workspace`` for the gate rows
``chain_rows`` reads off the layer outputs.  Both reassociate the same
products, so agreement is at rounding level, never bitwise.  Batched
folds, in contrast, must be *bitwise* slice-exact: the noise contracts
(pool:2 == pool:4 == in-process) rest on it.
"""

import numpy as np
import pytest

from gradient_oracle import reference_workspace

from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.fold import chain_rows, fold, mesh_layers, noisy_folds
from repro.backends.program import compile_program
from repro.network import QuantumNetwork
from repro.noise import (
    NoiseModel,
    realization_rng,
    sample_mesh_matrices,
    sample_mesh_matrix,
)
from repro.simulator.gates import apply_givens_batch

DIMS = [2, 3, 4, 8, 16]
TOL = 1e-12


def make_net(dim, descending=False, allow_phase=False, layers=3, seed=2,
             backend="loop"):
    net = QuantumNetwork(dim, layers, descending=descending,
                         allow_phase=allow_phase, backend=backend)
    return net.initialize("uniform", rng=np.random.default_rng(seed))


def per_gate_fold(program, thetas, keep_amp):
    """Gate-by-gate noisy fold: rotate rows ``k, k+1``, then damp them."""
    u = np.eye(program.dim)
    for g in range(program.num_gates):
        k = int(program.modes[g])
        apply_givens_batch(u, k, float(thetas[program.theta_index[g]]))
        u[k] *= keep_amp
        u[k + 1] *= keep_amp
    return u


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_fold_matches_loop_unitary(dim, descending, allow_phase):
    net = make_net(dim, descending, allow_phase)
    if allow_phase:
        params = net.get_flat_params()
        params[net.num_thetas:] = np.random.default_rng(7).uniform(
            -np.pi, np.pi, net.num_thetas
        )
        net.set_flat_params(params)
    mesh = mesh_layers(compile_program(net), net.get_flat_params())
    u = fold(mesh.layers)
    ref = net.unitary()
    assert u.dtype == ref.dtype
    assert np.max(np.abs(u - ref)) <= TOL
    for p, layer in enumerate(net.layers):
        assert np.max(np.abs(mesh.layers[p] - layer.unitary())) <= TOL


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
def test_lossy_jittered_fold_matches_per_gate_oracle(dim, descending):
    net = make_net(dim, descending)
    prog = compile_program(net)
    rng = np.random.default_rng(11)
    thetas = net.get_flat_params() + rng.normal(0.0, 0.05, (4, net.num_thetas))
    for keep_amp in (1.0, float(np.sqrt(1.0 - 0.02))):
        mats = noisy_folds(prog, thetas, keep_amp)
        for r in range(thetas.shape[0]):
            ref = per_gate_fold(prog, thetas[r], keep_amp)
            assert np.max(np.abs(mats[r] - ref)) <= TOL


@pytest.mark.parametrize("descending", [False, True])
def test_per_row_keep_amp_equals_scalar_calls(descending):
    net = make_net(16, descending, layers=12)
    prog = compile_program(net)
    rng = np.random.default_rng(12)
    thetas = net.get_flat_params() + rng.normal(0.0, 0.02, (5, net.num_thetas))
    keep_amp = np.array([1.0, np.sqrt(0.99), 1.0, np.sqrt(0.9), np.sqrt(0.99)])
    mats = noisy_folds(prog, thetas, keep_amp)
    for r in range(thetas.shape[0]):
        single = noisy_folds(prog, thetas[r : r + 1], float(keep_amp[r]))
        assert np.array_equal(mats[r], single[0])
    assert np.array_equal(
        noisy_folds(prog, thetas, np.ones(5)), noisy_folds(prog, thetas, 1.0)
    )


def test_sampled_mesh_matches_per_gate_oracle():
    net = make_net(8, descending=True)
    prog = compile_program(net)
    model = NoiseModel(theta_sigma=0.03, loss_per_gate=0.01)
    params = net.get_flat_params()
    u = sample_mesh_matrix(net, params, model, realization_rng(5, 1, 2))
    jitter = realization_rng(5, 1, 2).normal(0.0, 0.03, size=net.num_thetas)
    ref = per_gate_fold(prog, params + jitter, float(np.sqrt(0.99)))
    assert np.max(np.abs(u - ref)) <= TOL


@pytest.mark.parametrize("descending", [False, True])
def test_batched_fold_is_slice_exact(descending):
    net = make_net(16, descending, layers=12)
    params = net.get_flat_params()
    model = NoiseModel(theta_sigma=0.02, loss_per_gate=0.005)
    K = 8

    def rngs(lo, hi):
        return [realization_rng(3, 0, r, 1) for r in range(lo, hi)]

    full = sample_mesh_matrices(net, params, model, rngs(0, K))
    assert full.shape == (K, 16, 16)
    for r in range(K):
        single = sample_mesh_matrix(net, params, model, rngs(r, r + 1)[0])
        assert np.array_equal(full[r], single)
    for lo in range(K):
        for hi in range(lo + 1, K + 1):
            assert np.array_equal(
                full[lo:hi], sample_mesh_matrices(net, params, model, rngs(lo, hi))
            )


#: Angles where ``c`` or ``s`` vanishes (up to the rounding of pi / 2):
#: a read-off that divided by either would fail on them.
SPECIAL_THETAS = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi])


def gate_row_case(dim, descending, allow_phase, k):
    """A 3-layer mesh, ``k`` parameter sets sharing its phases (every
    other gate at a special angle), an input batch and the layer
    outputs of every set, ``(k, L, N, M)``."""
    net = make_net(dim, descending, allow_phase)
    params = net.get_flat_params()
    if allow_phase:
        params[net.num_thetas:] = np.random.default_rng(7).uniform(
            -np.pi, np.pi, net.num_thetas
        )
    rng = np.random.default_rng(8)
    sets = np.repeat(params[None], k, axis=0)
    sets[:, : net.num_thetas] += rng.normal(0.0, 0.1, (k, net.num_thetas))
    special = np.arange(0, net.num_thetas, 2)
    sets[:, special] = np.resize(SPECIAL_THETAS, special.size)
    x = rng.normal(size=(dim, 5))
    mesh = mesh_layers(net, sets)
    states = [np.broadcast_to(x, (k,) + x.shape)]
    for p in range(net.num_layers):
        states.append(mesh.layers[:, p] @ states[-1])
    return net, sets, x, mesh, np.stack(states[1:], axis=1)


def rows_of(mesh, outputs, descending):
    out = np.empty(
        outputs.shape[:-2] + (outputs.shape[-2] - 1, outputs.shape[-1]),
        dtype=np.result_type(mesh.layers, outputs),
    )
    return chain_rows(mesh.layers, mesh.cols, outputs, descending, out)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_chain_rows_match_per_gate_tape(dim, descending, allow_phase, k):
    """Entry ``j`` is row ``j`` (ascending) or ``j + 1`` (descending) of
    the state gate ``j`` reads, as the per-gate traced forward records
    it."""
    net, sets, x, mesh, outputs = gate_row_case(
        dim, descending, allow_phase, k
    )
    rows = rows_of(mesh, outputs, descending)
    prog = compile_program(net)
    for r in range(k):
        net.set_flat_params(sets[r])
        tape = reference_workspace(net, x).row_tape
        expected = np.empty_like(rows[r])
        expected[prog.layer_index, prog.modes] = tape[:, int(descending)]
        assert np.max(np.abs(rows[r] - expected)) <= 1e-13


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_chain_rows_stack_equals_single_calls(descending, allow_phase):
    net, sets, _, mesh, outputs = gate_row_case(8, descending, allow_phase, 4)
    rows = rows_of(mesh, outputs, descending)
    for r in range(4):
        single = mesh_layers(net, sets[r : r + 1])
        assert np.array_equal(
            rows[r : r + 1], rows_of(single, outputs[r : r + 1], descending)
        )


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_workspace_from_cached_fold_equals_cold_build(descending, allow_phase):
    net = make_net(6, descending, allow_phase, layers=4, backend="fused")
    x = np.random.default_rng(4).normal(size=(6, 5))
    net.forward(x)  # populate the fused cache
    warm = net.backend.gradient_workspace(x)
    cold = PrefixSuffixWorkspace(net, compile_program(net), x)
    for name in ("base_output", "row_tape", "suffix_cols"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name))


class TestNoStaleLayers:
    """Every parameter change reaches the cached layers and the workspace."""

    def check_fresh(self, net):
        x = np.eye(net.dim)
        warm = net.backend.gradient_workspace(x)
        cold = PrefixSuffixWorkspace(net, compile_program(net), x)
        assert np.array_equal(warm.suffix_cols, cold.suffix_cols)
        assert np.array_equal(warm.base_output, cold.base_output)
        ref = mesh_layers(net, net.get_flat_params()).layers
        assert np.array_equal(np.stack(net.backend.layer_unitaries()), ref)

    def test_set_flat_params(self):
        net = make_net(5, backend="fused")
        net.forward(np.eye(5))
        params = net.get_flat_params()
        params[3] += 0.4
        net.set_flat_params(params)
        self.check_fresh(net)

    def test_direct_theta_mutation(self):
        net = make_net(5, descending=True, backend="fused")
        before = net.backend.layer_unitaries()
        net.layers[1].thetas[2] += 0.3  # bypasses set_flat_params
        self.check_fresh(net)
        assert not np.array_equal(before[1], net.backend.layer_unitaries()[1])
