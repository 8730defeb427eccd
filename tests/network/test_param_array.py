"""One parameter array per network: layers are rows of it, caches read it.

``QuantumNetwork`` keeps its thetas and alphas in one
``(1 + allow_phase, L, N-1)`` array whose C-order ravel is the flat
parameter layout; each ``GateLayer`` reads and writes its own row.  These
tests pin that a rebound row is validated and seen by every cache, that
copies never share the array, and that ``get_flat_params`` hands out an
independent copy.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import GateError, NetworkConfigError
from repro.network import QuantumAutoencoder
from repro.network.layers import GateLayer
from repro.network.quantum_network import QuantumNetwork
from repro.simulator.gates import BeamsplitterGate
from repro.training.trainer import Trainer


def _net(allow_phase=False, descending=False, backend="fused", seed=0):
    net = QuantumNetwork(
        4, 3, descending=descending, allow_phase=allow_phase, backend=backend
    )
    return net.initialize("uniform", rng=np.random.default_rng(seed))


def _inputs(dtype=np.float64):
    x = np.random.default_rng(1).normal(size=(4, 5))
    return x.astype(dtype)


def _gate_product(layer):
    u = np.eye(layer.dim, dtype=complex)
    alphas = layer.alphas
    for k in layer.mode_sequence():
        alpha = 0.0 if alphas is None else float(alphas[k])
        gate = BeamsplitterGate(int(k), float(layer.thetas[k]), alpha)
        u = gate.embed(layer.dim) @ u
    return u


class TestLayout:
    def test_layer_rows_are_the_flat_layout(self):
        net = _net(allow_phase=True)
        flat = net.get_flat_params()
        rows = [layer.thetas for layer in net.layers]
        rows += [layer.alphas for layer in net.layers]
        assert np.array_equal(np.concatenate(rows), flat)

    def test_row_edit_lands_in_flat_params(self):
        net = _net()
        net.layers[2].thetas[1] = 0.25
        assert net.get_flat_params()[2 * 3 + 1] == 0.25

    def test_set_flat_params_updates_layer_rows(self):
        net = _net(allow_phase=True)
        params = np.arange(net.num_parameters, dtype=float) / 10
        net.set_flat_params(params)
        assert net.layers[1].thetas.tolist() == [0.3, 0.4, 0.5]
        assert np.array_equal(net.layers[0].alphas, params[9:12])

    def test_standalone_layer_owns_its_array(self):
        a = GateLayer(4, thetas=[0.1, 0.2, 0.3])
        b = GateLayer(4, thetas=[0.1, 0.2, 0.3])
        a.thetas[0] = 1.0
        assert b.thetas[0] == 0.1

    def test_layers_cannot_be_swapped_out_of_the_array(self):
        net = _net()
        with pytest.raises(TypeError):
            net.layers[0] = GateLayer(4, thetas=[0.1, 0.2, 0.3])

    def test_layer_copy_detached_from_network(self):
        net = _net()
        clone = net.layers[0].copy()
        clone.thetas[0] += 1.0
        assert net.layers[0].thetas[0] != clone.thetas[0]


class TestReboundRows:
    def test_fused_forward_sees_rebound_row(self):
        net = _net()
        x = _inputs()
        net.forward(x)
        net.layers[1].thetas = [0.3, -0.2, 1.1]
        ref = QuantumNetwork(4, 3, backend="loop")
        ref.set_flat_params(net.get_flat_params())
        assert np.allclose(net.forward(x), ref.forward(x), atol=1e-12)
        assert net.get_flat_params()[3:6].tolist() == [0.3, -0.2, 1.1]

    def test_cached_mesh_sees_rebound_row(self):
        net = _net()
        net.forward(_inputs())
        assert net.backend.cached_mesh() is not None
        net.layers[0].thetas = np.zeros(3)
        assert net.backend.cached_mesh() is None
        net.forward(_inputs())
        mesh = net.backend.cached_mesh()
        assert np.array_equal(mesh.params, net.get_flat_params())

    def test_gradient_workspace_sees_rebound_row(self):
        net = _net()
        x = _inputs()
        net.forward(x)
        net.layers[2].thetas = [0.7, 0.8, 0.9]
        ws = net.backend.gradient_workspace(x)
        fresh = QuantumNetwork(4, 3, backend="fused")
        fresh.set_flat_params(net.get_flat_params())
        expected = fresh.backend.gradient_workspace(x).base_output
        assert np.array_equal(ws.base_output, expected)
        assert np.allclose(ws.base_output, net.forward(x), atol=1e-12)

    def test_rebound_alphas_seen(self):
        net = _net(allow_phase=True)
        x = _inputs(complex)
        before = net.forward(x)
        net.layers[0].alphas = [0.4, 0.0, -0.3]
        after = net.forward(x)
        assert not np.allclose(before, after)
        ref = QuantumNetwork(4, 3, allow_phase=True, backend="loop")
        ref.set_flat_params(net.get_flat_params())
        assert np.allclose(after, ref.forward(x), atol=1e-12)

    def test_rebind_copies_the_values(self):
        net = _net()
        values = np.array([0.1, 0.2, 0.3])
        net.layers[0].thetas = values
        values[0] = 9.0
        assert net.layers[0].thetas[0] == 0.1

    @pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((1, 3)), 0.5])
    def test_wrong_shape_raises(self, bad):
        net = _net()
        before = net.get_flat_params()
        with pytest.raises(NetworkConfigError, match="shape"):
            net.layers[0].thetas = bad
        assert np.array_equal(net.get_flat_params(), before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        net = _net(allow_phase=True)
        before = net.get_flat_params()
        with pytest.raises(NetworkConfigError, match="NaN"):
            net.layers[1].thetas = [0.0, bad, 0.0]
        with pytest.raises(NetworkConfigError, match="NaN"):
            net.layers[1].alphas = [bad, 0.0, 0.0]
        assert np.array_equal(net.get_flat_params(), before)

    def test_alphas_on_real_layer_raise(self):
        with pytest.raises(NetworkConfigError, match="alphas"):
            _net().layers[0].alphas = np.zeros(3)
        with pytest.raises(NetworkConfigError, match="alphas"):
            GateLayer(4).alphas = np.zeros(3)


class TestCopiesOwnTheirArray:
    @pytest.mark.parametrize(
        "make",
        [
            QuantumNetwork.copy,
            copy.deepcopy,
            lambda net: net.reversed_structure().reversed_structure(),
            lambda net: pickle.loads(pickle.dumps(net)),
        ],
        ids=["copy", "deepcopy", "reversed_structure", "pickle"],
    )
    @pytest.mark.parametrize("allow_phase", [False, True])
    def test_edit_moves_only_the_copy(self, make, allow_phase):
        net = _net(allow_phase=allow_phase)
        x = _inputs(complex if allow_phase else float)
        clone = make(net)
        clone.set_flat_params(net.get_flat_params())
        params, out = net.get_flat_params(), net.forward(x)
        assert np.array_equal(clone.forward(x), out)

        clone.layers[1].thetas[0] += 0.5
        if allow_phase:
            clone.layers[2].alphas[1] -= 0.5
        moved = clone.get_flat_params()
        assert moved[3] == params[3] + 0.5
        assert not np.allclose(clone.forward(x), out)
        assert np.array_equal(net.get_flat_params(), params)
        assert np.array_equal(net.forward(x), out)

    def test_deepcopy_layers_share_the_copy_array(self):
        clone = copy.deepcopy(_net())
        clone.layers[0].thetas[2] = 0.125
        assert clone.get_flat_params()[2] == 0.125
        assert clone.theta_matrix[0, 2] == 0.125

    def test_editing_the_original_leaves_copies(self):
        net = _net()
        clones = [net.copy(), copy.deepcopy(net)]
        snapshots = [c.get_flat_params() for c in clones]
        net.layers[0].thetas[0] += 1.0
        for clone, snap in zip(clones, snapshots):
            assert np.array_equal(clone.get_flat_params(), snap)


class TestFlatParamsAreCopies:
    def test_mutating_result_leaves_network_and_cache(self):
        net = _net()
        x = _inputs()
        out = net.forward(x)
        mesh = net.backend.cached_mesh()
        params = net.get_flat_params()
        params[:] = 0.0
        assert net.backend.cached_mesh() is mesh
        assert np.array_equal(net.forward(x), out)
        assert not np.any(net.get_flat_params() == 0.0)

    def test_fresh_float64_each_call(self):
        net = _net(allow_phase=True)
        a, b = net.get_flat_params(), net.get_flat_params()
        assert a.dtype == np.float64 and a.shape == (net.num_parameters,)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, net.theta_matrix)

    def test_history_entries_do_not_alias(self):
        ae = QuantumAutoencoder(4, 2, compression_layers=2,
                                reconstruction_layers=2)
        ae.initialize("uniform", rng=np.random.default_rng(0))
        X = np.abs(np.random.default_rng(2).normal(size=(6, 4))) + 0.1
        history = Trainer(iterations=3, record_theta_every=1).train(
            ae, X
        ).history
        thetas = history.theta_c + history.theta_r
        assert len(history.theta_c) >= 3
        for i, a in enumerate(thetas):
            for b in thetas[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert not np.array_equal(history.theta_c[0], history.theta_c[-1])
        assert np.array_equal(history.theta_c[-1], ae.uc.get_flat_params())


class TestLayerApplication:
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("phase", [False, True])
    def test_unitary_and_apply_match_gate_product(self, descending, phase):
        rng = np.random.default_rng(3)
        layer = GateLayer(
            6,
            thetas=rng.uniform(0, 2 * np.pi, 5),
            alphas=rng.uniform(0, 2 * np.pi, 5) if phase else None,
            descending=descending,
        )
        ref = _gate_product(layer)
        assert np.max(np.abs(layer.unitary() - ref)) <= 1e-12
        x = rng.normal(size=(6, 4)) + (1j * rng.normal(size=(6, 4)))
        assert np.max(np.abs(layer.apply(x) - ref @ x)) <= 1e-12
        back = layer.apply(x, inverse=True)
        assert np.max(np.abs(back - ref.conj().T @ x)) <= 1e-12

    def test_network_layer_matches_gate_product(self):
        net = _net(allow_phase=True, descending=True)
        for layer in net.layers:
            ref = _gate_product(layer)
            assert np.max(np.abs(layer.unitary() - ref)) <= 1e-12

    def test_real_layer_stays_real(self):
        layer = GateLayer(4, thetas=[0.1, 0.2, 0.3], alphas=np.zeros(3))
        assert layer.unitary().dtype == np.float64
        assert layer.apply(np.eye(4)).dtype == np.float64

    def test_phase_layer_on_real_buffer_raises(self):
        layer = GateLayer(4, thetas=[0.1, 0.2, 0.3], alphas=[0.0, 0.5, 0.0])
        data = np.eye(4)
        with pytest.raises(GateError, match="complex"):
            layer.apply_inplace(data)
        assert np.array_equal(data, np.eye(4))
