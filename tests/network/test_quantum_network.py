"""Tests for repro.network.quantum_network."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DimensionError, NetworkConfigError
from repro.network.quantum_network import QuantumNetwork
from repro.simulator.gates import BeamsplitterGate


class TestConstruction:
    def test_paper_parameter_counts(self):
        # Section IV-A: "only 12x15 parameters ... in the compression
        # network, and 14x15 ... in the reconstruction network".
        assert QuantumNetwork(16, 12).num_parameters == 180
        assert QuantumNetwork(16, 14).num_parameters == 210

    def test_invalid_layers(self):
        with pytest.raises(NetworkConfigError):
            QuantumNetwork(4, 0)

    def test_invalid_dim(self):
        with pytest.raises(NetworkConfigError):
            QuantumNetwork(1, 2)

    def test_phase_doubles_parameters(self):
        assert QuantumNetwork(4, 2, allow_phase=True).num_parameters == 12

    def test_zero_init_is_identity(self):
        assert np.allclose(QuantumNetwork(8, 3).unitary(), np.eye(8))


class TestParameters:
    def test_flat_roundtrip(self, rng):
        net = QuantumNetwork(8, 4)
        params = rng.uniform(0, 2 * np.pi, net.num_parameters)
        net.set_flat_params(params)
        assert np.allclose(net.get_flat_params(), params)

    def test_flat_roundtrip_with_phase(self, rng):
        net = QuantumNetwork(4, 3, allow_phase=True)
        params = rng.uniform(0, 2 * np.pi, net.num_parameters)
        net.set_flat_params(params)
        assert np.allclose(net.get_flat_params(), params)

    def test_wrong_size_rejected(self):
        with pytest.raises(NetworkConfigError, match="expected"):
            QuantumNetwork(4, 2).set_flat_params(np.zeros(5))

    def test_nan_params_rejected(self):
        net = QuantumNetwork(4, 2)
        bad = np.zeros(net.num_parameters)
        bad[0] = np.nan
        with pytest.raises(NetworkConfigError, match="NaN"):
            net.set_flat_params(bad)

    def test_theta_matrix_shape(self):
        assert QuantumNetwork(16, 12).theta_matrix.shape == (12, 15)

    def test_layer_order_in_flat_vector(self):
        net = QuantumNetwork(4, 2)
        params = np.arange(6.0)
        net.set_flat_params(params)
        assert net.layers[0].thetas.tolist() == [0.0, 1.0, 2.0]
        assert net.layers[1].thetas.tolist() == [3.0, 4.0, 5.0]

    def test_initialize_methods(self, rng):
        for method in ("uniform", "zeros", "constant", "small"):
            net = QuantumNetwork(4, 2).initialize(method, rng=rng)
            assert np.all(np.isfinite(net.get_flat_params()))

    def test_initialize_unknown_raises(self):
        from repro.exceptions import TrainingError

        with pytest.raises(TrainingError, match="unknown initializer"):
            QuantumNetwork(4, 2).initialize("nope")


class TestForward:
    def test_unitarity(self, rng):
        net = QuantumNetwork(8, 5).initialize("uniform", rng=rng)
        u = net.unitary()
        assert np.allclose(u.T @ u, np.eye(8), atol=1e-12)

    def test_forward_matches_unitary(self, rng):
        net = QuantumNetwork(8, 3).initialize("uniform", rng=rng)
        x = rng.normal(size=(8, 4))
        assert np.allclose(net.forward(x), net.unitary() @ x)

    def test_forward_inverse_roundtrip(self, rng):
        net = QuantumNetwork(8, 3).initialize("uniform", rng=rng)
        x = rng.normal(size=(8, 4))
        assert np.allclose(net.forward(net.forward(x), inverse=True), x)

    def test_forward_1d(self, rng):
        net = QuantumNetwork(4, 2).initialize("uniform", rng=rng)
        v = rng.normal(size=4)
        assert net.forward(v).shape == (4,)

    def test_dim_mismatch_raises(self, rng):
        net = QuantumNetwork(4, 2)
        with pytest.raises(DimensionError):
            net.forward_inplace(np.zeros((8, 2)))

    def test_descending_differs_from_ascending(self, rng):
        params = rng.uniform(0, 2 * np.pi, 6)
        asc = QuantumNetwork(4, 2)
        asc.set_flat_params(params)
        desc = QuantumNetwork(4, 2, descending=True)
        desc.set_flat_params(params)
        assert not np.allclose(asc.unitary(), desc.unitary())

    def test_matches_circuit_expansion(self, rng):
        net = QuantumNetwork(6, 3).initialize("uniform", rng=rng)
        u = np.eye(6)
        for layer in net.layers:
            for k in layer.mode_sequence():
                u = BeamsplitterGate(int(k), float(layer.thetas[k])).embed(6) @ u
        assert np.allclose(net.unitary(), u)

    def test_complex_network_forward_upcasts(self, rng):
        net = QuantumNetwork(4, 2, allow_phase=True)
        net.set_flat_params(rng.uniform(0.1, 1.0, net.num_parameters))
        out = net.forward(np.eye(4))
        assert np.iscomplexobj(out)
        assert np.allclose(np.conj(out.T) @ out, np.eye(4), atol=1e-12)

    @given(st.integers(0, 1000))
    def test_property_norm_preservation(self, seed):
        rng = np.random.default_rng(seed)
        net = QuantumNetwork(8, 2).initialize("uniform", rng=rng)
        x = rng.normal(size=(8, 3))
        x /= np.linalg.norm(x, axis=0)
        y = net.forward(x)
        assert np.allclose(np.linalg.norm(y, axis=0), 1.0, atol=1e-12)


class TestStructure:
    def test_reversed_structure(self):
        net = QuantumNetwork(4, 3, descending=False)
        rev = net.reversed_structure()
        assert rev.descending is True
        assert rev.num_layers == 3
        assert np.allclose(rev.get_flat_params(), 0.0)

    def test_copy_is_deep(self, rng):
        net = QuantumNetwork(4, 2).initialize("uniform", rng=rng)
        clone = net.copy()
        clone.layers[0].thetas[0] += 1.0
        assert net.layers[0].thetas[0] != clone.layers[0].thetas[0]

    def test_repr_mentions_order(self):
        assert "descending" in repr(QuantumNetwork(4, 2, descending=True))
