"""Tests for repro.network.layers (GateLayer, Eq. 6 / Fig. 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import NetworkConfigError
from repro.network.layers import GateLayer
from repro.simulator.gates import BeamsplitterGate


def _gate_product(layer):
    """The layer as an explicit product of embedded gates, in mode order."""
    u = np.eye(layer.dim)
    for k in layer.mode_sequence():
        u = BeamsplitterGate(int(k), float(layer.thetas[k])).embed(layer.dim) @ u
    return u


class TestConstruction:
    def test_paper_gate_count(self):
        # "The number of single-layer quantum gates U is N - 1" (Fig. 3).
        assert GateLayer(16).num_gates == 15

    def test_default_identity(self):
        assert np.allclose(GateLayer(5).unitary(), np.eye(5))

    def test_theta_shape_validated(self):
        with pytest.raises(NetworkConfigError, match="shape"):
            GateLayer(4, thetas=[0.1, 0.2])

    def test_alpha_shape_validated(self):
        with pytest.raises(NetworkConfigError):
            GateLayer(4, alphas=[0.1])

    def test_nan_thetas_rejected(self):
        with pytest.raises(NetworkConfigError, match="NaN"):
            GateLayer(4, thetas=[0.1, np.nan, 0.2])

    def test_dim_too_small(self):
        with pytest.raises(NetworkConfigError):
            GateLayer(1)

    def test_thetas_copied(self):
        src = np.zeros(3)
        layer = GateLayer(4, thetas=src)
        src[0] = 9.0
        assert layer.thetas[0] == 0.0


class TestModeSequence:
    def test_ascending(self):
        assert GateLayer(5).mode_sequence().tolist() == [0, 1, 2, 3]

    def test_descending(self):
        assert GateLayer(5, descending=True).mode_sequence().tolist() == [
            3,
            2,
            1,
            0,
        ]

    def test_descending_is_reverse_order_not_reverse_params(self):
        thetas = [0.1, 0.2, 0.3]
        asc = GateLayer(4, thetas=thetas)
        desc = GateLayer(4, thetas=thetas, descending=True)
        # Gate at modes (k, k+1) uses thetas[k] in both orders.
        assert asc.thetas.tolist() == desc.thetas.tolist()
        # But the unitaries differ because application order differs.
        assert not np.allclose(asc.unitary(), desc.unitary())


class TestApplication:
    @given(
        arrays(np.float64, 3, elements=st.floats(-np.pi, np.pi, allow_nan=False))
    )
    def test_property_orthogonal(self, thetas):
        u = GateLayer(4, thetas=thetas).unitary()
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)

    def test_matches_circuit_expansion(self, rng):
        thetas = rng.uniform(0, 2 * np.pi, 7)
        layer = GateLayer(8, thetas=thetas)
        assert np.allclose(layer.unitary(), _gate_product(layer))

    def test_descending_matches_circuit(self, rng):
        thetas = rng.uniform(0, 2 * np.pi, 7)
        layer = GateLayer(8, thetas=thetas, descending=True)
        assert np.allclose(layer.unitary(), _gate_product(layer))

    def test_inverse_roundtrip(self, rng):
        layer = GateLayer(6, thetas=rng.uniform(0, 6, 5))
        x = rng.normal(size=(6, 3))
        y = layer.apply(x)
        back = layer.apply(y, inverse=True)
        assert np.allclose(back, x, atol=1e-12)

    def test_apply_1d(self, rng):
        layer = GateLayer(4, thetas=rng.uniform(0, 6, 3))
        v = rng.normal(size=4)
        assert layer.apply(v).shape == (4,)
        assert np.allclose(layer.apply(v), layer.unitary() @ v)

    def test_apply_out_of_place(self, rng):
        layer = GateLayer(4, thetas=rng.uniform(0, 6, 3))
        x = np.eye(4)
        layer.apply(x)
        assert np.allclose(x, np.eye(4))

    def test_norm_preserved_batch(self, rng):
        layer = GateLayer(8, thetas=rng.uniform(0, 6, 7))
        x = rng.normal(size=(8, 10))
        x /= np.linalg.norm(x, axis=0)
        y = layer.apply(x)
        assert np.allclose(np.linalg.norm(y, axis=0), 1.0)

    def test_complex_layer_unitary(self, rng):
        layer = GateLayer(
            4,
            thetas=rng.uniform(0, 6, 3),
            alphas=rng.uniform(0, 6, 3),
        )
        u = layer.unitary()
        assert np.allclose(np.conj(u.T) @ u, np.eye(4), atol=1e-12)

    def test_zero_alphas_treated_real(self, rng):
        layer = GateLayer(4, thetas=rng.uniform(0, 6, 3), alphas=np.zeros(3))
        assert layer.is_real

    def test_copy_independent(self, rng):
        layer = GateLayer(4, thetas=rng.uniform(0, 6, 3))
        clone = layer.copy()
        clone.thetas[0] += 1.0
        assert layer.thetas[0] != clone.thetas[0]
