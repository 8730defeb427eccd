"""Networks equal the explicit product of their gates (Eq. 6, Fig. 3).

Every execution backend folds or batches the gate chain differently; the
reference they must all reproduce is the plain product of embedded
:class:`~repro.simulator.gates.BeamsplitterGate` matrices, taken layer by
layer in each layer's mode order.  The checks run over dimensions
(including non-powers of two), depths and both gate orders:

- the network matrix and its inverse pass equal the gate product and its
  transpose, on the ``loop`` reference and the ``fused`` backend;
- a descending (reconstruction-order) network equals the transpose of
  the ascending network with negated angles and reversed layer order —
  the topology relation between ``U_C`` and ``U_R`` of Section III-B;
- phase-bearing networks equal the product of complex gates.
"""

import numpy as np
import pytest

from repro.network import QuantumNetwork
from repro.simulator.gates import BeamsplitterGate

DIMS = [2, 3, 5, 8]
LAYERS = [1, 3]
CASES = [
    (dim, layers, descending)
    for dim in DIMS
    for layers in LAYERS
    for descending in (False, True)
]


def gate_product(net):
    """``net`` as an ordered product of embedded gates."""
    dtype = np.float64 if not net.allow_phase else np.complex128
    u = np.eye(net.dim, dtype=dtype)
    for layer in net.layers:
        for k in layer.mode_sequence():
            alpha = 0.0 if layer.alphas is None else float(layer.alphas[k])
            gate = BeamsplitterGate(int(k), float(layer.thetas[k]), alpha)
            u = gate.embed(net.dim) @ u
    return u


def random_network(dim, layers, descending, seed=0, backend="loop"):
    return QuantumNetwork(
        dim, layers, descending=descending, backend=backend
    ).initialize("uniform", rng=np.random.default_rng(seed))


class TestGateProduct:
    @pytest.mark.parametrize("backend", ["loop", "fused"])
    @pytest.mark.parametrize("dim, layers, descending", CASES)
    def test_unitary_equals_gate_product(self, dim, layers, descending, backend):
        net = random_network(dim, layers, descending, backend=backend)
        assert np.allclose(net.unitary(), gate_product(net), atol=1e-13)

    @pytest.mark.parametrize("dim, layers, descending", CASES)
    def test_inverse_pass_equals_transposed_product(
        self, dim, layers, descending
    ):
        net = random_network(dim, layers, descending, seed=1)
        x = np.random.default_rng(2).normal(size=(dim, 5))
        assert np.allclose(
            net.forward(x, inverse=True), gate_product(net).T @ x, atol=1e-13
        )


class TestReversedOrder:
    @pytest.mark.parametrize("layers", LAYERS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_descending_is_transpose_of_negated_ascending(self, dim, layers):
        asc = random_network(dim, layers, descending=False, seed=dim)
        desc = asc.reversed_structure()
        # Layer p of the descending copy holds -thetas of layer L-1-p.
        desc.set_flat_params(-asc.theta_matrix[::-1].ravel())
        assert np.allclose(desc.unitary(), asc.unitary().T, atol=1e-13)
        assert np.allclose(desc.unitary(), gate_product(desc), atol=1e-13)


class TestPhaseNetworks:
    @pytest.mark.parametrize("dim", DIMS)
    def test_equals_complex_gate_product(self, dim):
        net = QuantumNetwork(dim, 2, allow_phase=True)
        net.set_flat_params(
            np.random.default_rng(dim).uniform(-np.pi, np.pi, net.num_parameters)
        )
        u = net.unitary()
        assert np.allclose(u, gate_product(net), atol=1e-13)
        assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-13)
