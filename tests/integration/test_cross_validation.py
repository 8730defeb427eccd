"""Cross-implementation validation.

The repository contains several independent computations of the same
physics; these tests pit them against each other:

- gate-kernel forward vs explicit matrix products;
- finite-shot sampling vs exact Born statistics (binomial bound).

Agreement across code paths written at different times with different
algorithms is the strongest internal-correctness evidence available
without the authors' reference implementation.
"""

import numpy as np
import pytest

from repro.network import QuantumNetwork
from repro.noise.trajectory import measure_probabilities
from repro.simulator.gates import BeamsplitterGate
from repro.simulator.state import QuantumState


@pytest.fixture
def net(rng):
    return QuantumNetwork(8, 4).initialize("uniform", rng=rng)


class TestKernelVsMatrix:
    def test_forward_equals_unitary_product(self, net, rng):
        x = rng.normal(size=(8, 6))
        assert np.allclose(net.forward(x), net.unitary() @ x, atol=1e-12)

    def test_layer_product_equals_network_unitary(self, net):
        u = np.eye(8)
        for layer in net.layers:
            u = layer.unitary() @ u
        assert np.allclose(u, net.unitary(), atol=1e-12)

    def test_gate_matrix_product_equals_network(self, net, rng):
        """The network forward is the product of its embedded 2x2 gates,
        applied in each layer's mode order."""
        u = np.eye(8)
        for layer in net.layers:
            for k in layer.mode_sequence():
                u = BeamsplitterGate(int(k), float(layer.thetas[k])).embed(8) @ u
        x = rng.normal(size=8)
        assert np.allclose(net.forward(x), u @ x, atol=1e-12)


class TestSamplingVsExact:
    def test_empirical_frequencies_within_binomial_bounds(self, rng):
        """Each mode's count is Binomial(shots, p): check all modes sit
        within 5 sigma of expectation (overwhelming probability)."""
        s = QuantumState(rng.normal(size=8))
        p = s.probabilities()
        shots = 100_000
        counts = measure_probabilities(p[:, None], shots, rng)[:, 0] * shots
        sigma = np.sqrt(shots * p * (1 - p)) + 1e-9
        z = np.abs(counts - shots * p) / sigma
        assert np.all(z < 5.0)
