"""Cross-implementation validation.

The repository contains several independent computations of the same
physics; these tests pit them against each other:

- gate-kernel forward vs explicit matrix products;
- statevector pipeline vs density-matrix pipeline;
- finite-shot sampling vs exact Born statistics (binomial bound).

Agreement across code paths written at different times with different
algorithms is the strongest internal-correctness evidence available
without the authors' reference implementation.
"""

import numpy as np
import pytest

from repro.data.binary_images import paper_dataset
from repro.network import QuantumAutoencoder, QuantumNetwork
from repro.noise.trajectory import measure_probabilities
from repro.simulator.density import DensityMatrix
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


class TestStatevectorVsDensityMatrix:
    def test_full_pipeline_probabilities_agree(self, rng):
        """|Psi><Psi| computed as a density matrix must reproduce the
        statevector pipeline's Born probabilities exactly."""
        X = paper_dataset(num_samples=5).matrix()
        ae = QuantumAutoencoder(16, 4, 3, 3).initialize("uniform", rng=rng)
        enc = ae.codec.encode(X)
        sv_out = ae.forward_encoded(enc)
        u_c, u_r = ae.uc.unitary(), ae.ur.unitary()
        p1 = ae.projection.matrix()
        for i in range(5):
            rho = DensityMatrix.from_state(enc.amplitudes()[:, i])
            rho = rho.evolve(u_c)
            rho = rho.apply_kraus([p1])  # trace-decreasing, no renorm
            rho = rho.evolve(u_r)
            sv_probs = np.abs(sv_out.output_amplitudes[:, i]) ** 2
            assert np.allclose(rho.probabilities(), sv_probs, atol=1e-12)

    def test_purity_equals_retained_mass_squared_ratio(self, rng):
        """After an unnormalised projection the (sub-trace) 'purity'
        relates to the statevector norm: Tr(rho^2) = (norm^2)^2 for a
        projected pure state."""
        s = QuantumState(rng.normal(size=8))
        from repro.network.projection import Projection

        proj = Projection.last(8, 4)
        projected = proj.apply(np.asarray(s.amplitudes))
        norm2 = float(np.sum(projected**2))
        rho = DensityMatrix.from_state(s).apply_kraus([proj.matrix()])
        purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
        assert purity == pytest.approx(norm2**2, abs=1e-12)


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
