"""Born-rule readout and its finite-shot estimate.

The pipeline reads its output in the computational basis (Eq. 2 decodes
``sqrt(p)``).  Exact readout is ``|A_j|^2`` of the state columns
(:meth:`~repro.simulator.state.StateBatch.probabilities`); finite
readout draws ``shots`` multinomial clicks per column with
:func:`~repro.noise.trajectory.measure_probabilities`, rescaled by the
column's total so that loss (a no-click shot) leaves the estimate
unbiased.  These checks pin both: normalisation, phase blindness,
conservation through the network, exact totals, determinism for basis
states, seeded reproducibility and the ``1/sqrt(shots)`` convergence.
"""

import numpy as np
import pytest

from repro.network import QuantumNetwork
from repro.noise.trajectory import NoisyForwardResult, measure_probabilities
from repro.simulator.state import QuantumState, StateBatch

SHOTS = [1, 10, 1000]


def unit_columns(dim, m, seed):
    x = np.random.default_rng(seed).normal(size=(dim, m))
    return x / np.linalg.norm(x, axis=0)


class TestBornProbabilities:
    def test_single_state(self):
        s = QuantumState([0.6, 0.8])
        assert s.probabilities().tolist() == pytest.approx([0.36, 0.64])

    def test_complex_amplitudes(self):
        s = QuantumState(np.array([1.0, 1j]))
        assert np.allclose(s.probabilities(), [0.5, 0.5])

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_batch_columns_sum_to_one(self, dim):
        probs = StateBatch(unit_columns(dim, 5, dim)).probabilities()
        assert probs.shape == (dim, 5)
        assert np.allclose(probs.sum(axis=0), 1.0)
        assert np.all(probs >= 0.0)

    @pytest.mark.parametrize("phase", [np.pi, np.pi / 2, -0.3])
    def test_blind_to_global_phase(self, phase):
        x = unit_columns(4, 3, 1).astype(np.complex128)
        a = StateBatch(x).probabilities()
        b = StateBatch(np.exp(1j * phase) * x).probabilities()
        assert np.allclose(a, b)

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_network_conserves_total_probability(self, dim, descending):
        net = QuantumNetwork(dim, 3, descending=descending).initialize(
            "uniform", rng=np.random.default_rng(dim)
        )
        out = StateBatch(net.forward(StateBatch(unit_columns(dim, 6, 2))))
        assert np.allclose(out.probabilities().sum(axis=0), 1.0, atol=1e-12)

    def test_amplitude_readout_loses_sign(self):
        """Decoding reads magnitudes: the sign of an amplitude is lost."""
        amps = np.array([[-0.6], [0.8]])
        result = NoisyForwardResult(
            probabilities=amps**2,
            fidelity=np.ones(1),
            transmission=np.ones(1),
            trajectories=1,
        )
        assert np.allclose(result.amplitudes, [[0.6], [0.8]])


class TestFiniteShots:
    @pytest.mark.parametrize("shots", SHOTS)
    def test_counts_are_whole_clicks_summing_to_total(self, shots):
        p = StateBatch(unit_columns(8, 4, 3)).probabilities()
        est = measure_probabilities(p, shots, np.random.default_rng(0))
        clicks = est * shots
        assert np.allclose(clicks, np.round(clicks), atol=1e-9)
        assert np.allclose(est.sum(axis=0), 1.0)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_basis_state_is_deterministic(self, index):
        p = QuantumState.basis(4, index).probabilities()
        est = measure_probabilities(p, 100, np.random.default_rng(index))
        assert est.tolist() == np.eye(4)[index].tolist()

    @pytest.mark.parametrize("shots", [1_000, 10_000, 100_000])
    def test_estimate_converges_at_sampling_rate(self, shots):
        p = QuantumState([1.0, 2.0, 1.0, 0.5]).probabilities()
        est = measure_probabilities(p, shots, np.random.default_rng(7))
        sigma = np.sqrt(p * (1.0 - p) / shots)
        assert np.all(np.abs(est - p) <= 5.0 * sigma + 1e-12)

    def test_seeded_reproducibility(self):
        p = StateBatch(unit_columns(4, 3, 5)).probabilities()
        a = measure_probabilities(p, 50, np.random.default_rng(5))
        b = measure_probabilities(p, 50, np.random.default_rng(5))
        c = measure_probabilities(p, 50, np.random.default_rng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("total", [0.25, 0.5, 0.9])
    def test_sub_normalized_column_keeps_its_total(self, total):
        """A lossy column is sampled conditionally and rescaled by its
        transmission, so every estimate sums to the transmission."""
        p = total * QuantumState([1.0, 1.0, 2.0]).probabilities()
        est = measure_probabilities(p, 37, np.random.default_rng(1))
        assert est.sum() == pytest.approx(total)

    def test_dark_column_stays_zero(self):
        p = np.array([[0.5, 0.0], [0.5, 0.0]])
        est = measure_probabilities(p, 20, np.random.default_rng(2))
        assert np.array_equal(est[:, 1], [0.0, 0.0])
        assert est[:, 0].sum() == pytest.approx(1.0)

    def test_vector_input_keeps_shape(self):
        p = QuantumState([1.0, 1.0, 1.0]).probabilities()
        est = measure_probabilities(p, 9, np.random.default_rng(3))
        assert est.shape == (3,)
