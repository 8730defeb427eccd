"""Tests for repro.simulator.density."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, NormalizationError
from repro.simulator.density import (
    DensityMatrix,
    amplitude_damping_kraus,
    dephasing_channel,
    depolarizing_channel,
)
from repro.simulator.state import QuantumState


def random_unitary(dim, rng):
    """The Q factor of a complex Gaussian matrix: a random unitary."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(z)[0]


class TestConstruction:
    def test_pure_state_properties(self):
        rho = DensityMatrix.from_state(QuantumState([0.6, 0.8]))
        assert rho.dim == 2
        assert rho.purity() == pytest.approx(1.0)
        assert rho.is_pure()

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert rho.purity() == pytest.approx(0.25)
        assert not rho.is_pure()
        assert rho.von_neumann_entropy() == pytest.approx(2.0)

    def test_mixture(self):
        rho = DensityMatrix.mixture(
            [QuantumState.basis(2, 0), QuantumState.basis(2, 1)],
            [0.5, 0.5],
        )
        assert rho.purity() == pytest.approx(0.5)

    def test_mixture_weights_validated(self):
        with pytest.raises(NormalizationError):
            DensityMatrix.mixture([QuantumState.basis(2, 0)], [0.7])

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(NormalizationError, match="Hermitian"):
            DensityMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(NormalizationError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(NormalizationError, match="negative"):
            DensityMatrix(bad)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.ones((2, 3)))


class TestQuantities:
    def test_probabilities_match_pure_state(self):
        s = QuantumState([1.0, 2.0, 3.0, 4.0])
        rho = DensityMatrix.from_state(s)
        assert np.allclose(rho.probabilities(), s.probabilities())

    def test_fidelity_with_pure_self(self):
        s = QuantumState([0.6, 0.8])
        assert DensityMatrix.from_state(s).fidelity_with_pure(s) == \
            pytest.approx(1.0)

    def test_fidelity_with_orthogonal(self):
        rho = DensityMatrix.from_state(QuantumState.basis(3, 0))
        assert rho.fidelity_with_pure(QuantumState.basis(3, 1)) == \
            pytest.approx(0.0)

    def test_fidelity_dim_check(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(DimensionError):
            rho.fidelity_with_pure(QuantumState.basis(4, 0))

    def test_entropy_pure_is_zero(self):
        rho = DensityMatrix.from_state(QuantumState([1.0, 1.0]))
        assert rho.von_neumann_entropy() == pytest.approx(0.0, abs=1e-9)


class TestEvolution:
    def test_unitary_preserves_purity(self, rng):
        rho = DensityMatrix.from_state(QuantumState([1.0, 2.0, 0.0, 1.0]))
        u = random_unitary(4, rng)
        out = rho.evolve(u)
        assert out.purity() == pytest.approx(1.0)

    def test_unitary_matches_statevector(self, rng):
        s = QuantumState([1.0, 1.0, 0.0, 0.0])
        u = random_unitary(4, rng)
        evolved_vec = u @ s.amplitudes
        rho = DensityMatrix.from_state(s).evolve(u)
        expected = np.outer(evolved_vec, np.conj(evolved_vec))
        assert np.allclose(rho.matrix, expected)

    def test_unitary_dim_check(self):
        with pytest.raises(DimensionError):
            DensityMatrix.maximally_mixed(2).evolve(np.eye(3))


class TestChannels:
    def test_dephasing_kills_coherence(self):
        rho = DensityMatrix.from_state(QuantumState([1.0, 1.0]))
        out = rho.apply_kraus(dephasing_channel(2, 1.0))
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_dephasing_partial(self):
        rho = DensityMatrix.from_state(QuantumState([1.0, 1.0]))
        out = rho.apply_kraus(dephasing_channel(2, 0.5))
        assert abs(out.matrix[0, 1]) == pytest.approx(0.25)

    def test_dephasing_preserves_probabilities(self, rng):
        s = QuantumState(rng.normal(size=4))
        rho = DensityMatrix.from_state(s)
        out = rho.apply_kraus(dephasing_channel(4, 0.7))
        assert np.allclose(out.probabilities(), rho.probabilities())

    def test_depolarizing_full_strength_is_maximally_mixed(self, rng):
        s = QuantumState(rng.normal(size=4))
        rho = DensityMatrix.from_state(s)
        out = rho.apply_kraus(depolarizing_channel(4, 1.0))
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-10)

    def test_depolarizing_zero_strength_identity(self, rng):
        s = QuantumState(rng.normal(size=3))
        rho = DensityMatrix.from_state(s)
        out = rho.apply_kraus(depolarizing_channel(3, 0.0))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    @given(st.floats(0.0, 1.0), st.integers(0, 50))
    @settings(max_examples=20)
    def test_property_depolarizing_formula(self, p, seed):
        rng = np.random.default_rng(seed)
        s = QuantumState(rng.normal(size=3))
        rho = DensityMatrix.from_state(s)
        out = rho.apply_kraus(depolarizing_channel(3, p))
        expected = (1 - p) * rho.matrix + p * np.eye(3) / 3
        assert np.allclose(out.matrix, expected, atol=1e-9)

    def test_amplitude_damping_trace_decreases(self):
        rho = DensityMatrix.from_state(QuantumState([1.0, 1.0]))
        kraus = amplitude_damping_kraus(2, mode=0, gamma=0.5)
        out = rho.apply_kraus(kraus)
        assert float(np.real(np.trace(out.matrix))) < 1.0

    def test_amplitude_damping_postselected(self):
        rho = DensityMatrix.from_state(QuantumState([1.0, 1.0]))
        kraus = amplitude_damping_kraus(2, mode=0, gamma=0.5)
        out = rho.apply_kraus(kraus, renormalize=True)
        assert float(np.real(np.trace(out.matrix))) == pytest.approx(1.0)
        # Mode 0 lost amplitude, so mode 1 gains relative weight.
        probs = out.probabilities()
        assert probs[1] > probs[0]

    def test_total_damping_annihilation_guard(self):
        rho = DensityMatrix.from_state(QuantumState.basis(2, 0))
        kraus = amplitude_damping_kraus(2, mode=0, gamma=1.0)
        with pytest.raises(NormalizationError, match="annihilated"):
            rho.apply_kraus(kraus, renormalize=True)

    def test_trace_increasing_rejected(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(NormalizationError, match="increased"):
            rho.apply_kraus([np.eye(2) * 1.1])

    def test_channel_validation(self):
        with pytest.raises(DimensionError):
            dephasing_channel(2, 1.5)
        with pytest.raises(DimensionError):
            depolarizing_channel(1, 0.5)
        with pytest.raises(DimensionError):
            amplitude_damping_kraus(2, mode=5, gamma=0.5)
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(DimensionError):
            rho.apply_kraus([])
        with pytest.raises(DimensionError):
            rho.apply_kraus([np.eye(3)])
