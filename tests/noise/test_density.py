"""The exact noise path: its Kraus channels, the per-gate fold, and a
pinned end-to-end result.

``data/density_expected.npz`` was written from ``data/codec_noisy.npz``
(see ``test_compiled_folds.py``) and the rows of
``data/evaluate_expected.npz["X"]`` before the channel builders moved
into :mod:`repro.noise.density`.  For each model in ``MODELS`` it holds

- ``forward_<model>_{probabilities,fidelity,transmission}``: the result
  of ``density_forward(autoencoder, amplitudes, model, seed=3)``;
- ``evaluate_<model>``: the values of
  ``Codec.evaluate(X, noise=model, noise_seed=3, noise_path="density")``
  in the sorted order of ``keys``.

The presets all carry finite ``shots``; ``exact`` has none, so its
probabilities are the fold's own diagonal rather than sampled counts.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Codec
from repro.backends.program import compile_program
from repro.exceptions import DimensionError, NoiseError
from repro.network import QuantumNetwork
from repro.noise import NOISE_PRESETS, NoiseModel, density_forward
from repro.noise.density import (
    apply_jitter_channel,
    apply_kraus_raw,
    dephasing_channel,
    depolarizing_channel,
    noisy_program_rho,
)
from repro.noise.trajectory import clean_mesh_matrix

DATA = Path(__file__).parent / "data"
MODELS = dict(
    NOISE_PRESETS,
    exact=NoiseModel(
        theta_sigma=0.05, loss_per_gate=0.02, dephasing=0.1, depolarizing=0.05
    ),
)
SEED = 3

dims = st.integers(min_value=2, max_value=6)
strengths = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def expected():
    with np.load(DATA / "density_expected.npz") as archive:
        return dict(archive)


@pytest.fixture(scope="module")
def codec():
    return Codec.load(DATA / "codec_noisy.npz")


def _kraus_sum(ops):
    """``sum_k K_k^dagger K_k``."""
    return sum(op.conj().T @ op for op in ops)


def _random_rho(dim: int, seed: int) -> np.ndarray:
    """A unit-trace mixture of three random pure states."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    weights = rng.uniform(0.1, 1.0, size=3)
    weights /= weights.sum()
    return sum(
        w * np.outer(s / np.linalg.norm(s), (s / np.linalg.norm(s)).conj())
        for w, s in zip(weights, states)
    )


def _pure_rho(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.complex128)
    a = a / np.linalg.norm(a)
    return np.outer(a, a.conj())


class TestParentFixture:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_density_forward(self, codec, expected, name):
        ae = codec.autoencoder
        amplitudes = ae.codec.encode(expected["X"]).amplitudes()
        result = density_forward(ae, amplitudes, MODELS[name], seed=SEED)
        for field in ("probabilities", "fidelity", "transmission"):
            got = getattr(result, field)
            assert np.array_equal(got, expected[f"forward_{name}_{field}"]), field
        assert result.trajectories == 1

    @pytest.mark.parametrize("name", list(MODELS))
    def test_codec_evaluate(self, codec, expected, name):
        scores = codec.evaluate(
            expected["X"], noise=MODELS[name], noise_seed=SEED,
            noise_path="density",
        )
        assert sorted(scores) == expected["keys"].tolist()
        got = np.array([scores[key] for key in expected["keys"]])
        assert np.array_equal(got, expected[f"evaluate_{name}"])


class TestKrausCompleteness:
    """``sum K^dag K = I`` — both wire channels are exactly complete."""

    @settings(max_examples=40)
    @given(dim=dims, strength=strengths)
    def test_dephasing_complete(self, dim, strength):
        total = _kraus_sum(dephasing_channel(dim, strength))
        assert np.allclose(total, np.eye(dim), atol=1e-12)

    @settings(max_examples=25)
    @given(dim=dims, strength=strengths)
    def test_depolarizing_complete(self, dim, strength):
        total = _kraus_sum(depolarizing_channel(dim, strength))
        assert np.allclose(total, np.eye(dim), atol=1e-10)


class TestChannelAction:
    """``apply_kraus_raw`` of a complete set keeps trace and positivity."""

    @settings(max_examples=25)
    @given(dim=dims, strength=strengths, seed=seeds)
    def test_dephasing_trace_and_psd(self, dim, strength, seed):
        out = apply_kraus_raw(_random_rho(dim, seed), dephasing_channel(dim, strength))
        assert abs(float(np.real(np.trace(out))) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-10

    @settings(max_examples=15)
    @given(dim=dims, strength=strengths, seed=seeds)
    def test_depolarizing_trace_and_psd(self, dim, strength, seed):
        out = apply_kraus_raw(
            _random_rho(dim, seed), depolarizing_channel(dim, strength)
        )
        assert abs(float(np.real(np.trace(out))) - 1.0) < 1e-8
        assert np.linalg.eigvalsh(out).min() > -1e-8

    @settings(max_examples=25)
    @given(dim=dims, strength=strengths, seed=seeds)
    def test_depolarizing_matches_closed_form(self, dim, strength, seed):
        # The generalized-Pauli construction realises exactly
        # (1-p) rho + p I/N — the identity the probability-space channel
        # formula in repro.noise.trajectory relies on.
        rho = _random_rho(dim, seed)
        out = apply_kraus_raw(rho, depolarizing_channel(dim, strength))
        expected = (1.0 - strength) * rho + strength * np.eye(dim) / dim
        assert np.allclose(out, expected, atol=1e-9)

    def test_dephasing_kills_coherence(self):
        out = apply_kraus_raw(_pure_rho([1.0, 1.0]), dephasing_channel(2, 1.0))
        assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_dephasing_partial(self):
        out = apply_kraus_raw(_pure_rho([1.0, 1.0]), dephasing_channel(2, 0.5))
        assert abs(out[0, 1]) == pytest.approx(0.25)

    def test_dephasing_preserves_probabilities(self, rng):
        rho = _pure_rho(rng.normal(size=4))
        out = apply_kraus_raw(rho, dephasing_channel(4, 0.7))
        assert np.allclose(np.diag(out).real, np.diag(rho).real)

    def test_depolarizing_full_strength_is_maximally_mixed(self, rng):
        out = apply_kraus_raw(
            _pure_rho(rng.normal(size=4)), depolarizing_channel(4, 1.0)
        )
        assert np.allclose(out, np.eye(4) / 4, atol=1e-10)

    def test_depolarizing_zero_strength_identity(self, rng):
        rho = _pure_rho(rng.normal(size=3))
        out = apply_kraus_raw(rho, depolarizing_channel(3, 0.0))
        assert np.allclose(out, rho, atol=1e-12)

    def test_sub_normalized_input_kept(self):
        # No unit-trace requirement: lost probability stays lost.
        rho = 0.25 * _pure_rho([1.0, 1.0])
        out = apply_kraus_raw(rho, dephasing_channel(2, 1.0))
        assert float(np.trace(out).real) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "builder", [dephasing_channel, depolarizing_channel]
    )
    @pytest.mark.parametrize(
        "dim, strength", [(2, -0.1), (2, 1.5), (1, 0.5), (0, 0.0)]
    )
    def test_out_of_range_rejected(self, builder, dim, strength):
        with pytest.raises(DimensionError):
            builder(dim, strength)


def _oracle_program_rho(prog, params, rho, sigma, loss):
    """Per gate: the rotation as an explicit matrix, the jitter channel,
    then single-mode amplitude damping on each of the gate's two modes."""
    dim = prog.dim
    for g in range(prog.num_gates):
        k = int(prog.modes[g])
        theta = float(params[prog.theta_index[g]])
        rot = np.eye(dim)
        rot[k, k] = rot[k + 1, k + 1] = np.cos(theta)
        rot[k, k + 1] = -np.sin(theta)
        rot[k + 1, k] = np.sin(theta)
        rho = rot @ rho @ rot.T
        apply_jitter_channel(rho, k, sigma)
        for mode in (k, k + 1):
            damp = np.eye(dim)
            damp[mode, mode] = np.sqrt(1.0 - loss)
            rho = apply_kraus_raw(rho, [damp])
    return rho


class TestNoisyProgramRho:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("loss", [0.02, 0.3])
    def test_lossy_fold_matches_kraus_oracle(self, rng, sigma, loss):
        net = QuantumNetwork(6, 3).initialize("uniform", rng=rng)
        prog = compile_program(net)
        params = net.get_flat_params()
        rho = _random_rho(6, 7).real.copy()
        want = _oracle_program_rho(prog, params, rho.copy(), sigma, loss)
        model = NoiseModel(theta_sigma=sigma, loss_per_gate=loss)
        got = noisy_program_rho(prog, params, rho, model)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert float(np.trace(got)) < 1.0

    def test_lossless_fold_is_the_clean_mesh(self, rng):
        # At NoiseModel() the fold is U rho U^T: a pure state stays pure.
        net = QuantumNetwork(6, 3).initialize("uniform", rng=rng)
        prog = compile_program(net)
        params = net.get_flat_params()
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        got = noisy_program_rho(prog, params, np.outer(a, a), NoiseModel())
        b = clean_mesh_matrix(prog, params) @ a
        assert np.max(np.abs(got - np.outer(b, b))) <= 1e-12
        assert float(np.trace(got @ got)) == pytest.approx(1.0, abs=1e-12)

    def test_jitter_keeps_trace_and_psd_and_mixes(self, rng):
        net = QuantumNetwork(6, 3).initialize("uniform", rng=rng)
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        got = noisy_program_rho(
            net, net.get_flat_params(), np.outer(a, a),
            NoiseModel(theta_sigma=0.2),
        )
        assert float(np.trace(got)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(got).min() > -1e-12
        assert float(np.trace(got @ got)) < 1.0 - 1e-6

    def test_network_and_program_agree(self, rng):
        net = QuantumNetwork(6, 3).initialize("uniform", rng=rng)
        params = net.get_flat_params()
        rho = _random_rho(6, 11).real.copy()
        model = NoiseModel(theta_sigma=0.05, loss_per_gate=0.02)
        from_net = noisy_program_rho(net, params, rho.copy(), model)
        from_prog = noisy_program_rho(compile_program(net), params, rho, model)
        assert np.array_equal(from_net, from_prog)

    def test_allow_phase_rejected(self, rng):
        net = QuantumNetwork(4, 2, allow_phase=True)
        net.initialize("uniform", rng=rng)
        with pytest.raises(NoiseError, match="phase"):
            noisy_program_rho(
                net, net.get_flat_params(), np.eye(4) / 4, NoiseModel()
            )


SINGLE_EFFECTS = {
    "jitter": NoiseModel(theta_sigma=0.2),
    "loss": NoiseModel(loss_per_gate=0.05),
    "dephasing": NoiseModel(dephasing=0.3),
    "depolarizing": NoiseModel(depolarizing=0.3),
}


class TestDensityForwardBounds:
    """Each effect alone: fidelity in [0, 1], readout probabilities that
    sum to the transmission, and no effect that adds probability."""

    @pytest.mark.parametrize("name", list(SINGLE_EFFECTS))
    def test_fidelity_and_transmission_in_unit_interval(
        self, codec, expected, name
    ):
        ae = codec.autoencoder
        amplitudes = ae.codec.encode(expected["X"]).amplitudes()
        result = density_forward(ae, amplitudes, SINGLE_EFFECTS[name])
        ideal = density_forward(ae, amplitudes, NoiseModel())
        assert np.all((result.fidelity >= 0.0) & (result.fidelity <= 1.0))
        assert result.fidelity.mean() < 1.0 - 1e-9
        assert np.all(result.probabilities >= 0.0)
        assert np.allclose(
            result.probabilities.sum(axis=0), result.transmission, atol=1e-12
        )
        assert np.all(result.transmission > 0.0)
        assert np.all(result.transmission <= 1.0 + 1e-12)
        if name == "loss":
            assert np.all(result.transmission < ideal.transmission)
        elif name != "jitter":
            # The wire channels act after the projection and keep trace.
            assert np.allclose(
                result.transmission, ideal.transmission, atol=1e-12
            )
