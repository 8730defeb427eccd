"""Tests for the two noisy execution paths (density vs trajectory).

The load-bearing contracts:

- at ``theta_sigma = 0`` nothing is stochastic, so the trajectory path
  must agree with the exact density fold to rounding (not statistics);
- with jitter, the trajectory mean converges to the density path (the
  full statistical gate lives in ``benchmarks/bench_noise.py``);
- the ideal model reports fidelity exactly 1 and reproduces the clean
  pipeline's probabilities;
- all quantities are unconditional: transmission tracks lost photons.
"""

import numpy as np
import pytest

from repro.exceptions import NoiseError
from repro.network.autoencoder import QuantumAutoencoder
from repro.noise import (
    NoiseModel,
    clean_mesh_matrix,
    density_forward,
    realization_rng,
    sample_mesh_matrix,
    trajectory_forward,
)
from repro.noise.trajectory import (
    STREAM_UC,
    channel_probabilities,
    measure_probabilities,
)


@pytest.fixture(scope="module")
def ae():
    ae = QuantumAutoencoder(8, 3, 4, 4, backend="fused")
    ae.initialize("uniform", rng=np.random.default_rng(3))
    return ae


@pytest.fixture(scope="module")
def amplitudes():
    rng = np.random.default_rng(5)
    a = np.abs(rng.normal(size=(8, 6))) + 0.1
    return a / np.linalg.norm(a, axis=0, keepdims=True)


class TestMeshSampling:
    def test_clean_mesh_is_unitary(self, ae):
        u = clean_mesh_matrix(ae.uc, ae.uc.get_flat_params())
        assert np.allclose(u.T @ u, np.eye(8), atol=1e-12)

    def test_lossy_mesh_is_subunitary(self, ae):
        model = NoiseModel(loss_per_gate=0.01)
        u = sample_mesh_matrix(ae.uc, ae.uc.get_flat_params(), model, None)
        sv = np.linalg.svd(u, compute_uv=False)
        assert sv.max() < 1.0

    def test_jitter_requires_rng(self, ae):
        with pytest.raises(NoiseError, match="rng"):
            sample_mesh_matrix(
                ae.uc, ae.uc.get_flat_params(),
                NoiseModel(theta_sigma=0.1), None,
            )

    def test_allow_phase_rejected(self):
        complex_ae = QuantumAutoencoder(4, 2, 2, 2, allow_phase=True)
        complex_ae.initialize("uniform", rng=np.random.default_rng(0))
        with pytest.raises(NoiseError, match="phase"):
            sample_mesh_matrix(
                complex_ae.uc,
                complex_ae.uc.get_flat_params(),
                NoiseModel(),
                None,
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("processes", [1, 2])
    def test_allow_phase_rejected_by_noisy_evaluation(self, processes):
        from repro.api import Codec, CodecSpec
        from repro.parallel import WorkerPool

        complex_ae = QuantumAutoencoder(4, 2, 2, 2, allow_phase=True)
        complex_ae.initialize("uniform", rng=np.random.default_rng(0))
        a = np.full((4, 3), 0.5)
        codec = Codec(
            CodecSpec(
                dim=4, compressed_dim=2, compression_layers=2,
                reconstruction_layers=2, iterations=1, allow_phase=True,
            )
        )
        codec.fit(np.abs(np.random.default_rng(1).normal(size=(3, 4))))
        with WorkerPool(processes) as pool:
            with pytest.raises(NoiseError, match="phase"):
                trajectory_forward(
                    complex_ae, a, NoiseModel(), trajectories=4, pool=pool
                )
            with pytest.raises(NoiseError, match="phase"):
                codec.evaluate(
                    np.full((3, 4), 0.5), noise="mild",
                    noise_trajectories=4, pool=pool,
                )

    def test_realization_rng_keyed_not_shared(self):
        a = realization_rng(3, 1, 7, STREAM_UC).normal(size=4)
        b = realization_rng(3, 1, 7, STREAM_UC).normal(size=4)
        c = realization_rng(3, 1, 8, STREAM_UC).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestIdealLimit:
    def test_ideal_fidelity_is_one_to_rounding(self, ae, amplitudes):
        # Conditional fidelity: projection loss must NOT read as infidelity.
        for forward in (trajectory_forward, density_forward):
            result = forward(ae, amplitudes, NoiseModel())
            assert np.allclose(result.fidelity, 1.0, atol=1e-12)
            assert np.all(result.fidelity <= 1.0)

    def test_ideal_probabilities_match_clean_pipeline(self, ae, amplitudes):
        uc = clean_mesh_matrix(ae.uc, ae.uc.get_flat_params())
        ur = clean_mesh_matrix(ae.ur, ae.ur.get_flat_params())
        phi = uc @ amplitudes
        mask = np.zeros(8, dtype=bool)
        mask[ae.projection.keep] = True
        phi[~mask] = 0.0
        expected = np.abs(ur @ phi) ** 2
        for forward in (trajectory_forward, density_forward):
            result = forward(ae, amplitudes, NoiseModel())
            assert np.allclose(result.probabilities, expected, atol=1e-10)

    def test_transmission_is_retained_probability(self, ae, amplitudes):
        result = trajectory_forward(ae, amplitudes, NoiseModel())
        assert np.all(result.transmission <= 1.0 + 1e-12)
        assert np.allclose(
            result.transmission, result.probabilities.sum(axis=0), atol=1e-12
        )


class TestPathAgreement:
    def test_deterministic_channels_agree_exactly(self, ae, amplitudes):
        """No jitter -> no sampling -> the paths must match to rounding."""
        model = NoiseModel(
            loss_per_gate=0.01, dephasing=0.07, depolarizing=0.03
        )
        tr = trajectory_forward(ae, amplitudes, model, trajectories=1)
        de = density_forward(ae, amplitudes, model)
        assert np.allclose(tr.probabilities, de.probabilities, atol=1e-10)
        assert np.allclose(tr.fidelity, de.fidelity, atol=1e-10)
        assert np.allclose(tr.transmission, de.transmission, atol=1e-10)

    def test_jittered_trajectory_converges_to_density(self, ae, amplitudes):
        model = NoiseModel(theta_sigma=0.05, dephasing=0.02)
        de = density_forward(ae, amplitudes, model)
        tr = trajectory_forward(ae, amplitudes, model, trajectories=256)
        assert np.max(np.abs(tr.probabilities - de.probabilities)) < 0.01
        assert np.max(np.abs(tr.fidelity - de.fidelity)) < 0.02

    def test_measurement_stream_shared(self, ae, amplitudes):
        """Finite shots draw the same stream on both paths."""
        model = NoiseModel(dephasing=0.05, shots=2048)
        tr = trajectory_forward(ae, amplitudes, model, trajectories=1, seed=9)
        de = density_forward(ae, amplitudes, model, seed=9)
        # Identical multinomial draws; only the unconditional rescale can
        # differ at rounding level between the two folds.
        assert np.allclose(tr.probabilities, de.probabilities, atol=1e-12)


class TestChannels:
    def test_channel_probabilities_preserve_trace_without_loss(self, ae):
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(8, 4))
        phi /= np.linalg.norm(phi, axis=0, keepdims=True)
        ur = clean_mesh_matrix(ae.ur, ae.ur.get_flat_params())
        for model in (
            NoiseModel(dephasing=0.3),
            NoiseModel(depolarizing=0.4),
            NoiseModel(dephasing=0.2, depolarizing=0.2),
        ):
            probs, _ = channel_probabilities(ur, phi, model)
            assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-10)

    def test_measure_probabilities_exact_when_shots_none(self):
        p = np.array([[0.4, 0.1], [0.2, 0.3]])
        assert measure_probabilities(p, None) is p

    def test_measure_probabilities_unbiased_scaling(self):
        """Column totals (transmission) survive sampling in expectation."""
        rng = np.random.default_rng(0)
        p = np.array([[0.3], [0.15]])  # sub-normalized: total 0.45
        est = measure_probabilities(np.tile(p, (1, 2000)), 64, rng)
        assert abs(est.sum(axis=0).mean() - 0.45) < 0.01

    def test_measure_requires_rng(self):
        with pytest.raises(NoiseError):
            measure_probabilities(np.array([[1.0]]), 100, None)


class TestDegradation:
    def test_curve_monotone_under_scaling(self, ae, amplitudes):
        from repro.noise import degradation_curve

        records = degradation_curve(
            ae,
            np.abs(np.random.default_rng(2).normal(size=(6, 8))) + 0.1,
            NoiseModel(theta_sigma=0.05, loss_per_gate=0.01, dephasing=0.08),
            scales=(0.0, 0.5, 1.0),
            trajectories=16,
        )
        fids = [r["mean_fidelity"] for r in records]
        trans = [r["mean_transmission"] for r in records]
        assert fids[0] == pytest.approx(1.0)
        assert fids[0] >= fids[1] >= fids[2]
        assert trans[0] >= trans[1] >= trans[2]
        assert [r["scale"] for r in records] == [0.0, 0.5, 1.0]

    def test_evaluate_noisy_keys_and_paths(self, ae):
        from repro.noise import evaluate_noisy

        X = np.abs(np.random.default_rng(4).normal(size=(5, 8))) + 0.1
        model = NoiseModel(dephasing=0.05)
        for path in ("trajectory", "density"):
            metrics = evaluate_noisy(ae, X, model, trajectories=4, path=path)
            for key in (
                "noisy_accuracy",
                "noisy_pixel_accuracy",
                "noisy_mse",
                "noisy_psnr_db",
                "mean_fidelity",
                "mean_transmission",
                "trajectories",
            ):
                assert key in metrics, (path, key)

    def test_evaluate_noisy_rejects_unknown_path(self, ae):
        from repro.noise import evaluate_noisy

        X = np.abs(np.random.default_rng(4).normal(size=(3, 8))) + 0.1
        with pytest.raises(NoiseError, match="path"):
            evaluate_noisy(ae, X, NoiseModel(), path="statevector")
