"""Tests for the noise wiring of the public API layer.

CodecSpec carries the canonical spec string, Codec.evaluate merges noisy
metrics, InferenceSession emulates the channel at serve time, and the
CLI / serve-bench surfaces accept the same ``--noise`` forms everywhere.
"""

import numpy as np
import pytest

from repro.api import Codec, CodecSpec, InferenceSession
from repro.api.benchmark import measure_serving
from repro.exceptions import NetworkConfigError, NoiseError, ServingError
from repro.experiments.cli import build_parser
from repro.network.autoencoder import QuantumAutoencoder
from repro.noise import NOISE_PRESETS, NoiseModel

SMALL = dict(
    dim=4, compressed_dim=2, compression_layers=2, reconstruction_layers=2,
    iterations=2, backend="fused",
)


def _autoencoder(seed=0, **kwargs):
    return QuantumAutoencoder(4, 2, 2, 2, **kwargs).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


def _data(m=6, n=4, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, n))) + 0.1


class TestCodecSpec:
    def test_noise_canonicalized_to_spec_string(self):
        spec = CodecSpec(**SMALL, noise="mild")
        assert spec.noise == "mild"
        spec = CodecSpec(**SMALL, noise={"dephasing": 0.05})
        assert spec.noise == NoiseModel(dephasing=0.05).spec_string()
        assert CodecSpec(**SMALL).noise is None

    def test_noise_round_trips_through_dict(self):
        spec = CodecSpec(**SMALL, noise="lossy", noise_trajectories=4)
        back = CodecSpec.from_dict(spec.to_dict())
        assert back.noise == "lossy"
        assert back.noise_trajectories == 4

    def test_invalid_noise_rejected(self):
        with pytest.raises(NetworkConfigError, match="noise"):
            CodecSpec(**SMALL, noise="extreme")
        with pytest.raises(NetworkConfigError, match="noise_trajectories"):
            CodecSpec(**SMALL, noise_trajectories=0)
        with pytest.raises(NetworkConfigError, match="noise_trajectories"):
            CodecSpec(**SMALL, noise_trajectories=True)

    def test_build_noise_model(self):
        assert CodecSpec(**SMALL).build_noise_model() is None
        model = CodecSpec(**SMALL, noise="harsh").build_noise_model()
        assert model == NOISE_PRESETS["harsh"]


class TestCodecEvaluate:
    @pytest.fixture(scope="class")
    def codec(self):
        codec = Codec(CodecSpec(**SMALL))
        codec.fit(_data())
        return codec

    def test_clean_evaluate_unchanged(self, codec):
        metrics = codec.evaluate(_data())
        assert "accuracy" in metrics
        assert not any(k.startswith("noisy_") for k in metrics)

    def test_noisy_evaluate_merges_keys(self, codec):
        metrics = codec.evaluate(_data(), noise="mild", noise_trajectories=4)
        assert "accuracy" in metrics
        for key in ("noisy_accuracy", "noisy_psnr_db", "mean_fidelity",
                    "mean_transmission"):
            assert key in metrics, key
        assert metrics["trajectories"] == 4

    def test_degradation_curve_defaults_to_spec_noise(self):
        codec = Codec(CodecSpec(**SMALL, noise="mild"))
        codec.fit(_data())
        records = codec.degradation_curve(
            _data(), scales=(0.0, 1.0), noise_trajectories=4
        )
        assert [r["scale"] for r in records] == [0.0, 1.0]
        assert records[0]["mean_fidelity"] >= records[1]["mean_fidelity"]

    def test_degradation_curve_requires_noise(self, codec):
        with pytest.raises(NoiseError, match="noise model"):
            codec.degradation_curve(_data())


class TestNoisySession:
    def test_zero_noise_session_matches_clean(self):
        ae = _autoencoder()
        clean = InferenceSession(ae)
        noisy = InferenceSession(ae, noise=NoiseModel())
        X = _data()
        np.testing.assert_allclose(
            noisy.reconstruct(X), np.abs(clean.reconstruct(X)), atol=1e-9,
            rtol=0,
        )

    def test_noise_properties_and_repr(self):
        session = InferenceSession(
            _autoencoder(), noise="mild", noise_trajectories=4
        )
        assert session.noise == NOISE_PRESETS["mild"]
        assert session.noise_trajectories == 4
        assert "noise=" in repr(session)

    def test_compress_stays_clean(self):
        ae = _autoencoder()
        X = _data()
        noisy = InferenceSession(ae, noise="harsh")
        clean = InferenceSession(ae)
        np.testing.assert_allclose(
            noisy.compress(X).codes, clean.compress(X).codes,
            atol=1e-12, rtol=0,
        )

    def test_noisy_decompress_is_receiver_side(self):
        ae = _autoencoder()
        X = _data()
        session = InferenceSession(ae, noise="mild", noise_seed=3)
        payload = session.compress(X)
        out = session.decompress(payload)
        assert out.shape == X.shape
        assert np.all(np.isfinite(out))

    def test_renormalize_rejected_with_noise(self):
        ae = _autoencoder(renormalize=True)
        with pytest.raises(ServingError, match="renormaliz"):
            InferenceSession(ae, noise="mild")

    def test_bad_trajectories_rejected(self):
        with pytest.raises(ServingError):
            InferenceSession(_autoencoder(), noise="mild",
                             noise_trajectories=0)

    @pytest.mark.parametrize("noise", ["mild", "lossy", "harsh"])
    @pytest.mark.parametrize("K", [1, 5, 33])
    @pytest.mark.parametrize("m", [1, 7])
    def test_stacked_channel_equals_realization_loop(self, noise, K, m):
        """One stacked channel call, summed over realizations, is bitwise
        the per-realization loop with a running sum."""
        from repro.noise.trajectory import (
            channel_probabilities,
            measure_probabilities,
        )

        ae = QuantumAutoencoder(8, 3, 4, 4).initialize(
            "uniform", rng=np.random.default_rng(K)
        )
        fast, loop = (
            InferenceSession(ae, noise=noise, noise_trajectories=K, noise_seed=3)
            for _ in range(2)
        )
        amps = _data(m=m, n=8, seed=m).T
        amps = amps / np.linalg.norm(amps, axis=0)

        def loop_amplitudes(phis):
            probs = None
            for ur, phi in zip(loop._noisy_decode_mats, phis):
                p, _ = channel_probabilities(ur, phi, loop.noise)
                probs = p if probs is None else probs + p
            probs /= len(loop._noisy_decode_mats)
            probs = measure_probabilities(probs, loop.noise.shots, loop._shots_rng)
            return np.sqrt(np.clip(probs, 0.0, None))

        stacked = fast._embed_codes(fast._noisy_encode_ops @ amps)
        per_realization = [
            loop._embed_codes(enc @ amps) for enc in loop._noisy_encode_ops
        ]
        assert np.array_equal(
            fast._noisy_amplitudes(stacked), loop_amplitudes(per_realization)
        )
        shared = per_realization[0]  # the receiver side: one state for all
        assert np.array_equal(
            fast._noisy_amplitudes(shared),
            loop_amplitudes([shared] * len(loop._noisy_decode_mats)),
        )

    def test_noisy_session_reproducible_per_seed(self):
        ae = _autoencoder()
        X = _data()
        a = InferenceSession(ae, noise="harsh", noise_seed=7).reconstruct(X)
        b = InferenceSession(ae, noise="harsh", noise_seed=7).reconstruct(X)
        c = InferenceSession(ae, noise="harsh", noise_seed=8).reconstruct(X)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestServeBench:
    def test_clean_report_has_no_noise_keys(self):
        report = measure_serving(_autoencoder(), _data(m=8), 4)
        assert "noise" not in report
        assert "noisy_req_per_s" not in report

    def test_noisy_report_keys(self):
        report = measure_serving(
            _autoencoder(), _data(m=8), 4, noise="mild",
            noise_trajectories=2,
        )
        for key in (
            "noise", "noise_trajectories", "noisy_session_seconds",
            "noisy_req_per_s", "noisy_vs_clean_mse",
            "clean_p50_ms", "clean_p99_ms", "noisy_p50_ms", "noisy_p99_ms",
        ):
            assert key in report, key
        assert report["noise"] == "mild"
        assert report["noisy_vs_clean_mse"] >= 0.0
        assert report["clean_p50_ms"] <= report["clean_p99_ms"]
        assert report["noisy_p50_ms"] <= report["noisy_p99_ms"]


TRAIN = ["train", "--checkpoint", "ckpt.json"]


class TestCli:
    def test_noise_flags_parse_and_canonicalize(self):
        parser = build_parser()
        args = parser.parse_args(TRAIN + ["--noise", '{"dephasing": 0.05}'])
        assert args.noise == NoiseModel(dephasing=0.05).spec_string()
        args = parser.parse_args(TRAIN + ["--noise-preset", "lossy",
                                          "--noise-trajectories", "4"])
        assert args.noise_preset == "lossy"
        assert args.noise_trajectories == 4

    def test_noise_and_preset_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                TRAIN + ["--noise", "mild", "--noise-preset", "harsh"]
            )
        capsys.readouterr()

    def test_bad_noise_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(TRAIN + ["--noise", "extreme"])
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            TRAIN,
            ["compress", "--checkpoint", "c.json", "--output", "o.json"],
            ["serve"],
            ["serve-bench"],
        ],
        ids=["train", "compress", "serve", "serve-bench"],
    )
    def test_all_surfaces_take_noise(self, argv):
        args = build_parser().parse_args(argv + ["--noise-preset", "mild"])
        from repro.experiments.cli import _noise_from_args

        assert _noise_from_args(args) == "mild"
        assert args.noise_trajectories == 8
