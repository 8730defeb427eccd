"""Tests for repro.io.model_io."""

import json

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.io.model_io import (
    load_autoencoder,
    load_autoencoder_with_meta,
    save_autoencoder,
)
from repro.network import Projection, QuantumAutoencoder


def _write_raw(path, meta, params):
    """An archive with a hand-written metadata header."""
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        params=params,
    )


def _write_v1_autoencoder(path, ae):
    """A byte-faithful v1 archive (no renormalize/backend fields)."""
    meta = {
        "format_version": 1,
        "kind": "QuantumAutoencoder",
        "dim": ae.dim,
        "compressed_dim": ae.compressed_dim,
        "compression_layers": ae.uc.num_layers,
        "reconstruction_layers": ae.ur.num_layers,
        "allow_phase": ae.uc.allow_phase,
        "keep": ae.projection.keep.tolist(),
    }
    _write_raw(
        path,
        meta,
        np.concatenate([ae.uc.get_flat_params(), ae.ur.get_flat_params()]),
    )


class TestAutoencoderRoundtrip:
    def test_full_roundtrip(self, tmp_path, rng):
        ae = QuantumAutoencoder(
            16, 4, 3, 4, projection=Projection.first(16, 4)
        ).initialize("uniform", rng=rng)
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path)
        clone = load_autoencoder(path)
        assert clone.projection == ae.projection
        assert clone.uc.num_layers == 3
        assert clone.ur.num_layers == 4
        assert np.allclose(
            clone.uc.get_flat_params(), ae.uc.get_flat_params()
        )
        assert np.allclose(
            clone.ur.get_flat_params(), ae.ur.get_flat_params()
        )

    def test_outputs_identical_after_reload(self, tmp_path, rng, paper_images):
        ae = QuantumAutoencoder(16, 4, 2, 2).initialize("uniform", rng=rng)
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path)
        clone = load_autoencoder(path)
        assert np.allclose(
            clone.forward(paper_images).x_hat,
            ae.forward(paper_images).x_hat,
        )

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "net.npz"
        meta = {"format_version": 2, "kind": "QuantumNetwork", "dim": 4}
        _write_raw(path, meta, np.zeros(6))
        with pytest.raises(SerializationError, match="QuantumAutoencoder"):
            load_autoencoder(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        np.savez(path, foo=np.ones(3))
        with pytest.raises(SerializationError, match="meta"):
            load_autoencoder(path)


class TestPipelineStatePersistence:
    """format v2: renormalize + backend survive the round trip."""

    def test_renormalize_and_backend_round_trip(self, tmp_path, rng):
        ae = QuantumAutoencoder(
            8, 2, 2, 2, backend="fused", renormalize=True
        ).initialize("uniform", rng=rng)
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path)
        clone = load_autoencoder(path)
        assert clone.renormalize is True
        assert clone.backend_name == "fused"

    def test_renormalizing_roundtrip_outputs_identical(self, tmp_path, rng):
        ae = QuantumAutoencoder(8, 2, 2, 2, renormalize=True).initialize(
            "uniform", rng=rng
        )
        X = np.abs(rng.normal(size=(5, 8))) + 0.1
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path)
        clone = load_autoencoder(path)
        # v1's bug: renormalize was dropped, so the reloaded pipeline fed
        # the sub-normalised state to U_R and produced different outputs.
        assert np.array_equal(
            clone.forward(X).x_hat, ae.forward(X).x_hat
        )

    def test_v1_archive_loads_with_defaults(self, tmp_path, rng):
        ae = QuantumAutoencoder(8, 2, 2, 2).initialize("uniform", rng=rng)
        path = tmp_path / "v1.npz"
        _write_v1_autoencoder(path, ae)
        clone = load_autoencoder(path)
        assert clone.renormalize is False
        assert clone.backend_name == "loop"
        X = np.abs(rng.normal(size=(4, 8))) + 0.1
        assert np.array_equal(clone.forward(X).x_hat, ae.forward(X).x_hat)

    def test_unsupported_version_rejected(self, tmp_path):
        meta = {"format_version": 3, "kind": "QuantumAutoencoder"}
        path = tmp_path / "v3.npz"
        _write_raw(path, meta, np.zeros(3))
        with pytest.raises(SerializationError, match="version"):
            load_autoencoder(path)

    def test_extra_meta_round_trips(self, tmp_path, rng):
        ae = QuantumAutoencoder(4, 2, 1, 1).initialize("uniform", rng=rng)
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path, extra={"note": {"tag": "v2-test"}})
        _, meta = load_autoencoder_with_meta(path)
        assert meta["extra"]["note"]["tag"] == "v2-test"
        assert meta["format_version"] == 2


class TestCorruptedCheckpoints:
    """A damaged checkpoint loads or raises a ``repro.exceptions`` type."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from repro.api import Codec
        from repro.experiments.config import PaperConfig

        codec = Codec(PaperConfig().codec_spec())
        path = codec.save(tmp_path_factory.mktemp("ckpt") / "paper.npz")
        return path.read_bytes()

    @staticmethod
    def assert_typed(path):
        from repro.api import Codec
        from repro.exceptions import ReproError

        try:
            Codec.load(path)
        except ReproError:
            pass

    def test_every_truncation(self, checkpoint, tmp_path):
        path = tmp_path / "cut.npz"
        for length in range(len(checkpoint)):
            path.write_bytes(checkpoint[:length])
            self.assert_typed(path)

    def test_single_bit_flips(self, checkpoint, tmp_path):
        path = tmp_path / "flipped.npz"
        rng = np.random.default_rng(2024)
        for _ in range(500):
            blob = bytearray(checkpoint)
            blob[int(rng.integers(len(blob)))] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(blob))
            self.assert_typed(path)

    def test_truncation_is_a_serialization_error(self, checkpoint, tmp_path):
        path = tmp_path / "cut.npz"
        path.write_bytes(checkpoint[:2000])
        with pytest.raises(SerializationError, match="corrupt"):
            load_autoencoder(path)
