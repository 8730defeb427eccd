"""Tests for repro.api.codec: round-trip exactness and persistence."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.api import Codec, CodecSpec, CompressedBatch
from repro.data.binary_images import paper_dataset
from repro.exceptions import DimensionError, SerializationError
from repro.io.model_io import load_autoencoder, save_autoencoder
from repro.network.autoencoder import QuantumAutoencoder

SMALL = dict(
    dim=4, compressed_dim=2, compression_layers=2, reconstruction_layers=2,
    iterations=2,
)


def _data(m=6, n=4, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, n))) + 0.1


class TestCompressedBatch:
    def test_shapes_validated(self):
        with pytest.raises(DimensionError):
            CompressedBatch(codes=np.zeros(3), squared_norms=np.ones(3))
        with pytest.raises(DimensionError):
            CompressedBatch(codes=np.zeros((2, 3)), squared_norms=np.ones(2))

    def test_payload_accounting(self):
        payload = CompressedBatch(
            codes=np.zeros((4, 25)), squared_norms=np.ones(25)
        )
        assert payload.compressed_dim == 4
        assert payload.num_samples == 25
        assert payload.floats_per_sample == 5

    def test_coerce_rejects_conflicting_forms(self):
        payload = CompressedBatch(
            codes=np.ones((2, 3)), squared_norms=np.ones(3)
        )
        assert CompressedBatch.coerce(payload) is payload
        with pytest.raises(DimensionError):
            CompressedBatch.coerce(payload, np.ones(3))  # double norms

    @pytest.mark.parametrize("complex_codes", [False, True])
    def test_wire_format_round_trip(self, complex_codes, tmp_path):
        from repro.io.results_io import load_results, save_results

        rng = np.random.default_rng(0)
        codes = rng.normal(size=(2, 5))
        if complex_codes:
            codes = codes + 1j * rng.normal(size=(2, 5))
        payload = CompressedBatch(
            codes=codes, squared_norms=np.abs(rng.normal(size=5)) + 0.1
        )
        path = tmp_path / "payload.json"
        save_results(payload.to_results(), path)
        back = CompressedBatch.from_results(load_results(path))
        assert np.array_equal(back.codes, payload.codes)
        assert np.array_equal(back.squared_norms, payload.squared_norms)

    def test_from_results_rejects_codeless_mapping(self):
        with pytest.raises(DimensionError):
            CompressedBatch.from_results({"squared_norms": np.ones(2)})


class TestRoundTripExactness:
    def test_paper_dataset_bit_exact(self):
        """compress->decompress equals QuantumAutoencoder.forward bitwise."""
        spec = CodecSpec()  # the paper's architecture + seed
        codec = Codec(spec)
        ae = QuantumAutoencoder(
            dim=16, compressed_dim=4,
            compression_layers=12, reconstruction_layers=14,
        ).initialize("uniform", rng=np.random.default_rng(spec.seed))
        X = paper_dataset().matrix()
        expected = ae.forward(X)
        x_hat = codec.decompress(codec.compress(X))
        assert np.array_equal(x_hat, expected.x_hat)

    def test_compress_matches_forward_codes(self):
        codec = Codec(CodecSpec(**SMALL))
        X = _data()
        out = codec.forward(X)
        payload = codec.compress(X)
        assert np.array_equal(payload.codes, out.compact_codes)
        assert np.array_equal(payload.squared_norms, out.encoded.squared_norms)

    @pytest.mark.parametrize("allow_phase", [False, True])
    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_round_trip_bit_exact_matrix(
        self, allow_phase, renormalize, backend
    ):
        codec = Codec(
            CodecSpec(
                **SMALL,
                allow_phase=allow_phase,
                renormalize=renormalize,
                backend=backend,
            )
        ).fit(_data())
        X = _data(seed=3)
        expected = codec.forward(X).x_hat
        assert np.array_equal(codec.decompress(codec.compress(X)), expected)

    def test_decompress_raw_codes_needs_norms(self):
        codec = Codec(CodecSpec(**SMALL))
        payload = codec.compress(_data())
        with pytest.raises(DimensionError):
            codec.decompress(payload.codes)
        x_hat = codec.decompress(payload.codes, payload.squared_norms)
        assert np.array_equal(x_hat, codec.decompress(payload))


class TestFitEvaluate:
    def test_fit_records_result_and_improves(self):
        codec = Codec(CodecSpec(**SMALL) .with_(iterations=40, backend="fused"))
        X = _data(m=8)
        assert not codec.is_fitted
        codec.fit(X)
        assert codec.is_fitted
        history = codec.last_result.history
        assert history.num_iterations == 40
        assert history.loss_r[-1] < history.loss_r[0]

    def test_retained_probability_measured_before_renormalization(self):
        """renormalize must not trivialise the compression-loss metric."""
        X = _data()
        plain = Codec(CodecSpec(**SMALL))
        renorm = Codec(CodecSpec(**SMALL, renormalize=True))
        expected = plain.forward(X).retained_probability
        assert np.all(expected < 1.0 - 1e-6)  # untrained: real loss
        assert np.allclose(
            renorm.forward(X).retained_probability, expected
        )
        assert (
            renorm.evaluate(X)["mean_retained_probability"]
            == pytest.approx(float(np.mean(expected)))
        )

    def test_evaluate_keys_and_ranges(self):
        metrics = Codec(CodecSpec(**SMALL)).fit(_data()).evaluate(_data())
        assert set(metrics) == {
            "accuracy",
            "pixel_accuracy",
            "mse",
            "reconstruction_loss",
            "mean_retained_probability",
        }
        assert 0.0 <= metrics["accuracy"] <= 100.0
        assert 0.0 <= metrics["mean_retained_probability"] <= 1.0 + 1e-12

    def test_overrides_via_kwargs(self):
        codec = Codec(dim=8, compressed_dim=2, compression_layers=2,
                      reconstruction_layers=2)
        assert codec.dim == 8
        assert codec.spec.compressed_dim == 2

    def test_fit_accepts_path_source(self, tmp_path):
        X = _data(m=8)
        path = tmp_path / "x.npy"
        np.save(path, X)
        from_path = Codec(CodecSpec(**SMALL)).fit(path)
        from_array = Codec(CodecSpec(**SMALL)).fit(X)
        assert np.array_equal(
            from_path.autoencoder.uc.get_flat_params(),
            from_array.autoencoder.uc.get_flat_params(),
        )

    def test_fit_accepts_dataset_source(self):
        ds = paper_dataset(image_size=2, num_samples=6)
        codec = Codec(CodecSpec(**SMALL)).fit(ds)
        assert codec.is_fitted

    def test_fit_accepts_stream_and_adopts_its_batch_size(self):
        from repro.data.stream import MiniBatchStream

        X = _data(m=8)
        stream = MiniBatchStream(X, batch_size=3, seed=0)
        via_stream = Codec(CodecSpec(**SMALL)).fit(stream)
        via_array = Codec(
            CodecSpec(**SMALL).with_(batch_size=3)
        ).fit(X)
        assert np.array_equal(
            via_stream.autoencoder.uc.get_flat_params(),
            via_array.autoencoder.uc.get_flat_params(),
        )
        # The codec's own spec stays as configured (frozen).
        assert via_stream.spec.batch_size is None

    def test_fit_trains_ur_on_renormalized_inputs(self):
        """The renormalize flag must reach training, not just inference:
        U_R is optimised on the same (renormalized) states it serves."""
        X = _data(m=8)
        base = CodecSpec(**SMALL).with_(iterations=30, backend="fused")
        plain = Codec(base).fit(X)
        renorm = Codec(base.with_(renormalize=True)).fit(X)
        # Different U_R input distributions -> different trained params.
        assert not np.allclose(
            plain.autoencoder.ur.get_flat_params(),
            renorm.autoencoder.ur.get_flat_params(),
        )
        # And the objective it optimised is the serving pipeline's: the
        # trained codec beats its own untrained initialisation.
        untrained = Codec(base.with_(renormalize=True))
        assert (
            renorm.evaluate(X)["reconstruction_loss"]
            < untrained.evaluate(X)["reconstruction_loss"]
        )


class TestPersistence:
    @pytest.mark.parametrize("allow_phase", [False, True])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_save_load_output_identical(
        self, tmp_path, allow_phase, renormalize
    ):
        codec = Codec(
            CodecSpec(
                **SMALL, allow_phase=allow_phase, renormalize=renormalize,
                backend="fused",
            )
        ).fit(_data())
        path = tmp_path / "codec.npz"
        codec.save(path)
        loaded = Codec.load(path)
        assert loaded.spec == codec.spec
        assert loaded.autoencoder.renormalize == renormalize
        assert loaded.autoencoder.backend_name == "fused"
        X = _data(seed=9)
        assert np.array_equal(
            loaded.forward(X).x_hat, codec.forward(X).x_hat
        )
        assert np.array_equal(
            loaded.decompress(loaded.compress(X)),
            codec.decompress(codec.compress(X)),
        )

    def test_fitted_state_survives_checkpoint(self, tmp_path):
        codec = Codec(CodecSpec(**SMALL))
        path = tmp_path / "c.npz"
        codec.save(path)
        assert not Codec.load(path).is_fitted  # untrained stays untrained
        codec.fit(_data())
        codec.save(path)
        loaded = Codec.load(path)
        assert loaded.is_fitted
        assert loaded.last_result is None  # history is not serialised
        assert "fitted" in repr(loaded)

    def test_save_without_npz_suffix_round_trips(self, tmp_path):
        """np.savez appends .npz on write; load must find it either way."""
        codec = Codec(CodecSpec(**SMALL))
        written = codec.save(tmp_path / "model")  # no suffix
        assert str(written).endswith("model.npz")
        X = _data()
        for path in (tmp_path / "model", written):
            loaded = Codec.load(path)
            assert np.array_equal(
                loaded.forward(X).x_hat, codec.forward(X).x_hat
            )

    def test_checkpoint_loads_as_plain_autoencoder(self, tmp_path):
        codec = Codec(CodecSpec(**SMALL, renormalize=True)).fit(_data())
        path = tmp_path / "codec.npz"
        codec.save(path)
        ae = load_autoencoder(path)
        assert ae.renormalize
        X = _data(seed=5)
        assert np.array_equal(
            ae.forward(X).x_hat, codec.forward(X).x_hat
        )

    def test_load_plain_autoencoder_archive(self, tmp_path):
        """A bare save_autoencoder file (no spec) loads with defaults."""
        ae = QuantumAutoencoder(4, 2, 2, 2, backend="fused").initialize(
            rng=np.random.default_rng(0)
        )
        path = tmp_path / "ae.npz"
        save_autoencoder(ae, path)
        codec = Codec.load(path)
        assert codec.spec.backend == "fused"
        assert codec.spec.projection == (2, 3)
        X = _data(seed=2)
        assert np.array_equal(
            codec.forward(X).x_hat, ae.forward(X).x_hat
        )

    def test_load_v1_archive(self, tmp_path):
        """v1 files (no renormalize/backend/spec) still load."""
        ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
            rng=np.random.default_rng(7)
        )
        meta = {
            "format_version": 1,
            "kind": "QuantumAutoencoder",
            "dim": 4,
            "compressed_dim": 2,
            "compression_layers": 2,
            "reconstruction_layers": 2,
            "allow_phase": False,
            "keep": [2, 3],
        }
        path = tmp_path / "v1.npz"
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            params=np.concatenate(
                [ae.uc.get_flat_params(), ae.ur.get_flat_params()]
            ),
        )
        codec = Codec.load(path)
        assert codec.spec.backend == "loop"
        assert not codec.autoencoder.renormalize
        X = _data(seed=4)
        assert np.array_equal(
            codec.forward(X).x_hat, ae.forward(X).x_hat
        )

    def test_future_format_version_rejected(self, tmp_path):
        meta = {"format_version": 99, "kind": "QuantumAutoencoder"}
        path = tmp_path / "v99.npz"
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            params=np.zeros(1),
        )
        with pytest.raises(SerializationError):
            Codec.load(path)


class TestShardedCheckpointRoundTrip:
    def test_sharded_worker_count_survives_save_load(self, tmp_path):
        """The archive header stores only 'sharded'; the embedded spec
        must restore the ':K' worker pinning on load."""
        from repro.backends.sharded import ShardedBackend

        codec = Codec(
            CodecSpec(
                dim=4, compressed_dim=2, compression_layers=2,
                reconstruction_layers=2, backend="sharded:3",
            )
        )
        path = codec.save(tmp_path / "model.npz")
        loaded = Codec.load(path)
        assert loaded.spec.backend == "sharded:3"
        backend = loaded.autoencoder.uc.backend
        assert isinstance(backend, ShardedBackend)
        assert backend.worker_count == 3
        assert backend._slot is loaded.autoencoder.ur.backend._slot


class TestDroppedCodecIsFreed:
    """A network references its backend only one way, so dropping a codec
    frees its networks (and their fold caches) by reference counting,
    without the cyclic garbage collector."""

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_networks_freed_with_gc_disabled(self, tmp_path, backend):
        codec = Codec(backend=backend, **SMALL).fit(_data())
        path = codec.save(tmp_path / "codec.npz")
        del codec
        gc.collect()
        gc.disable()
        try:
            codec = Codec.load(path)
            codec.forward(_data())  # fills the fused backend's fold cache
            refs = [
                weakref.ref(codec.autoencoder.uc),
                weakref.ref(codec.autoencoder.ur),
            ]
            del codec
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
