"""Tests for repro.api.session (InferenceSession)."""

import warnings

import numpy as np
import pytest

from repro.api import Codec, CodecSpec, InferenceSession
from repro.data.binary_images import paper_dataset
from repro.exceptions import (
    DimensionError,
    EncodingError,
    NormalizationError,
    ServingError,
)
from repro.network.autoencoder import QuantumAutoencoder

TOL = 1e-10


def _autoencoder(seed=0, **kwargs):
    return QuantumAutoencoder(4, 2, 2, 2, **kwargs).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


def _data(m=6, n=4, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, n))) + 0.1


class TestEagerParity:
    def test_paper_config_parity(self):
        """Compiled single-GEMM pass == eager forward to <= 1e-10."""
        codec = Codec(CodecSpec(iterations=3, backend="fused"))
        X = paper_dataset().matrix()
        codec.fit(X)
        session = codec.session()
        np.testing.assert_allclose(
            session.reconstruct(X), codec.forward(X).x_hat, atol=TOL, rtol=0
        )

    @pytest.mark.parametrize("allow_phase", [False, True])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_parity_matrix(self, allow_phase, renormalize):
        ae = _autoencoder(allow_phase=allow_phase, renormalize=renormalize)
        session = InferenceSession(ae)
        X = _data()
        np.testing.assert_allclose(
            session.reconstruct(X), ae.forward(X).x_hat, atol=TOL, rtol=0
        )

    def test_compress_decompress_parity(self):
        ae = _autoencoder()
        session = InferenceSession(ae)
        X = _data()
        eager = ae.forward(X)
        payload = session.compress(X)
        np.testing.assert_allclose(
            payload.codes, eager.compact_codes, atol=TOL, rtol=0
        )
        np.testing.assert_allclose(
            session.decompress(payload), eager.x_hat, atol=TOL, rtol=0
        )

    def test_decompress_raw_codes(self):
        session = InferenceSession(_autoencoder())
        X = _data()
        payload = session.compress(X)
        with pytest.raises(DimensionError):
            session.decompress(payload.codes)
        with pytest.raises(DimensionError):
            session.decompress(np.zeros((3, 2)), np.ones(2))
        assert np.array_equal(
            session.decompress(payload.codes, payload.squared_norms),
            session.decompress(payload),
        )


class TestImmutability:
    def test_later_training_does_not_leak(self):
        ae = _autoencoder()
        session = InferenceSession(ae)
        X = _data()
        before = session.reconstruct(X)
        ae.uc.set_flat_params(
            np.random.default_rng(5).normal(size=ae.uc.num_parameters)
        )
        assert np.array_equal(session.reconstruct(X), before)
        assert not np.allclose(ae.forward(X).x_hat, before)

    def test_operator_is_read_only_copy(self):
        session = InferenceSession(_autoencoder())
        op = session.pipeline_operator()
        op[:] = 0.0  # mutating the copy ...
        assert not np.allclose(session.pipeline_operator(), 0.0)

    def test_source_network_backend_untouched(self):
        ae = _autoencoder(backend="loop")
        InferenceSession(ae)
        assert ae.uc.backend.name == "loop"


class TestChunking:
    def test_oversized_tick_streams_in_chunks(self):
        ae = _autoencoder()
        session = InferenceSession(ae, chunk_size=7)
        wide = InferenceSession(ae)
        X = _data(m=50)
        # Chunk boundaries change BLAS blocking, so equality is to
        # rounding, not bitwise.
        np.testing.assert_allclose(
            session.reconstruct(X), wide.reconstruct(X), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            session.compress(X).codes, wide.compress(X).codes,
            atol=1e-12, rtol=0,
        )

    def test_chunk_size_validated(self):
        with pytest.raises(ServingError):
            InferenceSession(_autoencoder(), chunk_size=0)


class TestLifecycle:
    def test_from_codec(self):
        codec = Codec(
            CodecSpec(dim=4, compressed_dim=2, compression_layers=2,
                      reconstruction_layers=2, iterations=2)
        )
        session = codec.session(chunk_size=128)
        assert session.dim == 4
        assert session.chunk_size == 128

    def test_context_manager_closes_batcher(self):
        with InferenceSession(_autoencoder(), flush_latency=None) as session:
            future = session.submit(_data(m=1)[0])
            session.flush()
        assert future.result(timeout=1.0).shape == (4,)
        with pytest.raises(ServingError):
            session.submit(_data(m=1)[0])

    def test_flush_without_batcher_is_noop(self):
        assert InferenceSession(_autoencoder()).flush() == 0

    def test_close_before_any_submit_still_closes(self):
        """A never-used session must not resurrect through the lazy
        batcher after close()."""
        session = InferenceSession(_autoencoder(), flush_latency=None)
        session.close()
        with pytest.raises(ServingError):
            session.submit(_data(m=1)[0])

    def test_repr_mentions_shape(self):
        assert "dim=4" in repr(InferenceSession(_autoencoder()))


class TestPoolAttachment:
    def test_pool_defaults_to_none(self):
        session = InferenceSession(_autoencoder())
        assert session.pool is None
        assert "pool" not in repr(session)

    def test_small_ticks_never_touch_the_pool(self):
        class Exploder:
            processes = 2

            def apply_dense(self, *a, **k):  # pragma: no cover - guard
                raise AssertionError("small tick scattered to the pool")

        session = InferenceSession(
            _autoencoder(), chunk_size=64, pool=Exploder()
        )
        X = _data(m=10)
        ref = InferenceSession(_autoencoder(), chunk_size=64)
        np.testing.assert_allclose(
            session.reconstruct(X), ref.reconstruct(X), atol=0, rtol=0
        )

    @pytest.mark.slow
    def test_oversized_ticks_scatter_and_match(self):
        from repro.parallel.pool import WorkerPool

        ae = _autoencoder()
        with WorkerPool(processes=2) as pool:
            sharded = InferenceSession(ae, chunk_size=16, pool=pool)
            plain = InferenceSession(ae, chunk_size=16)
            assert sharded.pool is pool
            assert "pool=2 workers" in repr(sharded)
            X = _data(m=200, seed=5)
            np.testing.assert_allclose(
                sharded.reconstruct(X), plain.reconstruct(X),
                atol=TOL, rtol=0,
            )
            payload = sharded.compress(X)
            np.testing.assert_allclose(
                payload.codes, plain.compress(X).codes, atol=TOL, rtol=0
            )
            np.testing.assert_allclose(
                sharded.decompress(payload), plain.decompress(payload),
                atol=TOL, rtol=0,
            )

    @pytest.mark.slow
    def test_renormalize_path_through_pool(self):
        from repro.parallel.pool import WorkerPool

        ae = _autoencoder(renormalize=True)
        with WorkerPool(processes=2) as pool:
            sharded = InferenceSession(ae, chunk_size=16, pool=pool)
            plain = InferenceSession(ae, chunk_size=16)
            X = _data(m=120, seed=8)
            np.testing.assert_allclose(
                sharded.reconstruct(X), plain.reconstruct(X),
                atol=TOL, rtol=0,
            )


# ----------------------------------------------------------------------
# the public boundary: which input raises which exception
# ----------------------------------------------------------------------
def _boundary_session(kind):
    if kind == "noisy":
        return InferenceSession(_autoencoder(), noise="mild")
    return InferenceSession(_autoencoder(renormalize=kind == "renormalize"))


_SESSION_KINDS = ["clean", "renormalize", "noisy"]

_BAD_INPUTS = {
    "nan": (np.array([[1.0, np.nan, 0.5, 0.5]] * 2), DimensionError),
    "inf": (np.array([[1.0, 0.5, 0.5, 0.5], [np.inf, 0, 0, 1.0]]),
            DimensionError),
    "neg-inf": (np.array([[-np.inf, 0.5, 0.5, 0.5]]), DimensionError),
    "zero-row": (np.array([[1.0, 0.5, 0.5, 0.5], [0.0, 0, 0, 0]]),
                 NormalizationError),
    "wrong-width": (np.ones((3, 3)), DimensionError),
    "3-d": (np.ones((2, 3, 4)), DimensionError),
    "empty-rows": (np.zeros((0, 4)), DimensionError),
    "empty-1d": (np.array([]), DimensionError),
}


class TestBoundary:
    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    @pytest.mark.parametrize("entry", ["reconstruct", "compress"])
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_data_rejected(self, kind, entry, case):
        X, error = _BAD_INPUTS[case]
        with pytest.raises(error):
            getattr(_boundary_session(kind), entry)(X)

    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    def test_one_dimensional_input_is_one_row(self, kind):
        session = _boundary_session(kind)
        x = _data(m=1)[0]
        assert session.reconstruct(x).shape == (1, 4)
        assert np.array_equal(
            session.compress(x).codes, session.compress(x[None, :]).codes
        )
        assert session.compress(x).codes.shape == (2, 1)

    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    @pytest.mark.parametrize(
        "codes, norms, error",
        [
            (np.ones((3, 2)), np.ones(2), DimensionError),  # wrong d
            (np.ones((2, 2, 1)), np.ones(2), DimensionError),  # 3-D
            (np.ones((2, 2)), np.ones(3), DimensionError),  # norm count
            (np.ones((2, 2)), np.array([1.0, -1.0]), EncodingError),
            (np.ones((2, 2)), np.array([1.0, 0.0]), EncodingError),
            (np.ones((2, 2)), np.array([np.nan, 1.0]), EncodingError),
            (np.ones((2, 2)), np.array([1.0, np.inf]), EncodingError),
        ],
        ids=["wrong-d", "3-d", "norm-count", "negative-norm", "zero-norm",
             "nan-norm", "inf-norm"],
    )
    def test_bad_payload_rejected(self, kind, codes, norms, error):
        with pytest.raises(error):
            _boundary_session(kind).decompress(codes, norms)


class TestBoundaryFaults:
    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    @pytest.mark.parametrize("entry", ["reconstruct", "compress"])
    def test_overflowing_norm_is_a_normalization_error(self, kind, entry):
        X = _data(m=3)
        X[1] = 1e200  # finite, but sum x^2 overflows
        with pytest.raises(NormalizationError, match="sample 1"):
            getattr(_boundary_session(kind), entry)(X)

    def test_codec_compress_refuses_an_overflowing_norm(self):
        codec = Codec(CodecSpec(dim=4, compressed_dim=2,
                                compression_layers=2,
                                reconstruction_layers=2))
        with pytest.raises(NormalizationError):
            codec.compress(np.full((1, 4), 1e200))

    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_codes_rejected(self, kind, value):
        session = _boundary_session(kind)
        payload = session.compress(_data())
        codes = payload.codes.copy()
        codes[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="NaN or Inf"):
                session.decompress(codes, payload.squared_norms)

    @pytest.mark.parametrize("kind", _SESSION_KINDS)
    def test_non_numeric_codes_rejected(self, kind):
        with pytest.raises(DimensionError, match="numeric"):
            _boundary_session(kind).decompress(
                np.array([["a", "b"], ["c", "d"]]), np.ones(2)
            )

    def test_empty_payload_decodes_to_no_rows(self):
        session = InferenceSession(_autoencoder())
        assert session.decompress(np.zeros((2, 0)), np.zeros(0)).shape == (
            0, 4
        )


class TestBitwiseComposition:
    """The session's serving path is the explicit Eq. 1 -> operator ->
    Eq. 2 composition, bit for bit, on the inputs the serving benchmark
    scores."""

    @staticmethod
    def _operators(autoencoder):
        from repro.backends.fold import fold, mesh_layers

        keep = autoencoder.projection.keep
        uc, ur = autoencoder.uc, autoencoder.ur
        uc_u = fold(mesh_layers(uc, uc.get_flat_params()).layers)
        ur_u = fold(mesh_layers(ur, ur.get_flat_params()).layers)
        encode_op = np.ascontiguousarray(uc_u[keep, :])
        decode_op = np.ascontiguousarray(ur_u[:, keep])
        return encode_op, decode_op, decode_op @ encode_op

    @pytest.mark.parametrize("data", ["paper", "random256"])
    def test_session_equals_composition(self, data):
        from repro.encoding.amplitude import decode_batch, encode_batch

        if data == "paper":
            X = paper_dataset().matrix()
        else:
            rng = np.random.default_rng(11)
            X = (rng.random((256, 16)) < 0.5).astype(np.float64)
            X[:, 0] = 1.0
        codec = Codec(seed=3, backend="fused")
        session = codec.session(flush_latency=None)
        encode_op, decode_op, pipeline_op = self._operators(codec.autoencoder)
        enc = encode_batch(X)
        amps, sq = enc.amplitudes(), enc.squared_norms
        assert np.array_equal(
            session.reconstruct(X), decode_batch(pipeline_op @ amps, sq)
        )
        payload = session.compress(X)
        codes = encode_op @ amps
        assert np.array_equal(payload.codes, codes)
        assert np.array_equal(payload.squared_norms, sq)
        assert np.array_equal(
            session.decompress(payload), decode_batch(decode_op @ codes, sq)
        )
        for i in (0, len(X) - 1):
            row = encode_batch(X[i])
            assert np.array_equal(
                session.reconstruct(X[i]),
                decode_batch(pipeline_op @ row.amplitudes(),
                             row.squared_norms),
            )
