"""Property tests for the serving wire protocol.

The framing must be an exact inverse pair — every array that goes in
comes out bit-for-bit — and every malformed byte stream must raise
:class:`~repro.exceptions.ProtocolError` instead of crashing or hanging
the reader.  Hypothesis drives the round-trips over arbitrary payload
sizes, shapes and the four wire dtypes; the socket test then asserts the
same bit-exactness end to end through a live server.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.api import Codec
from repro.exceptions import ProtocolError
from repro.serving import ServerHarness, ServingClient
from repro.serving.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    VERSION,
    Frame,
    FrameType,
    decode_arrays,
    decode_error,
    decode_header,
    encode_arrays,
    encode_error,
    encode_frame,
    read_frame,
)

#: The four dtypes CompressedBatch payloads can carry on the wire.
WIRE_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]

wire_arrays = st.lists(
    st.one_of([
        npst.arrays(
            dtype=dt,
            shape=npst.array_shapes(min_dims=0, max_dims=3, max_side=6),
        )
        for dt in WIRE_DTYPES
    ]),
    min_size=0,
    max_size=5,
)


def _bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality that treats NaN payloads honestly."""
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes()
        == np.ascontiguousarray(b).tobytes()
    )


class TestArrayRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(arrays=wire_arrays)
    def test_encode_decode_bit_exact(self, arrays):
        decoded = decode_arrays(encode_arrays(arrays))
        assert len(decoded) == len(arrays)
        for original, back in zip(arrays, decoded):
            assert _bit_identical(np.asarray(original), back)

    @settings(deadline=None, max_examples=100)
    @given(arrays=wire_arrays)
    def test_encoding_is_deterministic(self, arrays):
        assert encode_arrays(arrays) == encode_arrays(arrays)

    def test_too_many_arrays_rejected(self):
        with pytest.raises(ProtocolError):
            encode_arrays([np.zeros(1)] * 256)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ProtocolError):
            encode_arrays([np.zeros(3, dtype=np.int64)])


class TestFrameRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(
        ftype=st.sampled_from(FrameType.REQUESTS + FrameType.RESPONSES),
        req_id=st.integers(min_value=0, max_value=2 ** 64 - 1),
        deadline_ms=st.integers(min_value=0, max_value=2 ** 32 - 1),
        payload=st.binary(max_size=4096),
    )
    def test_stream_round_trip(self, ftype, req_id, deadline_ms, payload):
        frame = Frame(type=ftype, req_id=req_id, payload=payload,
                      deadline_ms=deadline_ms)
        back = read_frame(io.BytesIO(encode_frame(frame)))
        assert back == frame

    @settings(deadline=None, max_examples=50)
    @given(payload=st.binary(min_size=1, max_size=256))
    def test_dribbling_stream_reassembles(self, payload):
        """Partial reads (1 byte at a time) still produce whole frames."""
        data = encode_frame(Frame(type=FrameType.RESULT, req_id=3,
                                  payload=payload))

        class Dribble:
            def __init__(self, raw):
                self._raw, self._pos = raw, 0

            def read(self, n):
                chunk = self._raw[self._pos:self._pos + min(n, 1)]
                self._pos += len(chunk)
                return chunk

        back = read_frame(Dribble(data))
        assert back is not None and back.payload == payload

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_back_to_back_frames(self):
        frames = [
            Frame(type=FrameType.PING, req_id=1),
            Frame(type=FrameType.RESULT, req_id=2, payload=b"abc"),
        ]
        stream = io.BytesIO(b"".join(encode_frame(f) for f in frames))
        assert read_frame(stream) == frames[0]
        assert read_frame(stream) == frames[1]
        assert read_frame(stream) is None


class TestErrorRoundTrip:
    @settings(deadline=None, max_examples=100)
    @given(
        code=st.integers(min_value=0, max_value=2 ** 16 - 1),
        message=st.text(max_size=200),
    )
    def test_error_round_trip(self, code, message):
        assert decode_error(encode_error(code, message)) == (code, message)


class TestMalformedInput:
    def test_bad_magic_rejected(self):
        header = HEADER.pack(0xDEAD, VERSION, FrameType.PING, 0, 0, 0)
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(header)

    def test_bad_version_rejected(self):
        header = HEADER.pack(MAGIC, VERSION + 1, FrameType.PING, 0, 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            decode_header(header)

    def test_oversize_length_rejected(self):
        header = HEADER.pack(MAGIC, VERSION, FrameType.PING, 0, 0,
                             MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(ProtocolError, match="ceiling"):
            decode_header(header)

    def test_truncated_stream_raises(self):
        data = encode_frame(Frame(type=FrameType.RESULT, req_id=1,
                                  payload=b"xyz"))
        for cut in (1, HEADER.size - 1, HEADER.size + 1):
            with pytest.raises(ProtocolError):
                read_frame(io.BytesIO(data[:cut]))

    def test_unknown_dtype_code_rejected(self):
        payload = bytes([1]) + struct.pack("!BB", ord("q"), 1) + \
            struct.pack("!I", 1) + b"\x00" * 8
        with pytest.raises(ProtocolError, match="dtype"):
            decode_arrays(payload)

    def test_too_many_dimensions_rejected(self):
        ndim = 65  # one past numpy's limit
        payload = bytes([1]) + struct.pack("!BB", ord("d"), ndim) + \
            struct.pack("!I", 1) * ndim + b"\x00" * 8
        with pytest.raises(ProtocolError, match="dimensions"):
            decode_arrays(payload)

    def test_wrapping_element_count_rejected(self):
        """(2**31, 2**31, 4) wraps an int64 product to 0 elements; the
        body-length check must still see the true size."""
        payload = bytes([1]) + struct.pack("!BB", ord("d"), 3) + \
            struct.pack("!III", 2**31, 2**31, 4)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_arrays(payload)

    def test_empty_array_with_oversized_dims_rejected(self):
        """Zero elements need no body, but numpy still refuses a shape
        whose non-zero dims overflow its size limit."""
        payload = bytes([1]) + struct.pack("!BB", ord("d"), 3) + \
            struct.pack("!III", 0, 2**32 - 1, 2**32 - 1)
        with pytest.raises(ProtocolError, match="too large"):
            decode_arrays(payload)

    def test_trailing_bytes_rejected(self):
        payload = encode_arrays([np.zeros(2)]) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_arrays(payload)

    def test_truncated_array_body_rejected(self):
        payload = encode_arrays([np.zeros(4)])
        with pytest.raises(ProtocolError):
            decode_arrays(payload[:-1])

    def test_empty_array_payload_rejected(self):
        with pytest.raises(ProtocolError, match="count"):
            decode_arrays(b"")


class TestCompressedBatchOverSocket:
    """Satellite 3's end-to-end claim: a CompressedBatch survives the
    socket path bit-exactly vs the serving session's in-process result,
    and within 1e-10 of the eager Codec."""

    def test_socket_compress_is_bit_exact(self):
        codec = Codec(dim=8, compressed_dim=2, compression_layers=3,
                      reconstruction_layers=3, seed=5)
        session = codec.session(flush_latency=None)
        rng = np.random.default_rng(0)
        X = np.abs(rng.normal(size=(9, 8))) + 0.1
        in_process = session.compress(X)
        eager = codec.compress(X)
        try:
            with ServerHarness(session) as harness:
                with ServingClient(harness.host, harness.port) as client:
                    over_wire = client.compress(X)
                    x_hat_wire = client.decompress(over_wire)
        finally:
            session.close()
        assert _bit_identical(over_wire.codes, in_process.codes)
        assert _bit_identical(over_wire.squared_norms,
                              in_process.squared_norms)
        # ...and the wire payload bytes themselves are reproducible.
        assert encode_arrays([over_wire.codes, over_wire.squared_norms]) \
            == encode_arrays([in_process.codes, in_process.squared_norms])
        assert np.max(np.abs(over_wire.codes - eager.codes)) <= 1e-10
        assert np.max(np.abs(
            over_wire.squared_norms - eager.squared_norms
        )) <= 1e-10
        assert np.max(np.abs(
            x_hat_wire - codec.forward(X).x_hat
        )) <= 1e-10
