"""Length-prefixed binary wire protocol for the serving front-end.

One frame per request/response, built for exactly the payloads the codec
moves: float64 sample batches in, :class:`~repro.api.codec.CompressedBatch`
codes (float64 or complex128) out.  The framing is the classic
header-then-payload shape so a reader always knows how many bytes to
wait for — no sentinels, no ambiguity under partial reads:

.. code-block:: text

    frame   := header payload
    header  := magic(u16) version(u8) type(u8) req_id(u64)
               deadline_ms(u32) length(u32)          # 20 bytes, network order
    payload := length bytes, meaning set by `type`

Array payloads carry ``count(u8)`` then per array ``dtype(u8: ascii
char) ndim(u8) dims(u32 * ndim)`` followed by raw C-order bytes; error
payloads carry ``code(u16)`` then a UTF-8 message.  ``deadline_ms`` is a
*relative* client budget (0 = none): the server converts it to an
absolute expiry at admission, so clock skew between peers never
misfires a deadline.

Every decoder validates magic, version, dtype and size bounds and
raises :class:`~repro.exceptions.ProtocolError` on violation — a
malformed peer can cost the server at most one connection, never a
crash.  Encode/decode are exact inverses bit-for-bit (the hypothesis
suite in ``tests/serving/test_protocol.py`` round-trips arbitrary
shapes/dtypes), so a ``CompressedBatch`` survives the socket unchanged.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProtocolError

__all__ = [
    "Frame",
    "FrameType",
    "ErrorCode",
    "MAGIC",
    "VERSION",
    "MAX_PAYLOAD_BYTES",
    "HEADER",
    "encode_frame",
    "decode_header",
    "encode_arrays",
    "decode_arrays",
    "encode_error",
    "decode_error",
    "read_frame",
    "read_frame_async",
]

#: Two magic bytes every frame starts with ("QC": quantum codec).  HTTP
#: request lines can never collide with these, which is what lets the
#: server share one port between the binary protocol and `/healthz`.
MAGIC = 0x5143
VERSION = 1

#: Hard payload ceiling: a malicious or corrupt length field may cost at
#: most this much buffering before the connection is refused.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

HEADER = struct.Struct("!HBBQII")
_ERROR_HEAD = struct.Struct("!H")
_ARRAY_HEAD = struct.Struct("!BB")
_DIM = struct.Struct("!I")

#: numpy's dimension limit; a deeper shape could never be reshaped.
_MAX_NDIM = 64
_MAX_INTP = int(np.iinfo(np.intp).max)


class FrameType:
    """Frame type codes (u8). Requests < 16 <= responses."""

    COMPRESS = 1      # arrays: [X (M, N) float64]
    DECOMPRESS = 2    # arrays: [codes (d, M), squared_norms (M,)]
    RECONSTRUCT = 3   # arrays: [x (N,) or X (M, N) float64]
    PING = 4          # empty payload
    RESULT = 16       # arrays: request-type dependent
    PONG = 17         # empty payload
    ERROR = 18        # u16 code + utf-8 message

    REQUESTS = (COMPRESS, DECOMPRESS, RECONSTRUCT, PING)
    RESPONSES = (RESULT, PONG, ERROR)


class ErrorCode:
    """Error payload codes — deliberately HTTP-shaped so operators can
    read a shed rate off dashboards without a translation table."""

    BAD_REQUEST = 400      # malformed payload / un-encodable sample
    DEADLINE = 408         # expired before (or while) being served
    SHED = 429             # admission queue full - load shed
    INTERNAL = 500         # tick failed server-side
    CLOSING = 503          # server draining, not accepting work

    NAMES = {
        400: "bad-request",
        408: "deadline-expired",
        429: "shed",
        500: "internal",
        503: "closing",
    }


#: dtype codes are the numpy char codes of the four dtypes the codec's
#: wire payloads can carry.
_DTYPES = {
    ord("f"): np.dtype(np.float32),
    ord("d"): np.dtype(np.float64),
    ord("F"): np.dtype(np.complex64),
    ord("D"): np.dtype(np.complex128),
}
_DTYPE_CODES = {dt: code for code, dt in _DTYPES.items()}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``deadline_ms`` is meaningful on requests only (0 = no deadline);
    responses echo the request's ``req_id`` and leave it 0.
    """

    type: int
    req_id: int
    payload: bytes = b""
    deadline_ms: int = 0

    def arrays(self) -> List[np.ndarray]:
        """Decode an array payload (``COMPRESS``/``RECONSTRUCT``/...)."""
        return decode_arrays(self.payload)

    def error(self) -> Tuple[int, str]:
        """Decode an ``ERROR`` payload into ``(code, message)``."""
        return decode_error(self.payload)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_arrays(arrays: Sequence[np.ndarray]) -> bytes:
    """Serialise up to 255 arrays into one payload.

    Examples
    --------
    >>> import numpy as np
    >>> x = np.arange(6, dtype=np.float64).reshape(2, 3)
    >>> [a.tolist() for a in decode_arrays(encode_arrays([x]))]
    [[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]]
    """
    # np.asarray, not np.ascontiguousarray: the latter silently promotes
    # 0-d arrays to 1-d, breaking the bit-exact round-trip.  tobytes()
    # below already emits C-order bytes for any memory layout.
    arrays = [np.asarray(a) for a in arrays]
    if len(arrays) > 255:
        raise ProtocolError(f"payload holds at most 255 arrays, got "
                            f"{len(arrays)}")
    parts = [bytes([len(arrays)])]
    for arr in arrays:
        dtype = np.dtype(arr.dtype)
        code = _DTYPE_CODES.get(dtype)
        if code is None:
            raise ProtocolError(
                f"dtype {dtype} is not wire-encodable; supported: "
                f"{sorted(str(d) for d in _DTYPE_CODES)}"
            )
        if arr.ndim > 255:
            raise ProtocolError(f"ndim {arr.ndim} exceeds the u8 field")
        parts.append(_ARRAY_HEAD.pack(code, arr.ndim))
        for dim in arr.shape:
            parts.append(_DIM.pack(dim))
        parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def decode_arrays(payload: bytes) -> List[np.ndarray]:
    """Inverse of :func:`encode_arrays`; validates every length field."""
    if len(payload) < 1:
        raise ProtocolError("array payload is empty (missing count byte)")
    count = payload[0]
    offset = 1
    out: List[np.ndarray] = []
    for _ in range(count):
        if len(payload) < offset + _ARRAY_HEAD.size:
            raise ProtocolError("truncated array header")
        code, ndim = _ARRAY_HEAD.unpack_from(payload, offset)
        offset += _ARRAY_HEAD.size
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise ProtocolError(f"unknown dtype code {code}")
        if ndim > _MAX_NDIM:
            raise ProtocolError(
                f"array has {ndim} dimensions, at most {_MAX_NDIM} allowed"
            )
        if len(payload) < offset + ndim * _DIM.size:
            raise ProtocolError("truncated shape fields")
        shape = tuple(
            _DIM.unpack_from(payload, offset + i * _DIM.size)[0]
            for i in range(ndim)
        )
        offset += ndim * _DIM.size
        # Python ints: an int64 product of huge dims can wrap to 0.
        size = math.prod(shape)
        nbytes = size * dtype.itemsize
        if len(payload) < offset + nbytes:
            raise ProtocolError(
                f"array body truncated: need {nbytes} bytes for shape "
                f"{shape}, have {len(payload) - offset}"
            )
        # numpy bounds the byte size of the non-zero dims even for an
        # empty array, so (0, 2**32 - 1, 2**32 - 1) cannot be built.
        if math.prod(d for d in shape if d) * dtype.itemsize > _MAX_INTP:
            raise ProtocolError(f"array shape {shape} is too large for numpy")
        arr = np.frombuffer(
            payload, dtype=dtype, count=size, offset=offset
        ).reshape(shape)
        out.append(arr.copy())  # decouple from the receive buffer
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after {count} arrays"
        )
    return out


def encode_error(code: int, message: str) -> bytes:
    """Serialise an ``ERROR`` payload."""
    return _ERROR_HEAD.pack(int(code)) + message.encode("utf-8")


def decode_error(payload: bytes) -> Tuple[int, str]:
    if len(payload) < _ERROR_HEAD.size:
        raise ProtocolError("truncated error payload")
    (code,) = _ERROR_HEAD.unpack_from(payload, 0)
    return int(code), payload[_ERROR_HEAD.size:].decode("utf-8", "replace")


def encode_frame(frame: Frame) -> bytes:
    """Serialise a full frame (header + payload).

    Examples
    --------
    >>> f = Frame(type=FrameType.PING, req_id=7)
    >>> decode_header(encode_frame(f)[:HEADER.size])[:2]
    (4, 7)
    """
    payload = frame.payload
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    header = HEADER.pack(
        MAGIC, VERSION, frame.type, frame.req_id,
        frame.deadline_ms, len(payload),
    )
    return header + payload


def decode_header(header: bytes) -> Tuple[int, int, int, int]:
    """Validate a 20-byte header; returns (type, req_id, deadline_ms, length)."""
    if len(header) != HEADER.size:
        raise ProtocolError(
            f"header must be {HEADER.size} bytes, got {len(header)}"
        )
    magic, version, ftype, req_id, deadline_ms, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x} (want 0x{MAGIC:04x})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame ceiling"
        )
    return ftype, req_id, deadline_ms, length


# ----------------------------------------------------------------------
# stream readers (sync file-like + asyncio)
# ----------------------------------------------------------------------
def read_frame(stream) -> Optional[Frame]:
    """Read one frame from a blocking file-like object (``read(n)``).

    Returns ``None`` on clean EOF before any header byte; raises
    :class:`ProtocolError` on a truncated or malformed frame.
    """
    header = _read_exact(stream, HEADER.size, allow_eof=True)
    if header is None:
        return None
    ftype, req_id, deadline_ms, length = decode_header(header)
    payload = _read_exact(stream, length) if length else b""
    return Frame(type=ftype, req_id=req_id, payload=payload,
                 deadline_ms=deadline_ms)


def _read_exact(stream, n: int, allow_eof: bool = False) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"stream closed {remaining} bytes short of a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def read_frame_async(reader, first: bytes = b"") -> Optional[Frame]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    ``first`` holds header bytes already consumed (the server's HTTP
    sniff reads 4 bytes before knowing the connection is binary).
    Returns ``None`` on clean EOF at a frame boundary.
    """
    import asyncio

    need = HEADER.size - len(first)
    try:
        header = first + (await reader.readexactly(need) if need else b"")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not first:
            return None
        raise ProtocolError("connection closed mid-header") from None
    ftype, req_id, deadline_ms, length = decode_header(header)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-payload") from None
    return Frame(type=ftype, req_id=req_id, payload=payload,
                 deadline_ms=deadline_ms)
