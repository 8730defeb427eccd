"""`CompressedImage` — the entropy-coded wire format v2.

Wire format v1 is :class:`~repro.api.codec.CompressedBatch`'s JSON
mapping: float codes for a *fixed-size vector batch*, no notion of an
image.  v2 is a binary container for a whole tiled image:

====================  ==================================================
header                magic ``RIMG2``, version, payload mode, transform,
                      pad mode, image dims, tile size, quality,
                      ``code_bits``, compressed dim — everything decode
                      needs except the model weights
quantization table    ``T^2`` ``float32`` steps (bit-exact on both ends)
entropy payload       one :func:`~repro.imaging.entropy.compress_bytes`
                      blob holding the integer/sign/norm planes
====================  ==================================================

Two payload modes share the container:

- ``"transform"`` — classical JPEG-style: the quantized transform
  levels themselves (``(M, T^2)`` ints, varint + rANS coded).
- ``"quantum"`` — per-tile quantum compression: quantized code
  amplitudes (``(d, M)`` ints), the packed coefficient sign plane, and
  the per-tile ``float32`` norm side channel (Eq. 2).

``CompressedImage.from_bytes(img.to_bytes())`` reproduces every stored
array **bit-exactly** — the lossy steps (quantization, the codec) all
happen before the container; serialization itself is lossless.  The
measured size is the honest rate: :meth:`bits_per_pixel` counts real
serialized bytes against the original (pre-padding) pixel count.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from repro.exceptions import ImagingError
from repro.imaging.entropy import (
    compress_bytes,
    decompress_bytes_from,
    decode_varints,
    encode_varints,
    fold_signed,
    unfold_signed,
)
from repro.imaging.quantize import QuantizationTable
from repro.imaging.tiler import PAD_MODES, TileGrid
from repro.imaging.transform import TRANSFORMS

__all__ = ["CompressedImage", "MAGIC", "VERSION"]

MAGIC = b"RIMG2"
VERSION = 2

MODES = ("transform", "quantum")
_HEADER = struct.Struct("<5sBBBBIIHHBH")


class CompressedImage:
    """One compressed image: geometry + model knobs + integer payloads.

    Construct via :func:`~repro.imaging.pipeline.compress_image` (or
    :meth:`from_bytes`); the attributes are the decoded payload planes.

    Attributes
    ----------
    grid:
        The :class:`~repro.imaging.tiler.TileGrid` (original dims, tile
        size, padding).
    transform:
        ``"dct"`` or ``"pixel"`` — the per-tile analysis transform.
    table:
        The :class:`~repro.imaging.quantize.QuantizationTable` used on
        the transform coefficients.
    mode:
        ``"transform"`` (classical levels) or ``"quantum"`` (codes).
    levels:
        ``(M, T^2) int32`` quantized coefficients (transform mode).
    codes:
        ``(d, M) int32`` quantized code amplitudes (quantum mode).
    signs:
        ``(M, T^2) bool`` — True where the quantized coefficient was
        negative (quantum mode; decode restores signs lost by Eq. 2).
    norms:
        ``(M,) float32`` squared tile norms (quantum mode; 0 marks an
        all-zero tile that bypassed the codec).
    code_bits:
        Signed bit budget of the code quantizer (quantum mode).
    """

    def __init__(
        self,
        grid: TileGrid,
        transform: str,
        table: QuantizationTable,
        mode: str,
        levels: Optional[np.ndarray] = None,
        codes: Optional[np.ndarray] = None,
        signs: Optional[np.ndarray] = None,
        norms: Optional[np.ndarray] = None,
        code_bits: int = 0,
    ) -> None:
        if transform not in TRANSFORMS:
            raise ImagingError(f"unknown transform {transform!r}")
        if mode not in MODES:
            raise ImagingError(f"unknown payload mode {mode!r}")
        n = grid.tile_size * grid.tile_size
        if table.num_coefficients != n:
            raise ImagingError(
                f"quantization table has {table.num_coefficients} steps "
                f"for {n}-coefficient tiles"
            )
        m = grid.num_tiles
        if mode == "transform":
            if levels is None or codes is not None or norms is not None:
                raise ImagingError(
                    "transform mode carries exactly the 'levels' plane"
                )
            levels = np.ascontiguousarray(levels, dtype=np.int32)
            if levels.shape != (m, n):
                raise ImagingError(
                    f"levels must be ({m}, {n}), got {levels.shape}"
                )
            signs = None
            code_bits = 0
        else:
            if codes is None or norms is None or signs is None:
                raise ImagingError(
                    "quantum mode needs codes, signs and norms planes"
                )
            if levels is not None:
                raise ImagingError("quantum mode does not carry levels")
            codes = np.ascontiguousarray(codes, dtype=np.int32)
            if codes.ndim != 2 or codes.shape[1] != m:
                raise ImagingError(
                    f"codes must be (d, {m}), got {codes.shape}"
                )
            signs = np.ascontiguousarray(signs, dtype=bool)
            if signs.shape != (m, n):
                raise ImagingError(
                    f"signs must be ({m}, {n}), got {signs.shape}"
                )
            norms = np.ascontiguousarray(norms, dtype=np.float32)
            if norms.shape != (m,):
                raise ImagingError(
                    f"norms must be ({m},), got {norms.shape}"
                )
            if not 2 <= int(code_bits) <= 16:
                raise ImagingError(
                    f"code_bits must be in [2, 16], got {code_bits}"
                )
        self.grid = grid
        self.transform = transform
        self.table = table
        self.mode = mode
        self.levels = levels
        self.codes = codes
        self.signs = signs
        self.norms = norms
        self.code_bits = int(code_bits)
        self._encoded: Optional[bytes] = None

    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return self.grid.num_tiles

    @property
    def compressed_dim(self) -> int:
        """Codes per tile (0 in transform mode)."""
        return 0 if self.codes is None else int(self.codes.shape[0])

    def num_bytes(self) -> int:
        """Serialized size of the whole container."""
        return len(self.to_bytes())

    def bits_per_pixel(self) -> float:
        """Measured rate: serialized bits over *original* pixels."""
        return 8.0 * self.num_bytes() / self.grid.num_pixels

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize; deterministic, cached after the first call."""
        if self._encoded is not None:
            return self._encoded
        g = self.grid
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            MODES.index(self.mode),
            TRANSFORMS.index(self.transform),
            PAD_MODES.index(g.pad_mode),
            g.height,
            g.width,
            g.tile_size,
            self.table.quality & 0xFFFF,
            self.code_bits,
            self.compressed_dim,
        )
        steps = np.ascontiguousarray(
            self.table.steps, dtype="<f4"
        ).tobytes()
        if self.mode == "transform":
            stream = encode_varints(fold_signed(self.levels.ravel()))
        else:
            stream = b"".join(
                [
                    encode_varints(fold_signed(self.codes.ravel())),
                    np.packbits(self.signs, axis=1).tobytes(),
                    self.norms.astype("<f4").tobytes(),
                ]
            )
        self._encoded = header + steps + compress_bytes(stream)
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedImage":
        """Rebuild a container bit-exactly from :meth:`to_bytes` output."""
        try:
            (
                magic,
                version,
                mode_idx,
                transform_idx,
                pad_idx,
                height,
                width,
                tile_size,
                quality,
                code_bits,
                d,
            ) = _HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise ImagingError(f"container header truncated: {exc}") from exc
        if magic != MAGIC:
            raise ImagingError(
                f"bad container magic {magic!r} (not a wire-format-v2 blob)"
            )
        if version != VERSION:
            raise ImagingError(
                f"unsupported container version {version} (expected "
                f"{VERSION})"
            )
        if mode_idx >= len(MODES) or transform_idx >= len(TRANSFORMS) \
                or pad_idx >= len(PAD_MODES):
            raise ImagingError("container header enum out of range")
        mode = MODES[mode_idx]
        grid = TileGrid(
            height=height,
            width=width,
            tile_size=tile_size,
            pad_mode=PAD_MODES[pad_idx],
        )
        n = tile_size * tile_size
        offset = _HEADER.size
        if len(data) < offset + 4 * n:
            raise ImagingError(
                f"container quantization table truncated: {n} steps need "
                f"{4 * n} bytes, {len(data) - offset} present"
            )
        steps = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
        offset += 4 * n
        table = QuantizationTable(steps=steps.copy(), quality=quality)
        stream, offset = decompress_bytes_from(data, offset)
        if offset != len(data):
            raise ImagingError(
                f"{len(data) - offset} trailing bytes after container"
            )
        m = grid.num_tiles
        if mode == "transform":
            folded, consumed = decode_varints(stream, m * n)
            if consumed != len(stream):
                raise ImagingError("transform payload has trailing bytes")
            levels = unfold_signed(folded).astype(np.int32).reshape(m, n)
            return cls(
                grid=grid,
                transform=TRANSFORMS[transform_idx],
                table=table,
                mode=mode,
                levels=levels,
            )
        folded, consumed = decode_varints(stream, d * m)
        codes = unfold_signed(folded).astype(np.int32).reshape(d, m)
        rest = stream[consumed:]
        sign_bytes = m * (-(-n // 8))
        if len(rest) != sign_bytes + 4 * m:
            raise ImagingError(
                f"quantum payload is {len(rest)} bytes, expected "
                f"{sign_bytes + 4 * m} (signs + norms)"
            )
        packed = np.frombuffer(
            rest, dtype=np.uint8, count=sign_bytes
        ).reshape(m, -1)
        signs = np.unpackbits(packed, axis=1)[:, :n].astype(bool)
        norms = np.frombuffer(
            rest, dtype="<f4", count=m, offset=sign_bytes
        ).copy()
        return cls(
            grid=grid,
            transform=TRANSFORMS[transform_idx],
            table=table,
            mode=mode,
            codes=codes,
            signs=signs,
            norms=norms,
            code_bits=code_bits,
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedImage):
            return NotImplemented

        def same(a, b):
            if a is None or b is None:
                return (a is None) == (b is None)
            return a.shape == b.shape and bool(np.array_equal(a, b))

        return (
            self.grid == other.grid
            and self.transform == other.transform
            and self.mode == other.mode
            and self.code_bits == other.code_bits
            and same(self.table.steps, other.table.steps)
            and same(self.levels, other.levels)
            and same(self.codes, other.codes)
            and same(self.signs, other.signs)
            and same(self.norms, other.norms)
        )

    def __repr__(self) -> str:
        g = self.grid
        payload = (
            f"levels={self.levels.shape}" if self.mode == "transform"
            else f"codes={self.codes.shape}, code_bits={self.code_bits}"
        )
        return (
            f"CompressedImage({g.height}x{g.width}, tiles={g.rows}x"
            f"{g.cols}@{g.tile_size}, mode={self.mode!r}, "
            f"transform={self.transform!r}, {payload})"
        )
