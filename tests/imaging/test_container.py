"""Tests for repro.imaging.container — wire format v2 bit-exactness."""

import numpy as np
import pytest

from repro.exceptions import ImagingError
from repro.imaging import (
    CompressedImage,
    QuantizationTable,
    TileGrid,
)
from repro.imaging.container import MAGIC, VERSION


def _transform_blob(rng, h=11, w=7, t=4):
    grid = TileGrid(height=h, width=w, tile_size=t)
    n = t * t
    return CompressedImage(
        grid=grid,
        transform="dct",
        table=QuantizationTable.jpeg_like(t, 60),
        mode="transform",
        levels=rng.integers(-300, 300, size=(grid.num_tiles, n)).astype(
            np.int32
        ),
    )


def _quantum_blob(rng, h=11, w=7, t=4, d=4):
    grid = TileGrid(height=h, width=w, tile_size=t, pad_mode="zero")
    n, m = t * t, TileGrid(height=h, width=w, tile_size=t).num_tiles
    return CompressedImage(
        grid=grid,
        transform="dct",
        table=QuantizationTable.jpeg_like(t, 85),
        mode="quantum",
        codes=rng.integers(-127, 128, size=(d, m)).astype(np.int32),
        signs=rng.random((m, n)) < 0.3,
        norms=np.abs(rng.normal(size=m)).astype(np.float32),
        code_bits=8,
    )


class TestRoundTrip:
    def test_transform_bit_exact(self, rng):
        blob = _transform_blob(rng)
        back = CompressedImage.from_bytes(blob.to_bytes())
        assert back == blob
        assert np.array_equal(back.levels, blob.levels)
        assert np.array_equal(back.table.steps, blob.table.steps)

    def test_quantum_bit_exact(self, rng):
        blob = _quantum_blob(rng)
        back = CompressedImage.from_bytes(blob.to_bytes())
        assert back == blob
        assert np.array_equal(back.codes, blob.codes)
        assert np.array_equal(back.signs, blob.signs)
        assert np.array_equal(back.norms, blob.norms)
        assert back.code_bits == 8
        assert back.grid.pad_mode == "zero"

    def test_serialization_deterministic(self, rng):
        blob = _transform_blob(rng)
        fresh = CompressedImage.from_bytes(blob.to_bytes())
        assert fresh.to_bytes() == blob.to_bytes()

    def test_non_byte_aligned_sign_plane(self, rng):
        # T=3: 9 signs per tile exercise the packbits row padding.
        blob = _quantum_blob(rng, h=7, w=5, t=3, d=2)
        assert CompressedImage.from_bytes(blob.to_bytes()) == blob

    def test_magic_and_version(self, rng):
        data = _transform_blob(rng).to_bytes()
        assert data[:5] == MAGIC
        assert data[5] == VERSION

    def test_bits_per_pixel_counts_original_pixels(self, rng):
        blob = _transform_blob(rng, h=11, w=7)
        assert blob.bits_per_pixel() == pytest.approx(
            8.0 * blob.num_bytes() / (11 * 7)
        )


class TestMalformed:
    def test_bad_magic(self, rng):
        data = bytearray(_transform_blob(rng).to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ImagingError, match="magic"):
            CompressedImage.from_bytes(bytes(data))

    def test_bad_version(self, rng):
        data = bytearray(_transform_blob(rng).to_bytes())
        data[5] = 99
        with pytest.raises(ImagingError, match="version"):
            CompressedImage.from_bytes(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(ImagingError, match="truncated"):
            CompressedImage.from_bytes(b"RIMG2\x02")

    @pytest.mark.parametrize("blob", [_transform_blob, _quantum_blob])
    def test_truncated_payload(self, rng, blob):
        """Every proper prefix — header, step table, entropy stream —
        is rejected with ImagingError, never a bare numpy error."""
        data = blob(rng).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ImagingError):
                CompressedImage.from_bytes(data[:cut])

    def test_trailing_bytes_rejected(self, rng):
        data = _transform_blob(rng).to_bytes() + b"xx"
        with pytest.raises(ImagingError, match="trailing"):
            CompressedImage.from_bytes(data)

    def test_enum_out_of_range(self, rng):
        data = bytearray(_transform_blob(rng).to_bytes())
        data[6] = 7  # mode byte
        with pytest.raises(ImagingError, match="enum"):
            CompressedImage.from_bytes(bytes(data))


class TestConstruction:
    def test_transform_mode_plane_contract(self, rng):
        grid = TileGrid(height=8, width=8, tile_size=4)
        table = QuantizationTable.jpeg_like(4, 50)
        with pytest.raises(ImagingError):
            CompressedImage(grid, "dct", table, "transform")  # no levels
        with pytest.raises(ImagingError):
            CompressedImage(
                grid, "dct", table, "transform",
                levels=np.zeros((3, 16), dtype=np.int32),  # wrong M
            )

    def test_quantum_mode_plane_contract(self, rng):
        grid = TileGrid(height=8, width=8, tile_size=4)
        table = QuantizationTable.jpeg_like(4, 50)
        m = grid.num_tiles
        codes = np.zeros((4, m), dtype=np.int32)
        signs = np.zeros((m, 16), dtype=bool)
        norms = np.ones(m, dtype=np.float32)
        with pytest.raises(ImagingError):
            CompressedImage(grid, "dct", table, "quantum", codes=codes)
        with pytest.raises(ImagingError):
            CompressedImage(
                grid, "dct", table, "quantum",
                codes=codes, signs=signs, norms=norms, code_bits=1,
            )
        blob = CompressedImage(
            grid, "dct", table, "quantum",
            codes=codes, signs=signs, norms=norms, code_bits=8,
        )
        assert blob.compressed_dim == 4

    def test_table_size_must_match_tiles(self, rng):
        grid = TileGrid(height=8, width=8, tile_size=4)
        with pytest.raises(ImagingError):
            CompressedImage(
                grid, "dct", QuantizationTable.jpeg_like(3, 50),
                "transform",
                levels=np.zeros((grid.num_tiles, 16), dtype=np.int32),
            )

    def test_equality(self, rng):
        a = _transform_blob(rng)
        b = CompressedImage.from_bytes(a.to_bytes())
        assert a == b
        c = _quantum_blob(rng)
        assert a != c
        assert a != "not a container"
