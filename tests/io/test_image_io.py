"""Tests for repro.io.image_io."""

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.io.image_io import read_pgm, write_pgm


class TestPGM:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.random((4, 6))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back.shape == (4, 6)
        assert np.allclose(back, img, atol=1 / 255 + 1e-9)

    def test_16bit_precision(self, tmp_path, rng):
        img = rng.random((3, 3))
        path = tmp_path / "img16.pgm"
        write_pgm(img, path, max_value=65535)
        assert np.allclose(read_pgm(path), img, atol=1 / 65535 + 1e-9)

    def test_header_format(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(np.zeros((2, 3)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2"

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            write_pgm(np.full((2, 2), 1.5), tmp_path / "bad.pgm")

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            write_pgm(np.zeros(4), tmp_path / "bad.pgm")

    def test_invalid_max_value(self, tmp_path):
        with pytest.raises(SerializationError):
            write_pgm(np.zeros((2, 2)), tmp_path / "bad.pgm", max_value=0)

    def test_read_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "not.pgm"
        path.write_text("P5 binary stuff")
        with pytest.raises(SerializationError):
            read_pgm(path)

    @pytest.mark.parametrize("magic", [b"P1", b"P4"])
    def test_read_rejects_pbm(self, tmp_path, magic):
        path = tmp_path / "b.pbm"
        raster = b"1\n" if magic == b"P1" else b"\x80"
        path.write_bytes(magic + b"\n1 1\n" + raster)
        with pytest.raises(SerializationError, match="not a PGM"):
            read_pgm(path)

    def test_read_rejects_truncated(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_text("P2\n2 2\n255\n1 2 3\n")  # one pixel short
        with pytest.raises(SerializationError, match="promises"):
            read_pgm(path)

    def test_read_skips_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n1 1\n255\n128\n")
        img = read_pgm(path)
        assert img[0, 0] == pytest.approx(128 / 255)


class TestBinaryPGM:
    def test_p5_roundtrip(self, tmp_path, rng):
        img = rng.random((5, 7))
        path = tmp_path / "img.pgm"
        write_pgm(img, path, binary=True)
        assert path.read_bytes()[:2] == b"P5"
        assert np.allclose(read_pgm(path), img, atol=1 / 255 + 1e-9)

    def test_p5_16bit_big_endian(self, tmp_path, rng):
        img = rng.random((3, 4))
        path = tmp_path / "img16.pgm"
        write_pgm(img, path, max_value=65535, binary=True)
        assert np.allclose(read_pgm(path), img, atol=1 / 65535 + 1e-9)
        # Raster must be big-endian 16-bit per the Netpbm spec.
        raster = path.read_bytes().split(b"65535\n", 1)[1]
        decoded = np.frombuffer(raster, dtype=">u2").reshape(3, 4)
        assert np.array_equal(decoded, np.rint(img * 65535))

    def test_p5_levels_exact(self, tmp_path, rng):
        levels = rng.integers(0, 256, size=(6, 6))
        path = tmp_path / "lv.pgm"
        write_pgm(levels / 255.0, path, binary=True)
        assert np.array_equal(np.rint(read_pgm(path) * 255), levels)

    def test_p5_raster_byte_count_enforced(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")  # one byte short
        with pytest.raises(SerializationError, match="raster"):
            read_pgm(path)

    def test_p5_header_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment\n1 1\n255\n\x80")
        assert read_pgm(path)[0, 0] == pytest.approx(128 / 255)

    def test_ascii_binary_agree(self, tmp_path, rng):
        img = rng.random((4, 9))
        ascii_path, bin_path = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(img, ascii_path)
        write_pgm(img, bin_path, binary=True)
        assert np.array_equal(read_pgm(ascii_path), read_pgm(bin_path))
