"""Tests for repro.baselines.dct."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.dct import DCTCompressor, dct2, idct2, zigzag_indices
from repro.exceptions import BaselineError


def squared_error(compressor, images):
    """Total squared pixel error of the compressor's round trip."""
    return float(np.sum((compressor.reconstruct(images) - images) ** 2))


class TestTransforms:
    def test_dct_idct_roundtrip(self, rng):
        img = rng.random((8, 8))
        assert np.allclose(idct2(dct2(img)), img, atol=1e-12)

    def test_orthonormal_energy_preserved(self, rng):
        img = rng.random((4, 4))
        assert np.sum(dct2(img) ** 2) == pytest.approx(np.sum(img**2))

    def test_constant_image_is_dc_only(self):
        c = dct2(np.full((4, 4), 0.5))
        assert abs(c[0, 0]) > 0
        c[0, 0] = 0.0
        assert np.allclose(c, 0.0, atol=1e-12)

    def test_1d_rejected(self):
        with pytest.raises(BaselineError):
            dct2(np.ones(4))
        with pytest.raises(BaselineError):
            idct2(np.ones(4))


_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


class TestTransformProperties:
    """Hypothesis contracts: the DCT pair inverts exactly and zig-zag
    ordering is a permutation — the invariants ``repro.imaging`` builds
    its coefficient pipeline on."""

    @given(image=_shapes.flatmap(lambda s: arrays(
        np.float64, s,
        elements=st.floats(-1e3, 1e3, allow_nan=False,
                           allow_infinity=False),
    )))
    @settings(max_examples=60)
    def test_idct2_inverts_dct2(self, image):
        assert np.allclose(idct2(dct2(image)), image, atol=1e-8)

    @given(image=_shapes.flatmap(lambda s: arrays(
        np.float64, s,
        elements=st.floats(-1e3, 1e3, allow_nan=False,
                           allow_infinity=False),
    )))
    @settings(max_examples=60)
    def test_dct2_preserves_energy(self, image):
        assert np.sum(dct2(image) ** 2) == pytest.approx(
            np.sum(image**2), rel=1e-9, abs=1e-9
        )

    @given(size=st.integers(1, 32))
    @settings(max_examples=32)
    def test_zigzag_is_permutation(self, size):
        zz = zigzag_indices(size)
        assert zz.shape == (size * size, 2)
        flat = zz[:, 0] * size + zz[:, 1]
        assert np.array_equal(np.sort(flat), np.arange(size * size))

    @given(size=st.integers(1, 16))
    @settings(max_examples=16)
    def test_zigzag_antidiagonals_nondecreasing(self, size):
        zz = zigzag_indices(size)
        assert np.all(np.diff(zz.sum(axis=1)) >= 0)


class TestZigzag:
    def test_starts_at_dc(self):
        zz = zigzag_indices(4)
        assert zz[0].tolist() == [0, 0]

    def test_covers_all_positions(self):
        zz = zigzag_indices(4)
        assert len({tuple(p) for p in zz.tolist()}) == 16

    def test_antidiagonal_ordering(self):
        zz = zigzag_indices(3)
        sums = zz.sum(axis=1)
        assert np.all(np.diff(sums) >= 0)

    def test_invalid_size(self):
        with pytest.raises(BaselineError):
            zigzag_indices(0)


class TestDCTCompressor:
    def test_full_budget_exact(self, rng):
        imgs = rng.random((3, 4, 4))
        out = DCTCompressor(num_coefficients=16).reconstruct(imgs)
        assert np.allclose(out, imgs, atol=1e-10)

    def test_sparsity_of_codes(self, rng):
        imgs = rng.random((2, 4, 4))
        codes = DCTCompressor(num_coefficients=5).transform(imgs)
        assert np.all(
            np.count_nonzero(codes.reshape(2, -1), axis=1) <= 5
        )

    def test_error_decreases_with_budget(self, rng):
        imgs = rng.random((4, 8, 8))
        errs = [
            squared_error(DCTCompressor(num_coefficients=k), imgs)
            for k in (2, 8, 32, 64)
        ]
        assert errs == sorted(errs, reverse=True)

    def test_magnitude_beats_zigzag_on_random(self, rng):
        """Adaptive coefficient selection is at least as good as the
        fixed zig-zag support on non-smooth images."""
        imgs = rng.random((5, 8, 8))
        mag = squared_error(DCTCompressor(8, mode="magnitude"), imgs)
        zz = squared_error(DCTCompressor(8, mode="zigzag"), imgs)
        assert mag <= zz + 1e-9

    def test_smooth_image_compresses_well(self):
        from repro.data.grayscale import gradient_image

        img = gradient_image(8)
        err = squared_error(DCTCompressor(num_coefficients=4), img[None])
        assert err < 0.05 * np.sum(img**2)

    def test_single_image_shape(self, rng):
        img = rng.random((4, 4))
        out = DCTCompressor(4).reconstruct(img)
        assert out.shape == (4, 4)

    def test_output_clipped(self, rng):
        imgs = rng.random((3, 4, 4))
        out = DCTCompressor(3).reconstruct(imgs)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_validation(self, rng):
        with pytest.raises(BaselineError):
            DCTCompressor(0)
        with pytest.raises(BaselineError):
            DCTCompressor(4, mode="spiral")
        with pytest.raises(BaselineError):
            DCTCompressor(99).transform(rng.random((2, 4, 4)))
        with pytest.raises(BaselineError):
            DCTCompressor(4).transform(rng.random((2, 3, 4)))
