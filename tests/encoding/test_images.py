"""Tests for repro.encoding.images."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.encoding.images import (
    apply_paper_threshold,
    flatten_images,
    unflatten_images,
)
from repro.exceptions import DimensionError, EncodingError


class TestFlattenUnflatten:
    def test_roundtrip(self, rng):
        imgs = rng.random((5, 4, 4))
        assert np.allclose(unflatten_images(flatten_images(imgs)), imgs)

    def test_single_image_promoted(self):
        out = flatten_images(np.zeros((4, 4)))
        assert out.shape == (1, 16)

    def test_row_major_order(self):
        img = np.arange(4.0).reshape(2, 2)
        assert flatten_images(img)[0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_4d_rejected(self):
        with pytest.raises(DimensionError):
            flatten_images(np.zeros((2, 2, 2, 2)))

    def test_unflatten_non_square_needs_shape(self):
        with pytest.raises(DimensionError, match="perfect square"):
            unflatten_images(np.ones((2, 8)))

    def test_unflatten_explicit_shape(self):
        out = unflatten_images(np.ones((2, 8)), shape=(2, 4))
        assert out.shape == (2, 2, 4)

    def test_unflatten_bad_shape(self):
        with pytest.raises(DimensionError, match="incompatible"):
            unflatten_images(np.ones((2, 8)), shape=(3, 3))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.just(3), st.just(3)),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    def test_property_roundtrip(self, imgs):
        assert np.array_equal(
            unflatten_images(flatten_images(imgs), (3, 3)), imgs
        )


class TestPaperThreshold:
    def test_snapping_rule(self):
        # Section IV-B: x <= 0.01 -> 0; x >= 0.99 -> 1; middle untouched.
        out = apply_paper_threshold(np.array([0.005, 0.01, 0.5, 0.99, 0.999]))
        assert out.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_custom_bounds(self):
        out = apply_paper_threshold(np.array([0.1, 0.5, 0.9]), low=0.2, high=0.8)
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_invalid_bounds(self):
        with pytest.raises(EncodingError):
            apply_paper_threshold(np.zeros(2), low=0.9, high=0.1)
        with pytest.raises(EncodingError):
            apply_paper_threshold(np.zeros(2), low=-0.1, high=0.5)

    def test_input_not_mutated(self):
        x = np.array([0.005])
        apply_paper_threshold(x)
        assert x[0] == 0.005

    @given(
        arrays(
            np.float64, 16, elements=st.floats(0, 1, allow_nan=False)
        )
    )
    def test_property_idempotent(self, x):
        once = apply_paper_threshold(x)
        assert np.array_equal(apply_paper_threshold(once), once)
