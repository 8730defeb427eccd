"""Tests for repro.training.metrics (Eq. 10 and friends)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import DimensionError
from repro.training.metrics import (
    mse,
    paper_accuracy,
    pixel_accuracy,
    psnr,
    ssim,
)


class TestPixelAccuracy:
    def test_eq10_tolerance(self):
        # |x_hat - x| <= 0.01 counts as similar.
        x = np.array([0.0, 1.0, 0.5, 0.2])
        x_hat = np.array([0.005, 0.995, 0.492, 0.3])
        assert pixel_accuracy(x_hat, x) == pytest.approx(75.0)

    def test_perfect_is_100(self, rng):
        x = rng.random((5, 16))
        assert pixel_accuracy(x, x.copy()) == 100.0

    def test_boundary_inclusive(self):
        assert pixel_accuracy(np.array([0.01]), np.array([0.0])) == 100.0

    def test_negative_tol_rejected(self):
        with pytest.raises(DimensionError):
            pixel_accuracy(np.zeros(2), np.zeros(2), tol=-0.1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pixel_accuracy(np.zeros(2), np.zeros(3))

    @given(
        arrays(np.float64, 16, elements=st.floats(0, 1, allow_nan=False))
    )
    def test_property_bounds(self, x):
        acc = pixel_accuracy(x, np.zeros(16))
        assert 0.0 <= acc <= 100.0


class TestPaperAccuracy:
    def test_threshold_rescues_near_binary(self):
        x = np.array([0.0, 1.0])
        x_hat = np.array([0.005, 0.995])  # within the snap bands
        # raw tolerance 0.01 already passes 0.005; snapping makes it exact
        assert paper_accuracy(x_hat, x) == 100.0

    def test_mid_values_not_rescued(self):
        x = np.array([0.0])
        x_hat = np.array([0.3])
        assert paper_accuracy(x_hat, x) == 0.0

    def test_snapping_can_beat_raw(self):
        # At tol=0.001 a value inside the snap band passes only after
        # snapping (with the paper's tol=0.01 the bands coincide with the
        # tolerance, so snapping is a no-op there).
        x = np.array([1.0])
        x_hat = np.array([0.995])
        assert pixel_accuracy(x_hat, x, tol=0.001) == 0.0
        assert paper_accuracy(x_hat, x, tol=0.001) == 100.0


class TestSignalMetrics:
    def test_mse_zero_for_match(self, rng):
        x = rng.random((3, 3))
        assert mse(x, x.copy()) == 0.0

    def test_psnr_infinite_for_match(self):
        assert psnr(np.ones(4), np.ones(4)) == float("inf")

    def test_psnr_known_value(self):
        x = np.zeros(4)
        x_hat = np.full(4, 0.1)
        assert psnr(x_hat, x) == pytest.approx(20.0)  # 10*log10(1/0.01)

    def test_psnr_invalid_range(self):
        with pytest.raises(DimensionError):
            psnr(np.ones(2), np.ones(2), data_range=0.0)

    def test_ssim_identity_is_one(self, rng):
        x = rng.random((4, 4))
        assert ssim(x, x.copy()) == pytest.approx(1.0)

    def test_ssim_inverted_is_low(self):
        x = np.zeros((4, 4))
        x[:2] = 1.0
        assert ssim(1.0 - x, x) < 0.2

    def test_ssim_bounded(self, rng):
        a, b = rng.random((4, 4)), rng.random((4, 4))
        assert -1.0 <= ssim(a, b) <= 1.0
