"""Tests for repro.training.callbacks."""

import pytest

from repro.exceptions import TrainingError
from repro.training.callbacks import NaNGuard


class TestNaNGuard:
    def test_passes_finite(self):
        assert not NaNGuard().on_iteration_end(0, {"loss_c": 1.0, "loss_r": 2.0})

    def test_raises_on_nan(self):
        with pytest.raises(TrainingError, match="non-finite"):
            NaNGuard().on_iteration_end(3, {"loss_c": float("nan")})

    def test_raises_on_inf(self):
        with pytest.raises(TrainingError):
            NaNGuard().on_iteration_end(0, {"loss_r": float("inf")})

    def test_ignores_missing_keys(self):
        assert not NaNGuard().on_iteration_end(0, {"accuracy": 50.0})
