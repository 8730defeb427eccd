"""Tests for the exception hierarchy contract."""

import pytest

from repro import exceptions as exc


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in exc.__all__:
            cls = getattr(exc, name)
            assert issubclass(cls, exc.ReproError), name

    def test_value_error_family(self):
        """Validation errors double as ValueError so callers using plain
        ValueError handling keep working."""
        for cls in (
            exc.DimensionError,
            exc.EncodingError,
            exc.GateError,
            exc.ProjectionError,
            exc.NetworkConfigError,
            exc.DatasetError,
            exc.SerializationError,
            exc.BaselineError,
        ):
            assert issubclass(cls, ValueError), cls.__name__

    def test_runtime_error_family(self):
        for cls in (exc.TrainingError, exc.ExperimentError):
            assert issubclass(cls, RuntimeError), cls.__name__

    def test_gradient_is_training_error(self):
        assert issubclass(exc.GradientError, exc.TrainingError)
        assert issubclass(exc.OptimizerError, exc.TrainingError)

    def test_normalization_is_encoding_error(self):
        assert issubclass(exc.NormalizationError, exc.EncodingError)

    def test_single_catch_all(self):
        """One except clause suffices for any library failure."""
        with pytest.raises(exc.ReproError):
            from repro.network import Projection

            Projection(4, [])

    def test_docstrings_present(self):
        for name in exc.__all__:
            assert getattr(exc, name).__doc__, name
