"""Typed exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers embedding the library can catch a single base class.  Subclasses are
grouped by subsystem: encoding, simulation, network construction, training
and experiment orchestration.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DimensionError",
    "EncodingError",
    "NormalizationError",
    "GateError",
    "ProjectionError",
    "NetworkConfigError",
    "BackendError",
    "TrainingError",
    "GradientError",
    "OptimizerError",
    "DatasetError",
    "NoiseError",
    "SerializationError",
    "ServingError",
    "DeadlineExpired",
    "ProtocolError",
    "ExperimentError",
    "WorkerSpawnError",
    "BaselineError",
    "ImagingError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DimensionError(ReproError, ValueError):
    """An array has an incompatible shape or a dimension is invalid.

    Raised, e.g., when a state dimension is not a positive power of two, or
    when a batch of states does not match the network dimension.
    """


class EncodingError(ReproError, ValueError):
    """Classical data cannot be encoded into amplitudes (Eq. 1 of the paper)."""


class NormalizationError(EncodingError):
    """A state vector is not normalised (or cannot be normalised).

    The amplitude map of Eq. (1) divides by ``sqrt(sum(x**2))``; an all-zero
    sample (or a NaN/Inf contaminated one) has no valid amplitude vector.
    """


class GateError(ReproError, ValueError):
    """A quantum gate was constructed or applied with invalid arguments."""


class ProjectionError(ReproError, ValueError):
    """An invalid compression projection ``P1``/``P0`` was requested."""


class NetworkConfigError(ReproError, ValueError):
    """A quantum network was configured with invalid hyper-parameters."""


class BackendError(ReproError, ValueError):
    """An execution backend was misconfigured or requested by unknown name."""


class TrainingError(ReproError, RuntimeError):
    """Training failed (diverged, produced NaNs, or was misconfigured)."""


class GradientError(TrainingError):
    """A gradient evaluation failed or an unknown method was requested."""


class OptimizerError(TrainingError):
    """An optimizer received invalid hyper-parameters or state."""


class DatasetError(ReproError, ValueError):
    """A dataset is malformed (wrong dtype, empty, inconsistent shapes)."""


class NoiseError(ReproError, ValueError):
    """A hardware-noise model is invalid (bad field ranges, unknown preset,
    malformed JSON spec, or a noisy execution path was misconfigured)."""


class SerializationError(ReproError, ValueError):
    """Model or result (de)serialisation failed."""


class ServingError(ReproError, RuntimeError):
    """An inference session or micro-batcher was misused (closed, invalid
    request shape, or a request that cannot be amplitude-encoded)."""


class DeadlineExpired(ServingError):
    """A queued request's deadline passed before its tick was served.

    Raised *through the request's future*, never at submit time: the
    batcher drops expired work at drain time so it cannot waste a tick.
    """


class ProtocolError(ServingError):
    """A serving wire frame is malformed (bad magic/version/dtype, an
    oversized payload, or a truncated stream)."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness was misconfigured or failed to run."""


class WorkerSpawnError(ReproError, RuntimeError):
    """A worker pool cannot start: its workers would re-import the main
    module from a file that does not exist (a ``python -`` script)."""


class BaselineError(ReproError, ValueError):
    """A classical baseline (CSC/OMP/PCA) received invalid arguments."""


class ImagingError(ReproError, ValueError):
    """The tiled image pipeline (``repro.imaging``) received invalid
    arguments or a malformed ``CompressedImage`` byte stream."""
