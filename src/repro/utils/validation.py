"""Array-validation helpers shared across subsystems.

These functions centralise the shape/dtype/sanity checks that the paper's
equations implicitly assume (power-of-two dimensions, finite values) and
raise the typed errors from :mod:`repro.exceptions` with actionable
messages.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError

__all__ = [
    "as_float_matrix",
    "check_power_of_two",
    "num_qubits_for",
]


def as_float_matrix(x: np.ndarray | list, name: str = "X") -> np.ndarray:
    """Coerce ``x`` to a contiguous 2-D float64 array, validating finiteness."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains NaN or Inf values")
    return arr


def check_power_of_two(n: int, name: str = "dimension") -> int:
    """Validate that ``n`` is a positive power of two and return it.

    Amplitude encoding (Eq. 1) maps ``N``-dimensional data onto
    ``ceil(log2 N)`` qubits; the quantum network itself operates on exactly
    ``N = 2**n`` modes, so network dimensions must be powers of two.
    """
    if not isinstance(n, (int, np.integer)):
        raise DimensionError(f"{name} must be an int, got {type(n).__name__}")
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise DimensionError(f"{name} must be a positive power of two, got {n}")
    return n


def num_qubits_for(dim: int) -> int:
    """Number of qubits needed for a ``dim``-dimensional amplitude vector.

    ``ceil(log2(dim))`` per Section II-A of the paper (e.g. 16-dimensional
    data requires 4 qubits).
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DimensionError(f"dim must be a positive int, got {dim!r}")
    return int(np.ceil(np.log2(int(dim)))) if dim > 1 else 0
