"""Amplitude encoding and decoding (Eqs. 1 and 2 of the paper).

Encoding (Eq. 1) maps the ``j``-th entry of the ``i``-th classical sample to
the probability amplitude of the ``j``-th computational basis state:

.. math::

    A_i^j = \\frac{x_i^j}{\\sqrt{\\sum_{j=0}^{N-1} (x_i^j)^2}}

Decoding (Eq. 2) recovers classical data from the measured output
probabilities ``|B_i^j|^2`` using the retained input norm:

.. math::

    \\hat{x}_i^j = \\sqrt{|B_i^j|^2 \\cdot \\sum_{j=0}^{N-1} (x_i^j)^2}

The squared norm of each input sample is *classical side information*: it
never enters the quantum state (which is unit-norm by construction) and must
be carried alongside.  :class:`EncodedBatch` bundles the state batch with
these norms so the pair cannot be separated accidentally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionError, EncodingError, NormalizationError
from repro.simulator.state import StateBatch
from repro.utils.validation import (
    as_float_matrix,
    check_power_of_two,
    num_qubits_for,
)

__all__ = [
    "AmplitudeCodec",
    "EncodedBatch",
    "encode_batch",
    "decode_batch",
]

_ZERO_NORM_ATOL = 1e-300


@dataclass(frozen=True)
class EncodedBatch:
    """A batch of amplitude-encoded states plus their classical norms.

    Attributes
    ----------
    states:
        :class:`StateBatch` of shape ``(N, M)`` — unit-norm columns.
    squared_norms:
        ``(M,)`` array of ``sum_j x_j^2`` per sample (Eq. 2's side channel).
    """

    states: StateBatch
    squared_norms: np.ndarray

    def __post_init__(self) -> None:
        if self.squared_norms.ndim != 1:
            raise DimensionError("squared_norms must be 1-D")
        if self.squared_norms.size != self.states.num_states:
            raise DimensionError(
                f"{self.squared_norms.size} norms for "
                f"{self.states.num_states} states"
            )
        if np.any(self.squared_norms <= 0):
            raise NormalizationError("squared norms must be positive")

    @property
    def dim(self) -> int:
        return self.states.dim

    @property
    def num_samples(self) -> int:
        return self.states.num_states

    def amplitudes(self) -> np.ndarray:
        """The ``(N, M)`` amplitude matrix ``A`` (read-only semantics)."""
        return self.states.data


def encode_batch(
    X: np.ndarray | list, pad_to_power_of_two: bool = False
) -> EncodedBatch:
    """Encode an ``(M, N)`` classical data matrix (row = sample) per Eq. (1).

    The output state batch stores states column-wise (``(N, M)``), the
    layout expected by the network kernels.
    """
    mat = as_float_matrix(X, name="X")
    if pad_to_power_of_two:
        target = 2 ** num_qubits_for(mat.shape[1])
        if target != mat.shape[1]:
            mat = np.hstack(
                [mat, np.zeros((mat.shape[0], target - mat.shape[1]))]
            )
    else:
        check_power_of_two(mat.shape[1], name="X.shape[1]")
    sq = np.einsum("mn,mn->m", mat, mat)
    if not np.isfinite(sq).all():
        bad = int(np.flatnonzero(~np.isfinite(sq))[0])
        raise NormalizationError(
            f"sample {bad} has a squared norm that overflows float64 and "
            "cannot be amplitude-encoded"
        )
    if np.any(sq <= _ZERO_NORM_ATOL):
        bad = int(np.argmin(sq))
        raise NormalizationError(
            f"sample {bad} is all-zero and cannot be amplitude-encoded"
        )
    amps = (mat / np.sqrt(sq)[:, None]).T  # -> (N, M) columns
    return EncodedBatch(
        states=StateBatch(np.ascontiguousarray(amps), normalize=False),
        squared_norms=sq,
    )


def decode_batch(
    amplitudes: np.ndarray | StateBatch, squared_norms: np.ndarray
) -> np.ndarray:
    """Decode a batch of output states into an ``(M, N)`` classical matrix.

    Parameters
    ----------
    amplitudes:
        ``(N, M)`` amplitude matrix (or a :class:`StateBatch`).
    squared_norms:
        ``(M,)`` retained squared input norms.
    """
    data = amplitudes.data if isinstance(amplitudes, StateBatch) else np.asarray(amplitudes)
    if data.ndim != 2:
        raise DimensionError(f"amplitudes must be 2-D, got shape {data.shape}")
    sq = np.asarray(squared_norms, dtype=np.float64).ravel()
    if sq.size != data.shape[1]:
        raise DimensionError(
            f"{sq.size} norms for {data.shape[1]} states"
        )
    if np.any(sq <= 0) or not np.all(np.isfinite(sq)):
        raise EncodingError("squared_norms must be positive and finite")
    return (np.abs(data) * np.sqrt(sq)[None, :]).T


class AmplitudeCodec:
    """Stateful encode/decode pair bound to a fixed data dimension.

    Convenience wrapper used by the autoencoder pipeline: ``encode`` an
    ``(M, N)`` matrix, push states through the network, then ``decode``
    with the norms remembered from the matching encode call.

    Examples
    --------
    >>> import numpy as np
    >>> codec = AmplitudeCodec(dim=4)
    >>> enc = codec.encode(np.array([[1.0, 0.0, 1.0, 0.0]]))
    >>> codec.decode(enc.states.data, enc.squared_norms).round(6)
    array([[1., 0., 1., 0.]])
    """

    def __init__(self, dim: int) -> None:
        self.dim = check_power_of_two(dim, name="dim")

    @property
    def num_qubits(self) -> int:
        return num_qubits_for(self.dim)

    def encode(self, X: np.ndarray) -> EncodedBatch:
        mat = as_float_matrix(X, name="X")
        if mat.shape[1] != self.dim:
            raise DimensionError(
                f"codec is bound to dim {self.dim}, got data of width "
                f"{mat.shape[1]}"
            )
        return encode_batch(mat)

    def decode(
        self, amplitudes: np.ndarray | StateBatch, squared_norms: np.ndarray
    ) -> np.ndarray:
        out = decode_batch(amplitudes, squared_norms)
        if out.shape[1] != self.dim:
            raise DimensionError(
                f"decoded width {out.shape[1]} != codec dim {self.dim}"
            )
        return out

    def roundtrip(self, X: np.ndarray) -> np.ndarray:
        """Encode then immediately decode (identity up to |.| for x >= 0)."""
        enc = self.encode(X)
        return self.decode(enc.states.data, enc.squared_norms)
