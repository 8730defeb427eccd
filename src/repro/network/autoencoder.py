"""The assembled compression/reconstruction pipeline (Eqs. 3-4, Fig. 1).

- :class:`CompressionNetwork` — ``|Phi_i> = P1 U_C |psi_i>`` (Eq. 3);
- :class:`ReconstructionNetwork` — ``|Psi_i> = U_R |Phi_i>`` (Eq. 4);
- :class:`QuantumAutoencoder` — the end-to-end classical-in/classical-out
  pipeline of Fig. 1: encode (step 1), compress (step 2), reconstruct
  (step 3), decode (step 4).

Note the projected state ``P1 U_C |psi>`` is *sub-normalised* whenever the
compression is imperfect; the paper feeds it to ``U_R`` as-is (Eq. 4 applies
``U_R P1 U_C`` directly), and so do we by default.  ``renormalize=True``
models the physical post-selection alternative (conditioning on the photon
being found in the kept modes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.encoding.amplitude import AmplitudeCodec, EncodedBatch, decode_batch
from repro.exceptions import DimensionError, NetworkConfigError
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.simulator.state import StateBatch
from repro.utils.validation import check_power_of_two

__all__ = [
    "CompressionNetwork",
    "ReconstructionNetwork",
    "QuantumAutoencoder",
    "AutoencoderOutput",
    "renormalization_norms",
]


def renormalization_norms(
    columns: np.ndarray, error_cls: type = NetworkConfigError
) -> np.ndarray:
    """Column norms for post-selection renormalisation, guarded.

    The single source of the near-zero cutoff, shared by the eager
    pipeline and the compiled serving path
    (:class:`repro.api.InferenceSession`) so the two can never diverge
    on which samples are renormalisable; callers pass their own error
    class.
    """
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms < 1e-12):
        raise error_cls(
            "a sample has (near-)zero amplitude in the kept subspace; "
            "cannot renormalise"
        )
    return norms


class CompressionNetwork:
    """``U_C`` followed by the compression projection ``P1`` (Eq. 3).

    Examples
    --------
    >>> import numpy as np
    >>> net = QuantumNetwork(dim=4, num_layers=2).initialize("uniform", rng=np.random.default_rng(0))
    >>> comp = CompressionNetwork(net, Projection.last(4, 2))
    >>> batch = np.eye(4)[:, :3]  # three basis states
    >>> comp.compress(batch).shape
    (4, 3)
    """

    def __init__(self, network: QuantumNetwork, projection: Projection) -> None:
        if network.dim != projection.dim:
            raise NetworkConfigError(
                f"network dim {network.dim} != projection dim {projection.dim}"
            )
        self.network = network
        self.projection = projection

    @property
    def dim(self) -> int:
        return self.network.dim

    @property
    def compressed_dim(self) -> int:
        return self.projection.compressed_dim

    def compress(
        self, data: np.ndarray | StateBatch, renormalize: bool = False
    ) -> np.ndarray:
        """``P1 U_C @ data`` — the (generally sub-normalised) ``|Phi>``.

        With ``renormalize=True`` each column is rescaled to unit norm,
        modelling post-selection on the kept modes.
        """
        arr = data.data if isinstance(data, StateBatch) else np.asarray(data)
        out = self.network.forward(arr)
        self.projection.apply_inplace(out)
        if renormalize:
            out /= renormalization_norms(out)
        return out

    def compact_codes(self, data: np.ndarray | StateBatch) -> np.ndarray:
        """The ``(d, M)`` compressed representation (the 'compressed image')."""
        return self.projection.restrict(self.compress(data))

    def retained_probability(
        self, data: np.ndarray | StateBatch
    ) -> np.ndarray:
        """Per-sample probability mass surviving the projection.

        1 - this value is the paper's compression information loss.
        """
        arr = data.data if isinstance(data, StateBatch) else np.asarray(data)
        out = self.network.forward(arr)
        return self.projection.retained_probability(out)


class ReconstructionNetwork:
    """``U_R`` acting on compressed states (Eq. 4)."""

    def __init__(self, network: QuantumNetwork) -> None:
        self.network = network

    @property
    def dim(self) -> int:
        return self.network.dim

    def reconstruct(self, compressed: np.ndarray) -> np.ndarray:
        """``U_R @ compressed`` — output amplitudes ``B`` (columns)."""
        arr = np.asarray(compressed)
        if arr.ndim != 2 or arr.shape[0] != self.dim:
            raise DimensionError(
                f"expected ({self.dim}, M) compressed batch, got {arr.shape}"
            )
        return self.network.forward(arr)


@dataclass
class AutoencoderOutput:
    """Every intermediate artefact of one end-to-end pass (Fig. 1).

    Attributes
    ----------
    encoded:
        The amplitude-encoded inputs (states + retained norms).
    compressed:
        ``(N, M)`` projected states ``P1 U_C A`` (sub-normalised columns;
        unit columns when the pipeline renormalises).
    compact_codes:
        ``(d, M)`` kept amplitudes — the compressed image data.
    output_amplitudes:
        ``(N, M)`` reconstruction-network outputs ``B``.
    x_hat:
        ``(M, N)`` decoded classical reconstruction (Eq. 2).
    retained_probability:
        ``(M,)`` per-sample probability mass kept by ``P1`` (1 - the
        paper's compression information loss).  Always measured *before*
        any renormalisation — a ``renormalize=True`` pipeline still
        reports its true compression loss here.
    """

    encoded: EncodedBatch
    compressed: np.ndarray
    compact_codes: np.ndarray
    output_amplitudes: np.ndarray
    x_hat: np.ndarray
    retained_probability: np.ndarray


class QuantumAutoencoder:
    """End-to-end pipeline: encode -> ``U_C`` -> ``P1`` -> ``U_R`` -> decode.

    Parameters
    ----------
    dim:
        Data dimension ``N`` (power of two).
    compressed_dim:
        Kept subspace size ``d``.
    compression_layers, reconstruction_layers:
        ``l_C`` and ``l_R`` (the paper uses 12 and 14 for ``N = 16``).
    projection:
        Optional explicit ``P1``; defaults to :meth:`Projection.last`.
    allow_phase:
        Enable the complex (trainable ``alpha``) extension.
    backend:
        Execution backend for both networks (``"loop"``, ``"fused"``,
        ``"sharded"``/``"sharded:K"`` — see :mod:`repro.backends`);
        switchable later via :meth:`set_backend`.  ``U_R`` always runs a
        :meth:`~repro.backends.Backend.spawn` of ``U_C``'s backend, so
        backends with shared resources (the sharded worker pool) serve
        both networks from one instance of those resources.
    renormalize:
        If True, :meth:`forward` renormalises the projected state to unit
        norm (physical post-selection on the kept modes) before ``U_R``;
        the paper's Eq. 4 default feeds the sub-normalised state as-is.

    Examples
    --------
    >>> import numpy as np
    >>> ae = QuantumAutoencoder(dim=4, compressed_dim=2,
    ...                         compression_layers=2, reconstruction_layers=2)
    >>> X = np.abs(np.random.default_rng(1).normal(size=(5, 4))) + 0.1
    >>> out = ae.forward(X)
    >>> out.x_hat.shape
    (5, 4)
    """

    def __init__(
        self,
        dim: int,
        compressed_dim: int,
        compression_layers: int,
        reconstruction_layers: int,
        projection: Optional[Projection] = None,
        allow_phase: bool = False,
        backend: str = "loop",
        renormalize: bool = False,
    ) -> None:
        dim = check_power_of_two(dim, name="dim")
        if projection is None:
            projection = Projection.last(dim, compressed_dim)
        elif projection.compressed_dim != compressed_dim:
            raise NetworkConfigError(
                f"projection keeps {projection.compressed_dim} dims but "
                f"compressed_dim={compressed_dim}"
            )
        self.codec = AmplitudeCodec(dim)
        # One resolved instance for U_C, a spawn for U_R: spawns share
        # heavyweight backend state (the sharded backend's worker pool)
        # instead of duplicating it per network.
        from repro.backends import make_backend

        uc_backend = make_backend(backend)
        self.uc = QuantumNetwork(
            dim,
            compression_layers,
            descending=False,
            allow_phase=allow_phase,
            backend=uc_backend,
        )
        self.ur = QuantumNetwork(
            dim,
            reconstruction_layers,
            descending=True,
            allow_phase=allow_phase,
            backend=uc_backend.spawn(),
        )
        self.compression = CompressionNetwork(self.uc, projection)
        self.reconstruction = ReconstructionNetwork(self.ur)
        self.renormalize = bool(renormalize)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.codec.dim

    @property
    def backend_name(self) -> str:
        """Name of the execution backend bound to both networks."""
        return self.uc.backend.name

    def set_backend(self, backend: str) -> "QuantumAutoencoder":
        """Swap the execution backend of both ``U_C`` and ``U_R``.

        As at construction, ``U_R`` receives a spawn of the instance
        bound to ``U_C`` so shared backend resources (worker pools) are
        built once.
        """
        from repro.backends import make_backend

        uc_backend = make_backend(backend)
        self.uc.set_backend(uc_backend)
        self.ur.set_backend(uc_backend.spawn())
        return self

    @property
    def projection(self) -> Projection:
        return self.compression.projection

    @property
    def compressed_dim(self) -> int:
        return self.projection.compressed_dim

    @property
    def num_parameters(self) -> int:
        return self.uc.num_parameters + self.ur.num_parameters

    def initialize(
        self,
        method: str = "uniform",
        rng: Optional[np.random.Generator] = None,
        **kwargs: float,
    ) -> "QuantumAutoencoder":
        """Initialise both networks (one shared RNG stream, in order)."""
        from repro.utils.rng import ensure_rng

        gen = ensure_rng(rng)
        self.uc.initialize(method, rng=gen, **kwargs)
        self.ur.initialize(method, rng=gen, **kwargs)
        return self

    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray) -> AutoencoderOutput:
        """Run the full Fig.-1 pipeline on classical data ``X`` (``(M, N)``)."""
        encoded = self.codec.encode(X)
        return self.forward_encoded(encoded)

    def forward_encoded(self, encoded: EncodedBatch) -> AutoencoderOutput:
        """Run the pipeline on an already-encoded batch."""
        if encoded.dim != self.dim:
            raise DimensionError(
                f"encoded dim {encoded.dim} != autoencoder dim {self.dim}"
            )
        compressed = self.compression.compress(encoded.states)
        # Retained mass is a property of the *projection*, measured before
        # any renormalisation (which would trivially report 1).
        if self.renormalize:
            norms = renormalization_norms(compressed)
            retained = norms**2
            compressed /= norms
        else:
            retained = np.linalg.norm(compressed, axis=0) ** 2
        codes = self.projection.restrict(compressed)
        b = self.reconstruction.reconstruct(compressed)
        x_hat = decode_batch(b, encoded.squared_norms)
        return AutoencoderOutput(
            encoded=encoded,
            compressed=compressed,
            compact_codes=codes,
            output_amplitudes=b,
            x_hat=x_hat,
            retained_probability=retained,
        )

    def reconstruct_from_codes(
        self, codes: np.ndarray, squared_norms: np.ndarray
    ) -> np.ndarray:
        """Decode stored ``(d, M)`` compressed codes back to classical data.

        This is the receiver side of the paper's transmission scenario: only
        the ``d`` amplitudes and the scalar norm travel per image.
        """
        compressed = self.projection.embed(np.asarray(codes))
        b = self.reconstruction.reconstruct(compressed)
        return decode_batch(b, np.asarray(squared_norms))

    def compression_ratio(self) -> float:
        """Classical-payload ratio ``d / N`` (excluding the norm scalar)."""
        return self.compressed_dim / self.dim

    def __repr__(self) -> str:
        return (
            f"QuantumAutoencoder(dim={self.dim}, d={self.compressed_dim}, "
            f"lC={self.uc.num_layers}, lR={self.ur.num_layers})"
        )
