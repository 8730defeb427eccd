""":class:`InferenceSession` — an immutable, precompiled serving artifact.

Training mutates parameters every iteration, so the execution stack is
built around cache *invalidation*.  Serving is the opposite regime: the
parameters are frozen, so the whole pipeline ``decode ∘ U_R P1 U_C ∘
encode`` (Eqs. 1-4) can be folded **once** into dense operators by the
closed-form mesh fold (:mod:`repro.backends.fold`) and every served batch
becomes a single GEMM:

- ``encode_op = U_C[keep, :]``           (``d x N``) — amplitudes to codes;
- ``decode_op = U_R[:, keep]``           (``N x d``) — codes to outputs;
- ``pipeline_op = decode_op @ encode_op``  (``N x N``) — the full pass,
  exploiting that ``P1 U_C`` has exact zeros in the discarded rows.

The session snapshots the network at construction: later parameter
updates (continued training, ``set_flat_params``) do **not** leak into a
live session — rebuild one per deployed model version.  Oversized ticks
stream through :func:`repro.parallel.batch.chunked_apply` so a burst of
requests never materialises more than one ``(N, chunk_size)`` block —
or, when a :class:`~repro.parallel.pool.WorkerPool` is attached,
*scatter* to column shards that the worker processes compute
concurrently (the operators ship to the workers once per pool, so a
serving loop pays only the batch transfer per tick).

Each public entry point validates its input **once**, at the boundary
(:func:`_sample_rows` for classical data, :meth:`InferenceSession.decompress`
for wire payloads); past it the tick runs on plain ``float64`` arrays:
Eq. 1 is one division by the row norms, Eq. 2 one product with them, and
the operator is a single ``np.matmul``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.api.codec import CompressedBatch
from repro.backends.fold import fold, mesh_layers
from repro.encoding.amplitude import _ZERO_NORM_ATOL
from repro.exceptions import (
    DimensionError,
    EncodingError,
    NormalizationError,
    ServingError,
)
from repro.network.autoencoder import (
    QuantumAutoencoder,
    renormalization_norms,
)
from repro.parallel.batch import chunked_apply

__all__ = ["InferenceSession"]


def _sample_rows(X, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """The serving boundary for classical data: validate ``X`` once.

    Returns the ``(M, dim)`` C-contiguous ``float64`` sample matrix (1-D
    input is one row) and its ``(M,)`` squared norms — Eq. 2's side
    channel.  The finiteness and zero-norm decisions are made on the norm
    vector alone: a NaN/Inf entry, or a row whose ``sum x^2`` overflows,
    makes its norm non-finite.  The matrix itself is read again only to
    word the error.
    """
    mat = np.ascontiguousarray(X, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise DimensionError(f"X must be 2-D, got shape {mat.shape}")
    if mat.shape[1] != dim:
        raise DimensionError(
            f"session is bound to dim {dim}, got data of width "
            f"{mat.shape[1]}"
        )
    if mat.shape[0] == 0:
        raise DimensionError("X must be non-empty")
    sq = np.einsum("mn,mn->m", mat, mat)
    if not (sq.min() > _ZERO_NORM_ATOL and sq.max() < np.inf):
        if not np.isfinite(mat).all():
            raise DimensionError("X contains NaN or Inf values")
        overflow = np.flatnonzero(sq == np.inf)
        if overflow.size:
            raise NormalizationError(
                f"sample {overflow[0]} has a squared norm that overflows "
                "float64 and cannot be amplitude-encoded"
            )
        raise NormalizationError(
            f"sample {int(np.argmin(sq))} is all-zero and cannot be "
            "amplitude-encoded"
        )
    return mat, sq


def _encode(mat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Eq. 1 on validated rows: the ``(N, M)`` unit-norm amplitude columns.

    C-contiguous like :func:`~repro.encoding.amplitude.encode_batch`'s: a
    transposed F-order operand changes the GEMM's BLAS blocking and so the
    last bits of the result.
    """
    return np.ascontiguousarray((mat / norms[:, None]).T)


def _decode(amplitudes: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Eq. 2 on validated norms: ``(N, M)`` output amplitudes -> ``(M, N)``."""
    return (np.abs(amplitudes) * norms[None, :]).T


class InferenceSession:
    """One model version compiled for heavy-traffic inference.

    Parameters
    ----------
    autoencoder:
        The (typically trained) pipeline to freeze.  Its parameters are
        folded into dense operators immediately; the session holds no
        reference that later mutation can reach.
    max_batch_size, flush_latency:
        Forwarded to the request
        :class:`~repro.api.batcher.MicroBatcher` behind :meth:`submit`.
    chunk_size:
        Column-chunk bound for oversized batches (memory ceiling, not a
        truncation — every sample is always served).
    pool:
        Optional :class:`~repro.parallel.pool.WorkerPool`.  When
        attached, ticks wider than ``chunk_size`` scatter their column
        shards across the pool's worker processes instead of streaming
        through in-process chunks; narrower ticks stay in-process.  The
        pool is borrowed, not owned — the caller controls its lifecycle
        (it may be shared with a ``sharded`` execution backend).
    noise, noise_trajectories, noise_seed:
        Optional hardware-noise emulation (anything
        :meth:`repro.noise.NoiseModel.from_spec` accepts).  When set,
        ``noise_trajectories`` frozen mesh realizations are folded into
        dense operator pairs **at construction** (seeded by
        ``noise_seed``) and :meth:`reconstruct` / :meth:`decompress`
        average the exact channel probabilities over them, decoding
        ``sqrt(p)`` magnitudes; finite ``shots`` draw from a session-held
        measurement stream.  :meth:`compress` stays clean — the wire
        payload is what an ideal transmitter would send, the noise lives
        in the optical pipeline being emulated.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.autoencoder import QuantumAutoencoder
    >>> ae = QuantumAutoencoder(4, 2, 2, 2).initialize(rng=np.random.default_rng(0))
    >>> session = InferenceSession(ae)
    >>> X = np.abs(np.random.default_rng(1).normal(size=(5, 4))) + 0.1
    >>> bool(np.allclose(session.reconstruct(X), ae.forward(X).x_hat))
    True
    """

    def __init__(
        self,
        autoencoder: QuantumAutoencoder,
        max_batch_size: int = 64,
        flush_latency: Optional[float] = 0.005,
        chunk_size: int = 4096,
        pool=None,
        noise=None,
        noise_trajectories: int = 8,
        noise_seed: int = 0,
    ) -> None:
        if chunk_size < 1:
            raise ServingError(f"chunk_size must be >= 1, got {chunk_size}")
        self._pool = pool
        self._dim = autoencoder.dim
        self._compressed_dim = autoencoder.compressed_dim
        self._renormalize = autoencoder.renormalize
        self._keep = autoencoder.projection.keep.copy()
        self._chunk_size = int(chunk_size)
        # The live networks' dense unitaries, folded directly from their
        # parameters whatever backend they run on.
        uc, ur = autoencoder.uc, autoencoder.ur
        uc_u = fold(mesh_layers(uc, uc.get_flat_params()).layers)
        ur_u = fold(mesh_layers(ur, ur.get_flat_params()).layers)
        self._encode_op = np.ascontiguousarray(uc_u[self._keep, :])
        self._decode_op = np.ascontiguousarray(ur_u[:, self._keep])
        self._pipeline_op = self._decode_op @ self._encode_op
        for op in (self._encode_op, self._decode_op, self._pipeline_op):
            op.flags.writeable = False
        self._compile_noise(autoencoder, noise, noise_trajectories, noise_seed)
        self._closed = False
        # Eager, not lazy: a racy first-submit check-then-set could build
        # two batchers and strand one thread's request forever.
        from repro.api.batcher import MicroBatcher

        self._batcher = MicroBatcher(
            self,
            max_batch_size=max_batch_size,
            flush_latency=flush_latency,
        )

    def _compile_noise(
        self, autoencoder, noise, noise_trajectories, noise_seed
    ) -> None:
        """Fold the frozen noise realizations into dense operator pairs."""
        from repro.noise.model import NoiseModel

        self._noise = NoiseModel.from_spec(noise)
        self._noise_trajectories = int(noise_trajectories)
        self._noise_seed = int(noise_seed)
        self._noisy_encode_ops = []
        self._noisy_decode_mats = []
        self._shots_rng = None
        if self._noise is None:
            return
        if self._noise_trajectories < 1:
            raise ServingError(
                f"noise_trajectories must be >= 1, got {noise_trajectories}"
            )
        if self._renormalize:
            raise ServingError(
                "noisy serving supports the paper's renormalize=False "
                "regime (renormalization would silently cancel loss)"
            )
        from repro.noise.trajectory import (
            STREAM_MEASURE,
            STREAM_UC,
            STREAM_UR,
            realization_rng,
            sample_mesh_matrices,
        )

        uc_params = np.asarray(
            autoencoder.uc.get_flat_params(), dtype=np.float64
        )
        ur_params = np.asarray(
            autoencoder.ur.get_flat_params(), dtype=np.float64
        )
        # With no angle jitter every realization is the same deterministic
        # sub-unitary fold — one pair suffices.
        count = (
            self._noise_trajectories if self._noise.theta_sigma > 0.0 else 1
        )
        seed = self._noise_seed
        uc_mats = sample_mesh_matrices(
            autoencoder.uc,
            uc_params,
            self._noise,
            [realization_rng(seed, 0, r, STREAM_UC) for r in range(count)],
        )
        ur_mats = sample_mesh_matrices(
            autoencoder.ur,
            ur_params,
            self._noise,
            [realization_rng(seed, 0, r, STREAM_UR) for r in range(count)],
        )
        for uc_r, ur_r in zip(uc_mats, ur_mats):
            enc = np.ascontiguousarray(uc_r[self._keep, :])
            enc.flags.writeable = False
            ur_r.flags.writeable = False
            self._noisy_encode_ops.append(enc)
            self._noisy_decode_mats.append(ur_r)
        self._shots_rng = realization_rng(
            self._noise_seed, 0, 0, STREAM_MEASURE
        )

    @classmethod
    def from_codec(cls, codec, **kwargs) -> "InferenceSession":
        """Compile a :class:`~repro.api.codec.Codec`'s current parameters."""
        return cls(codec.autoencoder, **kwargs)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def compressed_dim(self) -> int:
        return self._compressed_dim

    @property
    def renormalize(self) -> bool:
        return self._renormalize

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    @property
    def pool(self):
        """The attached :class:`WorkerPool`, or ``None`` (in-process)."""
        return self._pool

    @property
    def noise(self):
        """The :class:`~repro.noise.NoiseModel` emulated, or ``None``."""
        return self._noise

    @property
    def noise_trajectories(self) -> int:
        """Frozen mesh realizations averaged per noisy pass."""
        return self._noise_trajectories

    def pipeline_operator(self) -> np.ndarray:
        """The folded ``U_R P1 U_C`` matrix (a copy; inspection only)."""
        return self._pipeline_op.copy()

    # ------------------------------------------------------------------
    # batch serving
    # ------------------------------------------------------------------
    def _apply(self, op: np.ndarray, batch: np.ndarray) -> np.ndarray:
        # A tick that fits one chunk is one matmul on the validated batch;
        # oversized ticks scatter across the attached worker pool or
        # stream through chunked_apply in-process.
        if batch.shape[1] <= self._chunk_size:
            return np.matmul(op, batch)
        if self._pool is not None:
            return self._pool.apply_dense(op, batch)
        return chunked_apply(op, batch, chunk_size=self._chunk_size)

    def _code_norms(self, codes: np.ndarray) -> np.ndarray:
        # Same guard (and cutoff) as the eager CompressionNetwork path.
        return renormalization_norms(codes, ServingError)

    def _noisy_amplitudes(self, phi_batches) -> np.ndarray:
        """Average exact channel probabilities over the frozen realizations.

        ``phi_batches`` yields one full-space ``(N, M)`` compressed state
        per realization (paired in order with ``_noisy_decode_mats``);
        returns the ``sqrt(p)`` magnitude amplitudes after the optional
        finite-shot measurement of the averaged distribution.
        """
        from repro.noise.trajectory import (
            channel_probabilities,
            measure_probabilities,
        )

        probs = None
        for ur, phi in zip(self._noisy_decode_mats, phi_batches):
            p, _ = channel_probabilities(ur, phi, self._noise)
            probs = p if probs is None else probs + p
        probs /= len(self._noisy_decode_mats)
        probs = measure_probabilities(probs, self._noise.shots, self._shots_rng)
        return np.sqrt(np.clip(probs, 0.0, None))

    def _embed_codes(self, codes: np.ndarray) -> np.ndarray:
        phi = np.zeros((self._dim, codes.shape[1]), dtype=np.float64)
        phi[self._keep, :] = codes
        return phi

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Serve one ``(M, N)`` tick: encode, one GEMM, decode.

        Matches the eager ``QuantumAutoencoder.forward(X).x_hat`` to
        rounding (``<= 1e-10``; the reassociated GEMM vs the per-gate
        kernels).  Under a session ``noise`` model the tick instead
        averages the exact channel probabilities over the frozen noisy
        realizations of *both* meshes and decodes ``sqrt(p)`` magnitudes.
        """
        mat, sq = _sample_rows(X, self._dim)
        norms = np.sqrt(sq)
        amps = _encode(mat, norms)
        if self._noise is not None:
            b = self._noisy_amplitudes(
                self._embed_codes(enc @ amps) for enc in self._noisy_encode_ops
            )
        elif self._renormalize:
            codes = self._apply(self._encode_op, amps)
            b = self._apply(self._decode_op, codes / self._code_norms(codes))
        else:
            b = self._apply(self._pipeline_op, amps)
        return _decode(b, norms)

    def compress(self, X: np.ndarray) -> CompressedBatch:
        """The ``(d, M)`` wire payload via the precompiled encode operator."""
        mat, sq = _sample_rows(X, self._dim)
        codes = self._apply(self._encode_op, _encode(mat, np.sqrt(sq)))
        if self._renormalize:
            codes = codes / self._code_norms(codes)
        return CompressedBatch(codes=codes, squared_norms=sq)

    def decompress(
        self,
        compressed: Union[CompressedBatch, np.ndarray],
        squared_norms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reconstruct classical data from codes (receiver side).

        The payload is validated once here: ``(d, M)`` numeric, finite
        codes (:class:`DimensionError` otherwise) and positive, finite
        norms (:class:`EncodingError` otherwise, as Eq. 2 takes their
        square root).
        """
        payload = CompressedBatch.coerce(compressed, squared_norms)
        codes, sq = payload.codes, payload.squared_norms
        if payload.compressed_dim != self._compressed_dim:
            raise DimensionError(
                f"expected ({self._compressed_dim}, M) codes, got "
                f"{codes.shape}"
            )
        if codes.dtype.kind not in "biufc":
            raise DimensionError(
                f"codes must be numeric, got dtype {codes.dtype}"
            )
        if not np.isfinite(codes).all():
            raise DimensionError("codes contain NaN or Inf values")
        if sq.size and not (sq.min() > 0 and sq.max() < np.inf):
            raise EncodingError("squared_norms must be positive and finite")
        if self._noise is not None:
            # Receiver-side noise only: the codes on the wire are
            # classical, the reconstruction mesh is the noisy hardware.
            phi = self._embed_codes(np.asarray(codes, dtype=np.float64))
            b = self._noisy_amplitudes(phi for _ in self._noisy_decode_mats)
        else:
            b = self._apply(self._decode_op, codes)
        return _decode(b, np.sqrt(sq))

    # ------------------------------------------------------------------
    # request serving (micro-batched)
    # ------------------------------------------------------------------
    @property
    def batcher(self):
        """The session's request accumulator."""
        return self._batcher

    def submit(self, x: np.ndarray, deadline: Optional[float] = None):
        """Enqueue one ``(N,)`` request; returns a ``Future`` of its
        reconstruction.

        Requests accumulate into ``(N, M)`` ticks (flushed at
        ``max_batch_size`` or after ``flush_latency`` seconds) so each
        tick costs one GEMM regardless of arrival pattern.  ``deadline``
        (absolute ``time.monotonic()``) drops the request at drain time
        if it expires while queued — see
        :meth:`MicroBatcher.submit <repro.api.batcher.MicroBatcher.submit>`.
        """
        if self._closed:
            raise ServingError("inference session is closed")
        return self._batcher.submit(x, deadline=deadline)

    def flush(self) -> int:
        """Serve all pending requests now; returns how many were served."""
        return self._batcher.flush()

    def close(self) -> None:
        """Flush and stop accepting :meth:`submit` requests."""
        self._closed = True
        self._batcher.close()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        sharding = (
            "" if self._pool is None
            else f", pool={self._pool.processes} workers"
        )
        noisy = (
            ""
            if self._noise is None
            else (
                f", noise={self._noise.spec_string()!r}"
                f" x{len(self._noisy_decode_mats)}"
            )
        )
        return (
            f"InferenceSession(dim={self._dim}, d={self._compressed_dim}, "
            f"renormalize={self._renormalize}, "
            f"chunk_size={self._chunk_size}{sharding}{noisy})"
        )
