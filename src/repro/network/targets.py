"""Compression-target strategies ``b_i`` (Section II-D of the paper).

The compression loss ``L_C`` (Eq. 5) compares the projected output
``a_i = P1 U_C A_i`` against "the certain target probability amplitude"
``b_i``.  The paper's worked example uses a *uniform* target: all
probability mass spread evenly over the kept subspace
(``(b_i)^2 = [0,0,0,0,.25,.25,.25,.25]`` for ``d = 4`` of 8).  That choice
is :class:`UniformSubspaceTarget`.

Alternatives are provided because the uniform target is information-
destroying when used alone (all samples share one target); the quantum-
autoencoder literature (paper ref. [15]) instead asks only that the trash
modes empty out, keeping per-sample structure in the subspace —
:class:`TruncatedInputTarget` implements that variant, and benchmarks
compare the two (the per-sample variant is what makes high reconstruction
accuracy possible, and is the default in the experiment configs).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.encoding.amplitude import EncodedBatch
from repro.exceptions import DimensionError, NetworkConfigError
from repro.network.projection import Projection

__all__ = [
    "CompressionTargetStrategy",
    "UniformSubspaceTarget",
    "TruncatedInputTarget",
]


class CompressionTargetStrategy(abc.ABC):
    """Maps an encoded input batch to target amplitudes for ``L_C``."""

    def __init__(self, projection: Projection) -> None:
        self.projection = projection

    @abc.abstractmethod
    def targets(self, encoded: EncodedBatch) -> np.ndarray:
        """Return the ``(N, M)`` target-amplitude matrix ``b``.

        Rows outside the kept subspace are zero by construction; columns
        are unit norm (a valid compressed state per sample).
        """

    def _check(self, encoded: EncodedBatch) -> None:
        if encoded.dim != self.projection.dim:
            raise DimensionError(
                f"encoded batch dim {encoded.dim} != projection dim "
                f"{self.projection.dim}"
            )


class UniformSubspaceTarget(CompressionTargetStrategy):
    """The paper's example target: uniform amplitudes over the kept subspace.

    Every sample shares the same target
    ``b_j = 1/sqrt(d)`` for kept ``j``, ``0`` otherwise.

    Examples
    --------
    >>> from repro.network.projection import Projection
    >>> import numpy as np
    >>> t = UniformSubspaceTarget(Projection.last(8, 4))
    >>> b = t.target_vector()
    >>> np.round(b**2, 2).tolist()
    [0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25]
    """

    def target_vector(self) -> np.ndarray:
        b = np.zeros(self.projection.dim)
        b[self.projection.keep] = 1.0 / np.sqrt(self.projection.compressed_dim)
        return b

    def targets(self, encoded: EncodedBatch) -> np.ndarray:
        self._check(encoded)
        return np.tile(
            self.target_vector()[:, None], (1, encoded.num_samples)
        )


class TruncatedInputTarget(CompressionTargetStrategy):
    """Per-sample targets: the input's best approximation inside the subspace.

    The target for sample ``i`` is ``P1 A_i`` renormalised — i.e. "push all
    the probability mass into the kept subspace while preserving the
    sample's own structure there".  This is the compression condition of
    quantum autoencoders (paper ref. [15]) and retains enough per-sample
    information for the reconstruction network to tell samples apart.

    Parameters
    ----------
    projection:
        The ``P1`` projection.
    mixing:
        Optional fixed orthogonal ``(d, N)`` "reference pattern" matrix
        ``W``; the target becomes the renormalised ``W A_i`` embedded in the
        kept subspace.  The default (``None``) uses the projection itself
        — good when images already concentrate on the kept coordinates; a
        PCA-derived ``W`` (see :func:`from_pca`) captures the optimal
        ``d``-dimensional linear structure of the dataset.
    """

    def __init__(
        self, projection: Projection, mixing: Optional[np.ndarray] = None
    ) -> None:
        super().__init__(projection)
        if mixing is not None:
            w = np.asarray(mixing, dtype=np.float64)
            d = projection.compressed_dim
            if w.shape != (d, projection.dim):
                raise NetworkConfigError(
                    f"mixing must have shape ({d}, {projection.dim}), got "
                    f"{w.shape}"
                )
            gram = w @ w.T
            if not np.allclose(gram, np.eye(d), atol=1e-8):
                raise NetworkConfigError(
                    "mixing rows must be orthonormal (W W^T = I)"
                )
            self.mixing = w
        else:
            self.mixing = None

    @classmethod
    def from_pca(
        cls, projection: Projection, data_matrix: np.ndarray
    ) -> "TruncatedInputTarget":
        """Build the mixing ``W`` from the top-``d`` right singular vectors.

        ``data_matrix`` is the classical ``(M, N)`` sample matrix; its top
        ``d`` principal directions define the best rank-``d`` subspace, so
        targets built from them are the information-optimal compressed
        states (this mirrors the quantum-PCA compression of paper
        ref. [11]).
        """
        mat = np.asarray(data_matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != projection.dim:
            raise DimensionError(
                f"data_matrix must be (M, {projection.dim}), got {mat.shape}"
            )
        _, _, vt = np.linalg.svd(mat, full_matrices=False)
        d = projection.compressed_dim
        if vt.shape[0] < d:
            raise NetworkConfigError(
                f"need at least {d} singular vectors, got {vt.shape[0]}"
            )
        return cls(projection, mixing=vt[:d])

    def targets(self, encoded: EncodedBatch) -> np.ndarray:
        self._check(encoded)
        amps = encoded.amplitudes()
        if self.mixing is not None:
            compact = self.mixing @ amps  # (d, M)
        else:
            compact = self.projection.restrict(amps)
        norms = np.linalg.norm(compact, axis=0)
        # Samples orthogonal to the subspace have no valid truncated target;
        # fall back to the uniform target for those columns.
        d = self.projection.compressed_dim
        uniform = np.full(d, 1.0 / np.sqrt(d))
        degenerate = norms < 1e-12
        safe_norms = np.where(degenerate, 1.0, norms)
        compact = compact / safe_norms
        if np.any(degenerate):
            compact[:, degenerate] = uniform[:, None]
        return self.projection.embed(compact)
