"""PCA compression baseline.

The classical analogue of the quantum-PCA data compression the paper cites
(ref. [11]): project amplitude-normalised samples onto the top ``d``
principal directions, keep the ``d`` coefficients, reconstruct linearly.
This is the information-theoretic optimum among *linear* ``d``-dimensional
codes, so it upper-bounds what the quantum network's unitary + projection
can achieve on a given dataset — a useful calibration line in the
comparison benches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.encoding.amplitude import encode_batch
from repro.exceptions import BaselineError

__all__ = ["PCACompressor"]


class PCACompressor:
    """Rank-``d`` PCA codec over amplitude-normalised image vectors.

    Parameters
    ----------
    num_components:
        The compression budget ``d``.
    center:
        Subtract the mean sample before projecting (classical PCA); the
        quantum pipeline cannot center (states are rays), so ``False``
        (the default) gives the apples-to-apples comparison.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.abs(np.random.default_rng(0).normal(size=(6, 16))) + 0.1
    >>> pca = PCACompressor(num_components=4).fit(X)
    >>> pca.transform(X).shape
    (4, 6)
    """

    def __init__(self, num_components: int, center: bool = False) -> None:
        if num_components < 1:
            raise BaselineError(
                f"num_components must be >= 1, got {num_components}"
            )
        self.num_components = int(num_components)
        self.center = bool(center)
        self.components: Optional[np.ndarray] = None  # (d, N)
        self.mean: Optional[np.ndarray] = None
        self._squared_norms: Optional[np.ndarray] = None

    def _encode(self, X: np.ndarray) -> np.ndarray:
        enc = encode_batch(np.asarray(X, dtype=np.float64))
        self._squared_norms = enc.squared_norms
        return enc.amplitudes()  # (N, M)

    def fit(self, X: np.ndarray) -> "PCACompressor":
        y = self._encode(X)
        if self.num_components > y.shape[0]:
            raise BaselineError(
                f"num_components={self.num_components} exceeds data "
                f"dimension {y.shape[0]}"
            )
        self.mean = (
            y.mean(axis=1, keepdims=True)
            if self.center
            else np.zeros((y.shape[0], 1))
        )
        centered = y - self.mean
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        self.components = u[:, : self.num_components].T  # (d, N)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project to ``(d, M)`` PCA coefficients."""
        if self.components is None or self.mean is None:
            raise BaselineError("PCACompressor must be fit before transform")
        y = self._encode(X)
        return self.components @ (y - self.mean)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Round-trip to ``(M, N)`` pixel data (Eq. 2 style decode)."""
        if self.components is None or self.mean is None:
            raise BaselineError(
                "PCACompressor must be fit before reconstruct"
            )
        y = self._encode(X)
        codes = self.components @ (y - self.mean)
        recon = self.components.T @ codes + self.mean
        assert self._squared_norms is not None
        return (np.abs(recon) * np.sqrt(self._squared_norms)[None, :]).T
