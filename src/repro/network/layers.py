"""A single quantum-network layer (Eq. 6, Fig. 3 of the paper).

One layer is the product ``U = U^(1,2) U^(2,3) ... U^(N-1,N)`` of ``N-1``
two-mode gates on adjacent modes, applied in a fixed *mode order*.  The
compression network uses ascending order; the reconstruction network
connects the same gates "in reverse order" (descending), per Section III-B.

The layer owns a length-``N-1`` vector of ``theta`` parameters (and,
optionally, ``alpha`` phases for the complex extension of Section V).  All
application kernels operate in place on ``(N, M)`` column-state batches.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import NetworkConfigError
from repro.simulator.gates import apply_givens_batch

__all__ = ["GateLayer"]


class GateLayer:
    """One layer of ``N-1`` chained beamsplitter gates.

    Parameters
    ----------
    dim:
        Number of optical modes ``N`` (>= 2).
    thetas:
        Length ``N-1`` array of rotation angles; defaults to zeros (identity
        layer).
    alphas:
        Optional phase parameters; ``None`` keeps the layer real
        (the paper's ``alpha === 0`` setting).
    descending:
        If True the gates are applied at modes ``N-2, ..., 1, 0``
        (reconstruction-network order) instead of ``0, 1, ..., N-2``.

    Examples
    --------
    >>> layer = GateLayer(4, thetas=[0.1, 0.2, 0.3])
    >>> u = layer.unitary()
    >>> bool(np.allclose(u.T @ u, np.eye(4)))
    True
    """

    def __init__(
        self,
        dim: int,
        thetas: Optional[Sequence[float] | np.ndarray] = None,
        alphas: Optional[Sequence[float] | np.ndarray] = None,
        descending: bool = False,
    ) -> None:
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise NetworkConfigError(f"dim must be an int >= 2, got {dim!r}")
        self.dim = int(dim)
        self.descending = bool(descending)
        n_gates = self.dim - 1
        if thetas is None:
            self.thetas = np.zeros(n_gates)
        else:
            self.thetas = np.asarray(thetas, dtype=np.float64).copy()
            if self.thetas.shape != (n_gates,):
                raise NetworkConfigError(
                    f"thetas must have shape ({n_gates},), got "
                    f"{self.thetas.shape}"
                )
        if not np.all(np.isfinite(self.thetas)):
            raise NetworkConfigError("thetas contain NaN or Inf")
        if alphas is None:
            self.alphas: Optional[np.ndarray] = None
        else:
            self.alphas = np.asarray(alphas, dtype=np.float64).copy()
            if self.alphas.shape != (n_gates,):
                raise NetworkConfigError(
                    f"alphas must have shape ({n_gates},), got "
                    f"{self.alphas.shape}"
                )
            if not np.all(np.isfinite(self.alphas)):
                raise NetworkConfigError("alphas contain NaN or Inf")

    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return self.dim - 1

    @property
    def is_real(self) -> bool:
        return self.alphas is None or not np.any(self.alphas)

    def mode_sequence(self) -> np.ndarray:
        """Gate positions in application order.

        Ascending ``[0, 1, ..., N-2]`` for compression layers, descending
        for reconstruction layers.  Index ``i`` of :attr:`thetas` always
        refers to the gate at *modes* ``(i, i+1)`` regardless of order, so
        reversing the order permutes application, not parameter meaning.
        """
        seq = np.arange(self.num_gates)
        return seq[::-1].copy() if self.descending else seq

    # ------------------------------------------------------------------
    def apply_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        """Apply the layer (or its exact inverse) in place to ``(N, M)`` data."""
        alphas = self.alphas
        order = self.mode_sequence()
        if inverse:
            order = order[::-1]
        for k in order:
            apply_givens_batch(
                data,
                int(k),
                float(self.thetas[k]),
                alpha=0.0 if alphas is None else float(alphas[k]),
                inverse=inverse,
            )

    def apply(self, data: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Out-of-place application; returns a new array."""
        out = np.array(data, copy=True)
        if out.ndim == 1:
            out2 = out.reshape(-1, 1)
            self.apply_inplace(out2, inverse=inverse)
            return out2.ravel()
        self.apply_inplace(out, inverse=inverse)
        return out

    def unitary(self) -> np.ndarray:
        """Materialise the layer's ``N x N`` matrix."""
        dtype = np.float64 if self.is_real and self.alphas is None else (
            np.float64 if self.is_real else np.complex128
        )
        u = np.eye(self.dim, dtype=dtype)
        self.apply_inplace(u)
        return u

    def copy(self) -> "GateLayer":
        return GateLayer(
            self.dim,
            thetas=self.thetas.copy(),
            alphas=None if self.alphas is None else self.alphas.copy(),
            descending=self.descending,
        )

    def __repr__(self) -> str:
        order = "descending" if self.descending else "ascending"
        kind = "real" if self.is_real else "complex"
        return (
            f"GateLayer(dim={self.dim}, num_gates={self.num_gates}, "
            f"{order}, {kind})"
        )
