"""A single quantum-network layer (Eq. 6, Fig. 3 of the paper).

One layer is the product ``U = U^(1,2) U^(2,3) ... U^(N-1,N)`` of ``N-1``
two-mode gates on adjacent modes, applied in a fixed *mode order*.  The
compression network uses ascending order; the reconstruction network
connects the same gates "in reverse order" (descending), per Section III-B.

The layer's length-``N-1`` ``theta`` parameters (and, optionally, ``alpha``
phases for the complex extension of Section V) are one row of a parameter
array: a :class:`~repro.network.quantum_network.QuantumNetwork`'s
``(1 + allow_phase, L, N-1)`` array for its layers, a ``(1 + phase, 1,
N-1)`` array of its own for a standalone layer.  :attr:`GateLayer.thetas`
and :attr:`GateLayer.alphas` read that row as a view and write it through a
checked copy.  Application folds the chain in closed form
(:func:`repro.backends.fold.chain_layers`) and applies it as one matrix
product to ``(N, M)`` column-state batches.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.fold import chain_layers
from repro.exceptions import GateError, NetworkConfigError

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
        self._params = np.zeros((1 if alphas is None else 2, 1, self.dim - 1))
        self._index = 0
        if thetas is not None:
            self.thetas = thetas
        if alphas is not None:
            self.alphas = alphas

    @classmethod
    def _row_of(cls, params: np.ndarray, index: int, descending: bool):
        """Layer ``index`` of a network's ``(1 + allow_phase, L, N-1)``
        parameter array, read and written in place."""
        layer = cls.__new__(cls)
        layer.dim = params.shape[-1] + 1
        layer.descending = descending
        layer._params = params
        layer._index = index
        return layer

    def _checked_row(self, values, name: str) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.num_gates,):
            raise NetworkConfigError(
                f"{name} must have shape ({self.num_gates},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NetworkConfigError(f"{name} contain NaN or Inf")
        return arr

    # ------------------------------------------------------------------
    @property
    def thetas(self) -> np.ndarray:
        """The layer's ``theta`` row: a view, so in-place edits land in
        the owning parameter array."""
        return self._params[0, self._index]

    @thetas.setter
    def thetas(self, values: Sequence[float] | np.ndarray) -> None:
        self._params[0, self._index] = self._checked_row(values, "thetas")

    @property
    def alphas(self) -> Optional[np.ndarray]:
        """The layer's ``alpha`` row (a view), or ``None`` for a real layer."""
        if self._params.shape[0] == 1:
            return None
        return self._params[1, self._index]

    @alphas.setter
    def alphas(self, values: Sequence[float] | np.ndarray) -> None:
        if self._params.shape[0] == 1:
            raise NetworkConfigError(
                "this layer carries no alphas (build it with alphas, or the "
                "network with allow_phase=True)"
            )
        self._params[1, self._index] = self._checked_row(values, "alphas")

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
    def unitary(self) -> np.ndarray:
        """Materialise the layer's ``N x N`` matrix (real unless some
        ``alpha`` is non-zero)."""
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        pc, ps = c, s
        if not self.is_real:
            phase = np.cos(self.alphas) + 1j * np.sin(self.alphas)
            pc, ps = phase * c, phase * s
        return chain_layers(c, s, pc, ps, self.descending)[0]

    def apply_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        """Apply the layer (or its exact inverse) in place to ``(N, M)`` data."""
        u = self.unitary()
        if np.iscomplexobj(u) and not np.iscomplexobj(data):
            raise GateError(
                "a non-zero phase alpha requires a complex state batch; the "
                "paper's real network fixes alpha = 0 (Section III-A)"
            )
        if inverse:
            u = u.conj().T
        data[:] = u @ data

    def apply(self, data: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Out-of-place application; returns a new array."""
        out = np.array(data, copy=True)
        self.apply_inplace(out, inverse=inverse)
        return out

    def copy(self) -> "GateLayer":
        """A standalone layer with its own parameter array."""
        return GateLayer(
            self.dim,
            thetas=self.thetas,
            alphas=self.alphas,
            descending=self.descending,
        )

    def __repr__(self) -> str:
        order = "descending" if self.descending else "ascending"
        kind = "real" if self.is_real else "complex"
        return (
            f"GateLayer(dim={self.dim}, num_gates={self.num_gates}, "
            f"{order}, {kind})"
        )
