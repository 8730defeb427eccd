"""Multi-layer quantum network — the paper's trainable object.

A :class:`QuantumNetwork` stacks ``num_layers`` :class:`GateLayer` s; the
paper's compression network ``U_C`` uses 12 layers and the reconstruction
network ``U_R`` 14 layers on ``N = 16`` modes, giving ``12 x 15`` and
``14 x 15`` trainable ``theta`` parameters respectively (Section IV-A).

The network owns one float64 parameter array of shape
``(1 + allow_phase, num_layers, N-1)`` (thetas, then alphas); each layer's
:attr:`GateLayer.thetas` / ``.alphas`` is a row of it, and its C-order
ravel is the *flat parameter vector* layout of `get_flat_params` /
`set_flat_params`, which the optimizers and all four gradient methods use.
Caches (the ``fused`` fold, the gradient workspaces, pool workers) compare
that live array with their snapshot, so a direct ``layer.thetas`` edit is
seen without a concatenation.  The exact adjoint gradient needs no traced
forward pass: it reads the layer fold of that array
(:func:`repro.backends.fold.mesh_layers`).

Execution is delegated to a pluggable backend (:mod:`repro.backends`):
``"loop"`` (the bit-exact per-gate reference), ``"fused"`` (cached
whole-network unitary applied as one GEMM, with prefix/suffix-cached
gradients) or ``"sharded"`` (wide batches scattered over worker
processes).  Select at construction or via :meth:`set_backend`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.backends import Backend, make_backend
from repro.exceptions import DimensionError, NetworkConfigError
from repro.network.layers import GateLayer
from repro.simulator.state import StateBatch
from repro.utils.rng import ensure_rng

__all__ = ["QuantumNetwork"]


class QuantumNetwork:
    """A stack of gate layers with flat-parameter access.

    Parameters
    ----------
    dim:
        Number of modes ``N``.
    num_layers:
        Number of layers (``l_C`` or ``l_R`` in the paper).
    descending:
        Gate order within each layer; ``False`` (ascending) for the
        compression network, ``True`` for the reconstruction network whose
        gates are "connected in reverse order" (Section III-B).
    allow_phase:
        If True the network also carries trainable ``alpha`` phases (the
        complex extension of Section V); flat parameters are then the
        concatenation ``[thetas..., alphas...]``.
    backend:
        Execution backend — a registry name (``"loop"``, ``"fused"``), a
        :class:`~repro.backends.Backend` subclass, or an unbound instance.
        Defaults to the bit-exact ``"loop"`` reference.

    Examples
    --------
    >>> net = QuantumNetwork(dim=4, num_layers=2)
    >>> net.num_parameters
    6
    >>> u = net.unitary()
    >>> bool(np.allclose(u, np.eye(4)))  # zero-initialised -> identity
    True
    >>> net.set_backend("fused").backend.name
    'fused'
    """

    def __init__(
        self,
        dim: int,
        num_layers: int,
        descending: bool = False,
        allow_phase: bool = False,
        backend: Union[str, Backend, type] = "loop",
    ) -> None:
        if not isinstance(num_layers, (int, np.integer)) or num_layers < 1:
            raise NetworkConfigError(
                f"num_layers must be an int >= 1, got {num_layers!r}"
            )
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise NetworkConfigError(f"dim must be an int >= 2, got {dim!r}")
        self.dim = int(dim)
        self.num_layers = int(num_layers)
        self.descending = bool(descending)
        self.allow_phase = bool(allow_phase)
        # Backends and pool workers read this array in place.  `layers`
        # is a tuple: a swapped-in layer would not be a row of it.
        self._params = np.zeros(
            (1 + self.allow_phase, self.num_layers, self.dim - 1)
        )
        self.layers: Tuple[GateLayer, ...] = tuple(
            GateLayer._row_of(self._params, p, self.descending)
            for p in range(self.num_layers)
        )
        self._backend: Backend = make_backend(backend).bind(self)

    # ------------------------------------------------------------------
    # execution backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> Backend:
        """The bound execution backend."""
        return self._backend

    def set_backend(
        self, backend: Union[str, Backend, type]
    ) -> "QuantumNetwork":
        """Swap the execution backend in place; returns ``self``.

        Backends are per-network: passing a name or class builds a fresh
        instance; passing an instance binds it to this network.
        """
        self._backend = make_backend(backend).bind(self)
        return self

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    @property
    def gates_per_layer(self) -> int:
        return self.dim - 1

    @property
    def num_thetas(self) -> int:
        return self.num_layers * self.gates_per_layer

    @property
    def num_parameters(self) -> int:
        """Total trainable parameters (theta, plus alpha if enabled)."""
        return self.num_thetas * (2 if self.allow_phase else 1)

    @property
    def theta_matrix(self) -> np.ndarray:
        """``(num_layers, N-1)`` copy of all thetas."""
        return self._params[0].copy()

    def get_flat_params(self) -> np.ndarray:
        """A fresh float64 copy of the flat parameter vector
        ``[thetas..., alphas...]`` (layer-major within each half)."""
        return self._params.flatten()

    def set_flat_params(self, params: np.ndarray) -> None:
        arr = np.asarray(params, dtype=np.float64)
        if arr.size != self.num_parameters:
            raise NetworkConfigError(
                f"expected {self.num_parameters} parameters, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise NetworkConfigError("parameters contain NaN or Inf")
        self._params[...] = arr.reshape(self._params.shape)

    def initialize(
        self,
        method: str = "uniform",
        rng: Optional[np.random.Generator] = None,
        **kwargs: float,
    ) -> "QuantumNetwork":
        """Initialise parameters in place; see :mod:`repro.training.initializers`."""
        from repro.training.initializers import get_initializer

        init = get_initializer(method)
        self.set_flat_params(
            init(self.num_parameters, rng=ensure_rng(rng), **kwargs)
        )
        return self

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def _check_dim(self, data: np.ndarray) -> None:
        if data.ndim != 2 or data.shape[0] != self.dim:
            raise DimensionError(
                f"expected (N={self.dim}, M) state batch, got shape "
                f"{data.shape}"
            )

    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        """Apply all layers in place (layer 0 first; reversed for inverse).

        Execution is delegated to the bound backend; the ``"loop"``
        reference applies the compiled gate program gate by gate, other
        backends may cache fused unitaries between calls.
        """
        self._check_dim(data)
        self._backend.forward_inplace(data, inverse=inverse)

    def result_dtype(self, data: np.ndarray) -> np.dtype:
        """Dtype a forward pass on ``data`` produces.

        Phase-bearing networks need a complex state matrix even for real
        (amplitude-encoded) inputs; every execution path (forward, chunked
        batching, gradient workspaces) promotes through this one rule.
        """
        return np.dtype(
            np.complex128
            if (self.allow_phase or np.iscomplexobj(data))
            else np.float64
        )

    def forward(
        self, data: np.ndarray | StateBatch, inverse: bool = False
    ) -> np.ndarray:
        """Out-of-place forward pass; accepts and returns ``(N, M)`` arrays.

        A :class:`StateBatch` input returns the raw ``(N, M)`` array of the
        transformed batch (callers wrap as needed).
        """
        arr = data.data if isinstance(data, StateBatch) else np.asarray(data)
        squeeze = arr.ndim == 1
        out = np.array(
            arr.reshape(self.dim, -1), dtype=self.result_dtype(arr), copy=True
        )
        self.forward_inplace(out, inverse=inverse)
        return out.ravel() if squeeze else out

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """Materialise the full network matrix (inspection / tests only)."""
        dtype = np.complex128 if np.any(self._params[1:]) else np.float64
        u = np.eye(self.dim, dtype=dtype)
        self.forward_inplace(u)
        return u

    def reversed_structure(self) -> "QuantumNetwork":
        """Fresh network with the opposite gate order and zeroed parameters.

        This is how the paper builds ``U_R`` from ``U_C``'s topology: "the
        combination of the quantum gates in the compression network ...
        connected in reverse order, so the network parameters need to be
        retrained" (Section II-C).
        """
        return QuantumNetwork(
            self.dim,
            self.num_layers,
            descending=not self.descending,
            allow_phase=self.allow_phase,
            # spawn(), not the registry name: custom backends need not be
            # registered, and configured backends carry their config over.
            backend=self._backend.spawn(),
        )

    def copy(self) -> "QuantumNetwork":
        clone = QuantumNetwork(
            self.dim,
            self.num_layers,
            descending=self.descending,
            allow_phase=self.allow_phase,
            backend=self._backend.spawn(),
        )
        clone.set_flat_params(self._params)
        return clone

    def __repr__(self) -> str:
        order = "descending" if self.descending else "ascending"
        return (
            f"QuantumNetwork(dim={self.dim}, num_layers={self.num_layers}, "
            f"{order}, params={self.num_parameters}, "
            f"backend={self._backend.name})"
        )
