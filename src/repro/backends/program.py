"""Compiled gate programs — the network's structure as flat arrays.

A :class:`QuantumNetwork` describes *structure* (layers of chained
beamsplitter gates in a fixed mode order); execution backends need that
structure in a form they can iterate, vectorise, or lower without touching
Python objects per gate.  :func:`compile_program` flattens a network into a
:class:`GateProgram`: per-gate arrays of ``(mode, layer, theta_index,
alpha_index)`` in exact application order.

The program is purely structural — it depends only on ``(dim, num_layers,
descending, allow_phase)``, never on parameter values, so it is compiled
once when a backend binds to a network and stays valid across training
updates.  Parameter values are always read at execution time through the
``theta_index`` / ``alpha_index`` columns, which index the network's *flat
parameter vector*: the C-order ravel of its one parameter array, the same
layout as ``get_flat_params``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.quantum_network import QuantumNetwork

__all__ = ["GateProgram", "compile_program"]


@dataclass(frozen=True)
class GateProgram:
    """A network lowered to flat per-gate arrays in application order.

    Attributes
    ----------
    dim:
        Number of modes ``N``.
    num_layers:
        Number of stacked gate layers.
    allow_phase:
        Whether the source network carries trainable ``alpha`` phases.
    modes:
        ``(G,)`` int64 — mode ``k`` of gate ``g`` (acting on rows
        ``k, k+1``), ``g`` running in application order.
    layer_index:
        ``(G,)`` int64 — layer each gate belongs to.
    theta_index:
        ``(G,)`` int64 — index of the gate's ``theta`` in the network's
        flat parameter vector.
    alpha_index:
        ``(G,)`` int64 — flat index of the gate's ``alpha``, or ``-1``
        for real (phase-free) networks.
    descending:
        Whether every layer applies its chain in descending mode order
        (``N-2, ..., 0``; the reconstruction network) rather than
        ascending; :mod:`repro.backends.fold` reads the chain direction
        from here.

    Examples
    --------
    >>> from repro.network.quantum_network import QuantumNetwork
    >>> prog = compile_program(QuantumNetwork(4, 2, descending=True))
    >>> prog.num_gates
    6
    >>> prog.modes.tolist()  # descending order within each layer
    [2, 1, 0, 2, 1, 0]
    >>> prog.theta_index.tolist()
    [2, 1, 0, 5, 4, 3]
    """

    dim: int
    num_layers: int
    allow_phase: bool
    modes: np.ndarray
    layer_index: np.ndarray
    theta_index: np.ndarray
    alpha_index: np.ndarray
    descending: bool = False

    def __post_init__(self) -> None:
        g = self.modes.shape[0]
        for name in ("layer_index", "theta_index", "alpha_index"):
            if getattr(self, name).shape != (g,):
                raise BackendError(
                    f"program array {name!r} has shape "
                    f"{getattr(self, name).shape}, expected ({g},)"
                )

    @property
    def num_gates(self) -> int:
        return int(self.modes.shape[0])

    @property
    def num_thetas(self) -> int:
        return self.num_layers * (self.dim - 1)

    @property
    def num_parameters(self) -> int:
        return self.num_thetas * (2 if self.allow_phase else 1)

    def gate_for_parameter(self) -> np.ndarray:
        """``(num_parameters,)`` map from flat parameter index to gate index.

        Both the ``theta`` and (when present) the ``alpha`` of a gate map to
        the same program position; every gate appears exactly once per
        parameter kind, so the map is a permutation on each half.
        """
        out = np.empty(self.num_parameters, dtype=np.int64)
        out[self.theta_index] = np.arange(self.num_gates)
        if self.allow_phase:
            out[self.alpha_index] = np.arange(self.num_gates)
        return out

    def __repr__(self) -> str:
        return (
            f"GateProgram(dim={self.dim}, num_layers={self.num_layers}, "
            f"num_gates={self.num_gates}, allow_phase={self.allow_phase})"
        )


def compile_program(network: "QuantumNetwork") -> GateProgram:
    """Lower ``network`` into a :class:`GateProgram`.

    The application order matches ``QuantumNetwork.forward_inplace``
    exactly: layer 0 first, gates within each layer in ascending mode
    order, or descending for a ``descending`` network.

    Examples
    --------
    >>> from repro.network.quantum_network import QuantumNetwork
    >>> prog = compile_program(QuantumNetwork(4, 2))
    >>> prog
    GateProgram(dim=4, num_layers=2, num_gates=6, allow_phase=False)
    >>> prog.modes.tolist()  # ascending order within each layer
    [0, 1, 2, 0, 1, 2]
    >>> prog.layer_index.tolist()
    [0, 0, 0, 1, 1, 1]
    """
    dim = network.dim
    g_per_layer = dim - 1
    seq = np.arange(g_per_layer)
    if network.descending:
        seq = seq[::-1]
    modes = np.tile(seq, network.num_layers)
    layer_index = np.repeat(np.arange(network.num_layers), g_per_layer)
    theta_index = layer_index * g_per_layer + modes
    if network.allow_phase:
        alpha_index = network.num_thetas + theta_index
    else:
        alpha_index = np.full(modes.size, -1, dtype=np.int64)
    return GateProgram(
        dim=dim,
        num_layers=network.num_layers,
        allow_phase=bool(network.allow_phase),
        modes=modes,
        layer_index=layer_index,
        theta_index=theta_index,
        alpha_index=alpha_index,
        descending=network.descending,
    )
