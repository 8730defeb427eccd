"""Closed-form fold of the Givens chain mesh.

Every :class:`~repro.network.quantum_network.QuantumNetwork` layer is a
chain of ``N-1`` adjacent-mode gates applied in ascending (``U_C``) or
descending (``U_R``) mode order.  Inside one chain, gate ``j`` only meets
rows the preceding gates have finished with, so the layer's action on a
basis vector collapses to a first-order recurrence in ``j``:

- ascending: ``w_j := (G_{N-2} ... G_j) e_j`` gives ``w_{N-1} = e_{N-1}``,
  ``w_j = pc_j e_j + ps_j w_{j+1}``; column ``0`` of the layer is ``w_0``
  and column ``j`` is ``-s_{j-1} e_{j-1} + c_{j-1} w_j``;
- descending: ``u_k := (G_0 ... G_{k-1}) e_k`` gives ``u_0 = e_0``,
  ``u_k = c_{k-1} e_k - s_{k-1} u_{k-1}``; column ``j < N-1`` is
  ``pc_j u_j + ps_j e_{j+1}`` and column ``N-1`` is
  ``-s_{N-2} u_{N-2} + c_{N-2} e_{N-1}``,

with ``c, s = cos theta, sin theta`` and ``pc, ps = e^{i alpha} c,
e^{i alpha} s`` per gate.  :func:`chain_layers` runs that recurrence over
any leading axes at once (layers, and noise realizations on top), so every
layer unitary of a mesh costs ``O(N)`` vectorised steps instead of
``num_layers * (N-1)`` Python-level gate applications, and :func:`fold`
multiplies them with one batched matmul per layer.

The same recurrence covers the hardware imperfections of
:mod:`repro.noise`: angle jitter is just a different ``theta``, and the
per-gate insertion loss (rows ``k, k+1`` damped by ``a = sqrt(1 - loss)``
after the rotation) scales the gate's ``2 x 2`` block, i.e. ``c, s`` (and
so ``pc, ps``) by ``a`` — see :func:`noisy_folds`.

Examples
--------
>>> from repro.network.quantum_network import QuantumNetwork
>>> net = QuantumNetwork(4, 3, descending=True)
>>> net = net.initialize("uniform", rng=np.random.default_rng(0))
>>> mesh = mesh_layers(net, net.get_flat_params())
>>> mesh.layers.shape
(3, 4, 4)
>>> bool(np.allclose(fold(mesh.layers), net.unitary(), atol=1e-12))
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["MeshLayers", "chain_layers", "chain_rows", "fold", "mesh_layers",
           "noisy_folds"]


def chain_layers(
    c: np.ndarray,
    s: np.ndarray,
    pc: np.ndarray,
    ps: np.ndarray,
    descending: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Layer unitaries of chain meshes from their per-gate entries.

    ``c, s, pc, ps`` have shape ``(..., L, N-1)`` with entry ``j`` of the
    last axis belonging to the gate on modes ``(j, j+1)``.  Returns the
    ``(..., L, N, N)`` layer unitaries and the recurrence columns the
    prefix/suffix workspace reads: ``(..., L, N, N)`` holding ``w_j`` in
    column ``j`` (ascending) or ``(..., L, N, N-1)`` holding ``u_k`` in
    column ``k`` (descending).  Every output element depends only on its
    own leading index, so any slice of a batched call equals the call on
    that slice bitwise.
    """
    g = c.shape[-1]
    n = g + 1
    lead = c.shape[:-1]
    dtype = np.result_type(pc, ps, c)
    rows = np.arange(g)
    if not descending:
        cols = np.zeros(lead + (n, n), dtype=dtype)
        cols[..., n - 1, n - 1] = 1.0
        for j in range(n - 2, -1, -1):
            cols[..., j, j] = pc[..., j]
            cols[..., j + 1 :, j] = ps[..., j, None] * cols[..., j + 1 :, j + 1]
        layers = cols.copy()
        layers[..., :, 1:] *= c[..., None, :]
        layers[..., rows, rows + 1] = -s
    else:
        cols = np.zeros(lead + (n, g), dtype=dtype)
        cols[..., 0, 0] = 1.0
        for k in range(1, g):
            cols[..., k, k] = c[..., k - 1]
            cols[..., :k, k] = -s[..., k - 1, None] * cols[..., :k, k - 1]
        layers = np.zeros(lead + (n, n), dtype=dtype)
        layers[..., :, : n - 1] = cols * pc[..., None, :]
        layers[..., rows + 1, rows] = ps
        layers[..., :, n - 1] = -s[..., n - 2, None] * cols[..., :, n - 2]
        layers[..., n - 1, n - 1] += c[..., n - 2]
    return layers, cols


def chain_rows(
    layers: np.ndarray,
    cols: np.ndarray,
    outputs: np.ndarray,
    descending: bool,
    out: np.ndarray,
) -> np.ndarray:
    """The input row of each chain gate that the layer input lacks.

    ``layers, cols`` are :func:`chain_layers`'s and ``outputs`` the layer
    outputs ``y = U x``, ``(..., L, N, M)``.  Entry ``j`` of ``out``,
    ``(..., L, N-1, M)``, gets row ``j`` (ascending) or ``j + 1``
    (descending) of what the gate on modes ``(j, j+1)`` reads: with
    ``U = T_j R_j``, ``R_j`` the gates before gate ``j``, a unitary ``U``
    gives ``R_j x = T_j^dagger y``, so that row is ``w_j^dagger y``
    ascending (``w_j = T_j e_j``, column ``j`` of ``cols``) and
    ``u_{j+1}^dagger y`` descending (``u_{j+1} = T_j e_{j+1}``, column
    ``j + 1`` of ``cols``, or the layer's last one for ``j = N-2``): one
    batched GEMM per layer.  Jitter and phases keep layers unitary;
    insertion loss does not.  Any slice of a batched call equals the call
    on that slice bitwise.  Returns ``out``.
    """
    g = out.shape[-2]
    if np.iscomplexobj(cols):
        cols = cols.conj()
    cols_h = np.swapaxes(cols, -1, -2)
    if not descending:
        return np.matmul(cols_h[..., :g, :], outputs, out=out)
    np.matmul(cols_h[..., 1:, :], outputs, out=out[..., : g - 1, :])
    last = layers[..., :, g:]
    if np.iscomplexobj(last):
        last = last.conj()
    np.matmul(np.swapaxes(last, -1, -2), outputs, out=out[..., g - 1 :, :])
    return out


def fold(layers: np.ndarray) -> np.ndarray:
    """The mesh matrix ``L_{P-1} ... L_1 L_0`` of ``(..., P, N, N)`` layers.

    One batched matmul per layer; leading axes are folded independently.
    """
    u = layers[..., 0, :, :].copy()
    for p in range(1, layers.shape[-3]):
        u = layers[..., p, :, :] @ u
    return u


@dataclass(frozen=True)
class MeshLayers:
    """The chain recurrence of one or more parameter sets: gate entries,
    layer unitaries and recurrence columns (see :func:`chain_layers`).

    ``params`` holds the flat parameter vectors the rest was built from,
    ``(P,)`` for one set or ``(K, P)`` for ``K``; every other field has the
    same leading axes, and the ``(..., L, N-1)`` gate entries are indexed
    ``[..., layer, mode]``.  Layers are real unless some phase ``alpha``
    is non-zero.
    """

    params: np.ndarray
    thetas: np.ndarray
    alphas: np.ndarray
    c: np.ndarray
    s: np.ndarray
    pc: np.ndarray
    ps: np.ndarray
    layers: np.ndarray
    cols: np.ndarray


def mesh_layers(mesh, params: np.ndarray) -> MeshLayers:
    """The chain recurrence of one mesh at the flat parameters ``params``.

    ``params`` is one ``(P,)`` vector or a ``(K, P)`` stack of them.  The
    whole stack is real unless some phase in it is non-zero, so row ``r``
    of a stacked result equals the result for ``params[r]`` bitwise when
    the rows share their phases (every row phase-free, or every row
    phase-bearing); a zero-phase row of a mixed stack is folded in complex
    arithmetic and agrees with its single call at rounding level only.
    ``mesh`` is a :class:`~repro.backends.program.GateProgram` or a
    :class:`~repro.network.quantum_network.QuantumNetwork`: only the
    structure both expose (``dim``, ``num_layers``, ``descending``,
    ``allow_phase``) is read.
    """
    num_layers, g = mesh.num_layers, mesh.dim - 1
    num_thetas = num_layers * g
    lead = params.shape[:-1]
    thetas = params[..., :num_thetas]
    th = thetas.reshape(lead + (num_layers, g))
    c, s = np.cos(th), np.sin(th)
    if mesh.allow_phase:
        alphas = params[..., num_thetas:]
    else:
        alphas = np.zeros(lead + (num_thetas,))
    if np.any(alphas):
        al = alphas.reshape(lead + (num_layers, g))
        phase = np.cos(al) + 1j * np.sin(al)
        pc, ps = phase * c, phase * s
    else:
        pc, ps = c, s
    layers, cols = chain_layers(c, s, pc, ps, mesh.descending)
    return MeshLayers(params, thetas, alphas, c, s, pc, ps, layers, cols)


def noisy_folds(mesh, thetas: np.ndarray, keep_amp) -> np.ndarray:
    """``(K, N, N)`` folds of a real mesh, one per row of ``thetas``.

    ``thetas`` is ``(K, num_thetas)`` in flat-parameter layout (the
    realizations' jittered angles); every gate's ``2 x 2`` block is scaled
    by ``keep_amp = sqrt(1 - loss_per_gate)``, the amplitude it transmits:
    one float for every row, or a ``(K,)`` array with one per row (a row
    of exactly 1.0 is the lossless fold).  Row ``r`` of the result
    depends on row ``r`` of ``thetas`` and of ``keep_amp`` only.
    """
    th = thetas.reshape(thetas.shape[0], mesh.num_layers, mesh.dim - 1)
    c, s = np.cos(th), np.sin(th)
    amp = np.asarray(keep_amp, dtype=np.float64)
    if np.any(amp != 1.0):
        amp = amp.reshape(amp.shape + (1, 1))
        c, s = amp * c, amp * s
    # The recurrence columns are not needed past the layers: dropping
    # them before the product lowers the fold's peak memory.
    layers = chain_layers(c, s, c, s, mesh.descending)[0]
    return fold(layers)
