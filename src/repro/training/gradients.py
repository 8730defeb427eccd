"""Gradient methods for quantum-network training.

Three interchangeable methods compute ``(loss, dL/dparams)`` for a network
output ``P1 U(params) X`` (compression) or ``U(params) X`` (reconstruction)
against target amplitudes:

``"fd"``
    The paper's method (Eq. 8): *forward* finite differences with
    ``Delta = 1e-8``.  Cost: ``num_params + 1`` forward passes; accuracy
    ~1e-6 relative (float64 forward differencing at Delta=1e-8 sits near
    the rounding/truncation optimum).
``"central"``
    Central differences with ``Delta = 1e-6``; one extra forward pass per
    parameter buys ~1e-9 accuracy.
``"adjoint"``
    Exact reverse-mode: one forward chain + one backward sweep for *all*
    parameters, over *layer* adjoint states — one GEMM per layer each way
    plus in-layer recurrences, for ``K`` parameter sets at once
    (:func:`adjoint_sweep`) — on any backend.  Exact to float64.  Supports
    complex (``allow_phase``) networks: the sweep pulls the adjoint back
    through ``G^dagger`` and reads off both the ``theta`` and ``alpha``
    gradients from the same tapes.

All methods share the signature of :func:`loss_and_gradient`; the trainer
selects by name so benchmarks can ablate the choice (exp id ``abl-grad``).

**Backend acceleration.**  When the network's execution backend advertises
``supports_cached_gradients`` (the ``"fused"`` backend does), the ``fd``
and ``central`` methods run on a
:class:`~repro.backends.cached.PrefixSuffixWorkspace`: perturbing
parameter ``i`` changes only ``suffix_i @ G_i' @ prefix_i``, and the
workspace stacks all of a layer's perturbations into single einsums
(:meth:`~repro.backends.cached.PrefixSuffixWorkspace.perturbed_outputs`)
scored by one vectorised :meth:`Loss.value_many` call —
``O(num_layers)`` batched contractions per gradient instead of ``O(P^2)``
gate work.  The cached path never mutates the network's parameters and
agrees with the re-execution path within the finite-difference
cancellation noise ``~ulp(loss)/delta``.  The ``"loop"`` backend always
takes the bit-exact re-execution path.  See ``docs/gradients.md`` for the
method x backend matrix.
"""

from __future__ import annotations

import logging
import math
import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.backends.cached import ELEMENT_BUDGET
from repro.backends.fold import mesh_layers
from repro.exceptions import GradientError
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.loss import Loss, SquaredErrorLoss

__all__ = [
    "adjoint_sweep",
    "GradientMethod",
    "loss_and_gradient",
    "available_gradient_methods",
    "PAPER_DELTA",
]

#: The differential step size of Eq. (8), "uniformly set to 1e-8".
PAPER_DELTA: float = 1e-8

GradientMethod = str

GradFn = Callable[..., Tuple[float, np.ndarray]]

_log = logging.getLogger(__name__)


class _TapeArena(threading.local):
    """The calling thread's float64 buffer behind :func:`_sweep_block`'s
    tapes, grown to the largest block seen and never shrunk."""

    def __init__(self) -> None:
        self.buf = np.empty(0)


_ARENA = _TapeArena()

_TAPE_NAMES = ("xs", "mus", "rows", "adjoints")


def _checked_problem(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Optional[Loss],
    projection: Optional[Projection],
) -> Tuple[np.ndarray, np.ndarray, Loss]:
    """Validated ``(inputs, targets, loss)``; ``None`` selects Algorithm
    1's mean-normalised squared error."""
    arr = np.asarray(inputs)
    tgt = np.asarray(targets)
    if arr.ndim != 2 or arr.shape[0] != network.dim:
        raise GradientError(
            f"inputs must be (N={network.dim}, M), got shape {arr.shape}"
        )
    if tgt.shape != arr.shape:
        raise GradientError(
            f"targets shape {tgt.shape} != inputs shape {arr.shape}"
        )
    if projection is not None and projection.dim != network.dim:
        raise GradientError(
            f"projection dim {projection.dim} != network dim {network.dim}"
        )
    if loss is None:
        loss = SquaredErrorLoss(reduction="mean")
    return arr, tgt, loss


def _evaluate(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> float:
    return _project_and_eval(
        network.forward(inputs), targets, loss, projection
    )


def _workspace_or_none(network: QuantumNetwork, inputs: np.ndarray):
    """Prefix/suffix workspace when the bound backend supports caching."""
    backend = getattr(network, "backend", None)
    if backend is None or not backend.supports_cached_gradients:
        return None
    return backend.gradient_workspace(inputs)


def _project_and_eval(
    out: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> float:
    if projection is not None:
        projection.apply_inplace(out)
    return loss.value(out, targets)


def _batched_difference_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
    central: bool,
) -> Tuple[float, np.ndarray]:
    """Workspace-backed stencil, one batched contraction per chunk.

    Each chunk from :meth:`PrefixSuffixWorkspace.param_chunks` (whole
    layers, merged under a memory budget) produces the stack of perturbed
    outputs in two batched contractions — restricted to the projection's
    kept rows when training with ``P1`` — scored by one
    :meth:`Loss.value_many` call: ``O(num_layers)`` python-level steps per
    gradient instead of ``O(P)``.
    """
    keep = projection.mask if projection is not None else None
    base = _project_and_eval(ws.base_output.copy(), targets, loss, projection)
    grad = np.empty(num_params)
    for idx in ws.param_chunks():
        plus = loss.value_many(
            ws.perturbed_outputs(idx, delta, keep=keep), targets, keep=keep
        )
        if central:
            minus = loss.value_many(
                ws.perturbed_outputs(idx, -delta, keep=keep),
                targets,
                keep=keep,
            )
            grad[idx] = (plus - minus) / (2.0 * delta)
        else:
            grad[idx] = (plus - base) / delta
    return base, grad


def _loss_and_grad_fd(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
) -> Tuple[float, np.ndarray]:
    """Forward finite differences (Eq. 8 of the paper)."""
    ws = _workspace_or_none(network, inputs)
    if ws is not None:
        return _batched_difference_grad(
            ws, network.num_parameters, targets, loss, projection, delta,
            central=False,
        )
    params = network.get_flat_params()
    base = _evaluate(network, inputs, targets, loss, projection)
    grad = np.empty_like(params)
    try:
        for i in range(params.size):
            original = params[i]
            params[i] = original + delta
            network.set_flat_params(params)
            grad[i] = (
                _evaluate(network, inputs, targets, loss, projection) - base
            ) / delta
            params[i] = original
    finally:
        network.set_flat_params(params)
    return base, grad


def _loss_and_grad_central(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
) -> Tuple[float, np.ndarray]:
    """Central finite differences (second-order accurate)."""
    ws = _workspace_or_none(network, inputs)
    if ws is not None:
        return _batched_difference_grad(
            ws, network.num_parameters, targets, loss, projection, delta,
            central=True,
        )
    params = network.get_flat_params()
    base = _evaluate(network, inputs, targets, loss, projection)
    grad = np.empty_like(params)
    try:
        for i in range(params.size):
            original = params[i]
            params[i] = original + delta
            network.set_flat_params(params)
            plus = _evaluate(network, inputs, targets, loss, projection)
            params[i] = original - delta
            network.set_flat_params(params)
            minus = _evaluate(network, inputs, targets, loss, projection)
            grad[i] = (plus - minus) / (2.0 * delta)
            params[i] = original
    finally:
        network.set_flat_params(params)
    return base, grad


def _adjoint_loss_and_lambda(
    out: np.ndarray,
    tape_dtype: np.dtype,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Base loss and tape-dtype output adjoint for the sweep paths."""
    if projection is not None:
        out = projection.apply(out)
    base = loss.value(out, targets)
    lam = loss.dvalue(out, targets)
    if np.iscomplexobj(lam) and not np.issubdtype(
        tape_dtype, np.complexfloating
    ):
        # Real tape: the imaginary part of the adjoint cannot propagate
        # (grad = Re<lam, dout> with real dout), so drop it explicitly.
        lam = np.real(lam)
    lam = np.array(lam, dtype=tape_dtype, copy=True)
    if projection is not None:
        projection.apply_inplace(lam)
    return base, lam


def adjoint_sweep(
    network: QuantumNetwork,
    params: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Optional[Loss] = None,
    projection: Optional[Projection] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode ``(loss, gradient)`` for ``K`` parameter sets.

    ``params`` is ``(K, P)``, one flat parameter vector of ``network``'s
    structure per row (the network's own parameters are not read or
    changed); returns the ``(K,)`` losses and ``(K, P)`` gradients of
    ``loss(P1 U(params[r]) inputs, targets)``.  When the rows share their
    phases (as noise-aware training's realizations share the network's
    ``alpha``), row ``r`` depends on ``params[r]`` only, so a stacked call
    equals ``K`` single calls — and any split of ``K`` into blocks or pool
    shards — bitwise.  A stack mixing zero-phase rows with phase-bearing
    ones folds all of them in complex arithmetic (see
    :func:`~repro.backends.fold.mesh_layers`), so its zero-phase rows
    agree with their single calls at rounding level only.

    One sweep serves every row: the layer unitaries and gate entries come
    from :func:`repro.backends.fold.mesh_layers` on the stack; then

    1. the forward GEMM chain records every layer input ``x``;
    2. the output adjoint ``lam`` is pulled back one GEMM per layer,
       ``mu_{p-1} = U_p^dagger mu_p``;
    3. an in-layer recurrence, vectorised over ``(K, L, M)``, gives the
       rows ``(r0, r1)`` each gate reads, and one batched GEMM of ``mu``
       with the fold's recurrence columns the adjoints ``(l0, l1)`` at its
       outputs (see :func:`_gate_tapes`);
    4. the gradient reads off elementwise,
       ``d theta = Re sum_m conj(l) . (dG/dtheta) r`` and likewise for
       ``alpha`` on phase-bearing meshes.

    No suffix columns and no per-gate products are formed.  ``K`` is
    processed in blocks whose tapes stay under a fixed element budget
    (:func:`_sweep_block_size`) and are kept, per thread, between calls
    (:func:`_arena_tapes`).
    """
    arr, tgt, loss = _checked_problem(
        network, inputs, targets, loss, projection
    )
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 2 or params.shape[1] != network.num_parameters:
        raise GradientError(
            f"params must be (K, P={network.num_parameters}), got shape "
            f"{params.shape}"
        )
    n, m = arr.shape
    dtype = network.result_dtype(arr)
    total = params.shape[0]
    values = np.empty(total)
    grads = np.empty((total, network.num_parameters))
    block = _sweep_block_size(network.num_layers, n, m, dtype)
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        values[lo:hi], grads[lo:hi] = _sweep_block(
            network,
            mesh_layers(network, params[lo:hi]),
            hi - lo,
            arr,
            tgt,
            loss,
            projection,
            dtype,
        )
    return values, grads


def _sweep_block_size(
    num_layers: int, n: int, m: int, dtype: np.dtype
) -> int:
    """Parameter sets per block of :func:`adjoint_sweep`.

    One set's tapes in :func:`_sweep_block` hold the layer inputs
    (``(L+1) N M`` elements), the layer adjoints (``L N M``), the row and
    adjoint tapes the recurrences build (``2 L (N-1) M``) and, on complex
    tapes, their conjugates (``2 L (N-1) M`` more); the fold adds its
    layers and recurrence columns (under ``2 L N^2``).  A complex element
    counts as two float64s, so a block stays under ``ELEMENT_BUDGET``
    float64s.

    The first four of those tapes are kept between calls in the calling
    thread's arena (:func:`_arena_tapes`), sized to the largest block the
    thread has swept: at most ``ELEMENT_BUDGET`` float64s (~32 MB), and
    ~1.2 MB for the paper's K = 8 noise step on U_C.
    """
    complex_ = np.issubdtype(dtype, np.complexfloating)
    tapes = (6 if complex_ else 4) * num_layers + 1
    per_set = (tapes * n * m + 2 * num_layers * n * n) * (2 if complex_ else 1)
    return max(1, ELEMENT_BUDGET // per_set)


def _sweep_block(
    network: QuantumNetwork,
    mesh,
    k: int,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    dtype: np.dtype,
) -> Tuple[np.ndarray, np.ndarray]:
    """One block of :func:`adjoint_sweep`: ``k`` parameter sets.

    ``mesh`` fields carry a leading ``k`` axis, or none when they describe
    the one set of a ``k = 1`` block (they then broadcast).
    """
    layers = mesh.layers
    num_layers = layers.shape[-3]
    n, m = inputs.shape
    gate_shape = (k, num_layers, n - 1, m)
    xs, mus, rows, adjoints = _arena_tapes(
        dtype, (k, num_layers + 1, n, m), (k, num_layers, n, m),
        gate_shape, gate_shape,
    )

    # 1. Forward chain: xs[:, p] is the input of layer p.
    xs[:, 0] = inputs
    for p in range(num_layers):
        np.matmul(layers[..., p, :, :], xs[:, p], out=xs[:, p + 1])

    # 2. Loss and output adjoint per set, then the pull-back:
    #    mus[:, p] is the adjoint at the output of layer p.
    values = np.empty(k)
    for r in range(k):
        values[r], mus[r, -1] = _adjoint_loss_and_lambda(
            xs[r, -1], dtype, targets, loss, projection
        )
    back = np.swapaxes(
        layers.conj() if np.iscomplexobj(layers) else layers, -1, -2
    )
    for p in range(num_layers - 1, 0, -1):
        np.matmul(back[..., p, :, :], mus[:, p], out=mus[:, p - 1])

    # 3.-4. Gate tapes and the elementwise gradient read-off.
    r0, r1, l0, l1 = _gate_tapes(
        mesh, network.descending, xs[:, :num_layers], mus, rows, adjoints
    )
    if np.iscomplexobj(l0):
        l0, l1 = l0.conj(), l1.conj()
    r0l0 = np.einsum("...m,...m->...", r0, l0)
    r0l1 = np.einsum("...m,...m->...", r0, l1)
    r1l0 = np.einsum("...m,...m->...", r1, l0)
    r1l1 = np.einsum("...m,...m->...", r1, l1)
    c, s, pc, ps = mesh.c, mesh.s, mesh.pc, mesh.ps
    # dG/dtheta = [[-ps, -c], [pc, -s]], dG/dalpha = i [[pc, 0], [ps, 0]].
    gth = np.real(pc * r0l1 - ps * r0l0 - c * r1l0 - s * r1l1)
    grads = np.empty((k, network.num_parameters))
    num_thetas = network.num_thetas
    grads[:, :num_thetas] = gth.reshape(-1, num_thetas)
    if network.allow_phase:
        gal = np.real(1j * (pc * r0l0 + ps * r0l1))
        grads[:, num_thetas:] = gal.reshape(-1, num_thetas)
    return values, grads


def _arena_tapes(dtype: np.dtype, *shapes: Tuple[int, ...]) -> list:
    """C-contiguous ``dtype`` tapes of ``shapes`` (one per name in
    ``_TAPE_NAMES``), carved from the calling thread's arena.

    The tapes are uninitialised and overwritten by the next call on the
    same thread, so nothing a sweep returns may alias them.  The arena
    grows (one DEBUG record on ``repro.training.gradients``) only when the
    tapes outsize it; real and complex tapes share it, a complex element
    taking two float64 slots.  Tapes over ``ELEMENT_BUDGET`` float64s —
    a single parameter set too large for the budget — are allocated
    afresh and not kept.
    """
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes) * (dtype.itemsize // 8)
    if total > ELEMENT_BUDGET:
        buf = np.empty(total)
    else:
        if _ARENA.buf.size < total:
            _ARENA.buf = None  # release the old buffer before allocating
            _ARENA.buf = np.empty(total)
            _log.debug(
                "adjoint sweep tape arena grew to %d float64s (%s tapes: %s)",
                total,
                dtype.name,
                ", ".join(
                    f"{name} {size}" for name, size in zip(_TAPE_NAMES, sizes)
                ),
            )
        buf = _ARENA.buf
    flat = buf[:total].view(dtype)
    tapes = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        tapes.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return tapes


def _gate_tapes(
    mesh,
    descending: bool,
    x: np.ndarray,
    mu: np.ndarray,
    rows: np.ndarray,
    adjoints: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-gate rows and adjoints of every layer, ``(k, L, N-1, M)`` each.

    ``x`` holds the layer inputs and ``mu`` the adjoints at the layer
    outputs, ``(k, L, N, M)``; the recurrences write into ``rows`` and
    ``adjoints``, ``(k, L, N-1, M)``.  Entry ``j`` belongs to the gate on
    modes ``(j, j+1)``: ``r0, r1`` are the two rows it reads and
    ``l0, l1`` the adjoint at its two output rows.  Inside a chain each
    gate meets rows the others have finished with
    (``G = [[pc, -s], [ps, c]]``, pulled back by ``G^dagger``):

    - ascending: ``r0_0 = x_0``, ``r0_j = ps_{j-1} r0_{j-1} + c_{j-1}
      x_j``, ``r1_j = x_{j+1}``; ``l0_j = mu_j``, and ``l1_j = w_{j+1}^H
      mu`` with ``w`` the recurrence columns of
      :func:`~repro.backends.fold.chain_layers` (``l1_{N-2} = mu_{N-1}``,
      ``l1_j = conj(pc_{j+1}) mu_{j+1} + conj(ps_{j+1}) l1_{j+1}``);
    - descending: ``r0_j = x_j``, ``r1_{N-2} = x_{N-1}``, ``r1_{j-1} =
      pc_j x_j - s_j r1_j``; ``l1_j = mu_{j+1}``, and ``l0_j = u_j^T mu``
      with ``u`` the recurrence columns (``l0_0 = mu_0``, ``l0_j =
      c_{j-1} mu_j - s_{j-1} l0_{j-1}``).

    The row recurrence runs vectorised over ``(k, L, M)``; the adjoint
    one is a single batched GEMM on the columns the fold already built.
    """
    c, s, pc, ps = mesh.c, mesh.s, mesh.pc, mesh.ps
    cols = np.swapaxes(
        mesh.cols.conj() if np.iscomplexobj(mesh.cols) else mesh.cols, -1, -2
    )
    g = x.shape[2] - 1
    if not descending:
        r0 = rows
        r0[:, :, 0] = x[:, :, 0]
        for j in range(1, g):
            r0[:, :, j] = (
                ps[..., j - 1, None] * r0[:, :, j - 1]
                + c[..., j - 1, None] * x[:, :, j]
            )
        l1 = np.matmul(cols[..., 1:, :], mu, out=adjoints)
        return r0, x[:, :, 1:], mu[:, :, :g], l1
    r1 = rows
    r1[:, :, g - 1] = x[:, :, g]
    for j in range(g - 1, 0, -1):
        r1[:, :, j - 1] = (
            pc[..., j, None] * x[:, :, j] - s[..., j, None] * r1[:, :, j]
        )
    return x[:, :, :g], r1, np.matmul(cols, mu, out=adjoints), mu[:, :, 1:]


def _loss_and_grad_adjoint(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,  # unused; kept for signature parity
) -> Tuple[float, np.ndarray]:
    """Exact reverse-mode: :func:`adjoint_sweep`'s block with ``K = 1``,
    on the backend's cached fold when it matches.

    For gate ``g`` at modes ``(k, k+1)`` with pre-gate rows ``(r0, r1)`` the
    parameter gradient is ``Re <lambda, dG (r0, r1)>`` where ``lambda`` is
    the adjoint at the gate *output*.  Complex (``allow_phase``) networks
    read both the ``theta`` and ``alpha`` gradients off the same tapes.
    """
    backend = getattr(network, "backend", None)
    mesh = None if backend is None else backend.cached_mesh()
    if mesh is None:
        mesh = mesh_layers(network, network.get_flat_params()[None])
    values, grads = _sweep_block(
        network, mesh, 1, inputs, targets, loss, projection,
        network.result_dtype(inputs),
    )
    return float(values[0]), grads[0]


_METHODS: Dict[str, GradFn] = {
    "fd": _loss_and_grad_fd,
    "central": _loss_and_grad_central,
    "adjoint": _loss_and_grad_adjoint,
}

_DEFAULT_DELTAS: Dict[str, float] = {
    "fd": PAPER_DELTA,
    "central": 1e-6,
    "adjoint": 0.0,
}


def available_gradient_methods() -> list[str]:
    """Names accepted by :func:`loss_and_gradient`."""
    return sorted(_METHODS)


def loss_and_gradient(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Optional[Loss] = None,
    projection: Optional[Projection] = None,
    method: GradientMethod = "adjoint",
    delta: Optional[float] = None,
) -> Tuple[float, np.ndarray]:
    """Compute ``(loss, dL/dparams)`` for ``loss(P(U(params) inputs), targets)``.

    Parameters
    ----------
    network:
        The trainable :class:`QuantumNetwork`; its parameters are restored
        unchanged on return (FD methods mutate temporarily).
    inputs:
        ``(N, M)`` fixed input amplitudes.
    targets:
        ``(N, M)`` target amplitudes (zero outside the kept subspace when a
        projection is supplied).
    loss:
        A :class:`~repro.training.loss.Loss`; defaults to Algorithm 1's
        mean-normalised squared error.
    projection:
        ``P1`` applied between the network and the loss (compression
        training); ``None`` for reconstruction training.
    method:
        One of :func:`available_gradient_methods`.
    delta:
        FD step; defaults to the paper's ``1e-8`` for ``"fd"`` and ``1e-6``
        for ``"central"``; ignored by ``"adjoint"``.

    Examples
    --------
    >>> import numpy as np
    >>> net = QuantumNetwork(4, 1).initialize("uniform", rng=np.random.default_rng(3))
    >>> x = np.eye(4)[:, :2]
    >>> t = np.eye(4)[:, 2:4]
    >>> l1, g1 = loss_and_gradient(net, x, t, method="adjoint")
    >>> l2, g2 = loss_and_gradient(net, x, t, method="central")
    >>> bool(np.allclose(g1, g2, atol=1e-8))
    True
    """
    key = str(method).lower()
    if key not in _METHODS:
        raise GradientError(
            f"unknown gradient method {method!r}; available: "
            f"{available_gradient_methods()}"
        )
    arr, tgt, loss = _checked_problem(
        network, inputs, targets, loss, projection
    )
    step = _DEFAULT_DELTAS[key] if delta is None else float(delta)
    if key in ("fd", "central") and step <= 0:
        raise GradientError(f"delta must be positive for {key!r}, got {step}")
    return _METHODS[key](network, arr, tgt, loss, projection, step)
