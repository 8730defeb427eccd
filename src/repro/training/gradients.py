"""Gradient engines for quantum-network training.

Four interchangeable methods compute ``(loss, dL/dparams)`` for a network
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
``"derivative"``
    Exact forward-mode: re-runs the circuit with gate ``g`` replaced by its
    parameter derivative (for the real Givens gate,
    ``dG/dtheta = G(theta + pi/2)`` restricted to the 2x2 block and zero
    elsewhere).  Exact to float64; cost ``num_params + 1`` passes.
``"adjoint"``
    Exact reverse-mode: one traced forward pass + one backward sweep for
    *all* parameters.  This is the fast path (``O(P)`` total gate work
    instead of ``O(P^2)``) and is bit-identical to ``"derivative"`` up
    to rounding.  Supports complex (``allow_phase``) networks: the sweep
    pulls the adjoint back through ``G^dagger`` and reads off both the
    ``theta`` and ``alpha`` gradients from the same tape.  The sweep is
    *vectorised* by default (``engine="batched"``): stacked per-layer
    GEMMs via the prefix/suffix workspace's cross-layer recurrence on
    any backend; the per-gate Python walk over
    :meth:`QuantumNetwork.forward_trace` remains as the
    ``engine="looped"`` reference (``benchmarks/bench_gradients.py``
    gates the vectorised sweep at >= 3x over it).

All methods share the signature of :func:`loss_and_gradient`; the trainer
selects by name so benchmarks can ablate the choice (exp id ``abl-grad``).

**Backend acceleration.**  When the network's execution backend advertises
``supports_cached_gradients`` (the ``"fused"`` backend does), the ``fd``,
``central`` and ``derivative`` methods route each per-parameter pass
through a :class:`~repro.backends.cached.PrefixSuffixWorkspace`: perturbing
parameter ``i`` recomputes only ``suffix_i @ G_i' @ prefix_i`` instead of
the whole circuit, dropping the per-gradient cost from ``O(P^2 M)`` gate
work to ``O(P N (N + M))``.  The cached path never mutates the network's
parameters and agrees with the re-execution path up to the method's own
rounding floor (exactly for ``derivative``; within the finite-difference
cancellation noise ``~ulp(loss)/delta`` for ``fd``/``central``).  The
``"loop"`` backend always takes the bit-exact re-execution path.

**Engines.**  The workspace-backed methods come in two drive modes,
selected by ``engine`` (CLI ``--grad-engine``):

``"batched"`` (default)
    Stacks all of a layer's parameter perturbations into single einsums
    over the cached prefix/suffix arrays
    (:meth:`PrefixSuffixWorkspace.perturbed_outputs` /
    :meth:`~repro.backends.cached.PrefixSuffixWorkspace.derivative_gradients`)
    and scores them with one vectorised :meth:`Loss.value_many` call —
    ``O(num_layers)`` batched contractions per gradient.
``"looped"``
    The reference drive: one parameter at a time through the same
    workspace, and the per-gate tape walk for ``adjoint``.  Bit-exact
    anchor for the batched path; agreement is ``<= 1e-8`` for every
    method (``benchmarks/bench_gradients.py`` gates this plus ``>= 3x``
    speedups at the paper's configuration).

The engine choice selects the drive for workspace-backed evaluations and
for the adjoint sweep (vectorised vs the per-gate reference walk);
only the re-execution fallback of ``fd``/``central``/``derivative``
ignores it.  See ``docs/gradients.md`` for the full method x backend x
engine matrix.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import GradientError
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.loss import Loss, SquaredErrorLoss

__all__ = [
    "GradientMethod",
    "GradientEngine",
    "loss_and_gradient",
    "available_gradient_methods",
    "available_gradient_engines",
    "validate_gradient_engine",
    "DEFAULT_GRADIENT_ENGINE",
    "PAPER_DELTA",
]

#: The differential step size of Eq. (8), "uniformly set to 1e-8".
PAPER_DELTA: float = 1e-8

GradientMethod = str
GradientEngine = str

GradFn = Callable[..., Tuple[float, np.ndarray]]

_ENGINES = ("batched", "looped")

#: Engine used when ``engine=None``: the layer-batched einsum drive.
DEFAULT_GRADIENT_ENGINE: GradientEngine = "batched"


def available_gradient_engines() -> list[str]:
    """Engine names accepted by :func:`loss_and_gradient` (``engine=...``)."""
    return sorted(_ENGINES)


def validate_gradient_engine(
    name: Optional[str], error_cls: type = GradientError
) -> GradientEngine:
    """Normalise and check an engine name (``None`` -> the default).

    The single source of truth for trainer/config/CLI-level validation;
    higher layers pass their own ``error_cls``.
    """
    if name is None:
        return DEFAULT_GRADIENT_ENGINE
    key = str(name).lower()
    if key not in _ENGINES:
        raise error_cls(
            f"unknown gradient engine {name!r}; available: "
            f"{available_gradient_engines()}"
        )
    return key


def _projected_output(
    network: QuantumNetwork,
    inputs: np.ndarray,
    projection: Optional[Projection],
) -> np.ndarray:
    out = network.forward(inputs)
    if projection is not None:
        projection.apply_inplace(out)
    return out


def _evaluate(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> float:
    return loss.value(_projected_output(network, inputs, projection), targets)


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


def _looped_difference_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
    central: bool,
) -> Tuple[float, np.ndarray]:
    """Workspace-backed stencil, one parameter at a time (the reference)."""
    base = _project_and_eval(ws.base_output.copy(), targets, loss, projection)
    grad = np.empty(num_params)
    for i in range(num_params):
        plus = _project_and_eval(
            ws.perturbed_output(i, delta), targets, loss, projection
        )
        if central:
            minus = _project_and_eval(
                ws.perturbed_output(i, -delta), targets, loss, projection
            )
            grad[i] = (plus - minus) / (2.0 * delta)
        else:
            grad[i] = (plus - base) / delta
    return base, grad


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


def _difference_grad(
    ws,
    engine: GradientEngine,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
    central: bool,
) -> Tuple[float, np.ndarray]:
    fn = (
        _batched_difference_grad
        if engine == "batched"
        else _looped_difference_grad
    )
    return fn(ws, num_params, targets, loss, projection, delta, central)


def _loss_and_grad_fd(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
    engine: GradientEngine,
) -> Tuple[float, np.ndarray]:
    """Forward finite differences (Eq. 8 of the paper)."""
    ws = _workspace_or_none(network, inputs)
    if ws is not None:
        return _difference_grad(
            ws, engine, network.num_parameters, targets, loss, projection,
            delta, central=False,
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
    engine: GradientEngine,
) -> Tuple[float, np.ndarray]:
    """Central finite differences (second-order accurate)."""
    ws = _workspace_or_none(network, inputs)
    if ws is not None:
        return _difference_grad(
            ws, engine, network.num_parameters, targets, loss, projection,
            delta, central=True,
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


def _forward_with_derivative_gate(
    network: QuantumNetwork,
    inputs: np.ndarray,
    target_layer: int,
    target_gate: int,
    wrt_alpha: bool,
) -> np.ndarray:
    """Forward pass with one gate replaced by its parameter derivative.

    The derivative of the *embedded* gate matrix is zero outside the 2x2
    block, so after the derivative gate only rows ``(k, k+1)`` carry signal
    and every other row is zeroed.
    """
    data = np.array(inputs, dtype=network.result_dtype(inputs), copy=True)
    from repro.simulator.gates import apply_givens_batch

    for p, layer in enumerate(network.layers):
        alphas = layer.alphas
        for k in layer.mode_sequence():
            k = int(k)
            theta = float(layer.thetas[k])
            alpha = 0.0 if alphas is None else float(alphas[k])
            if p == target_layer and k == target_gate:
                r0 = data[k].copy()
                r1 = data[k + 1].copy()
                data[:] = 0
                c, s = math.cos(theta), math.sin(theta)
                if not wrt_alpha:
                    if alpha == 0.0:
                        # dG/dtheta = [[-s, -c], [c, -s]]
                        data[k] = -s * r0 - c * r1
                        data[k + 1] = c * r0 - s * r1
                    else:
                        phase = complex(math.cos(alpha), math.sin(alpha))
                        data[k] = -phase * s * r0 - c * r1
                        data[k + 1] = phase * c * r0 - s * r1
                else:
                    dphase = 1j * complex(math.cos(alpha), math.sin(alpha))
                    data[k] = dphase * c * r0
                    data[k + 1] = dphase * s * r0
            else:
                apply_givens_batch(data, k, theta, alpha=alpha)
    return data


def _workspace_loss_and_adjoint(
    ws,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Base loss and (projected) output-side adjoint from a workspace."""
    out = ws.base_output.copy()
    if projection is not None:
        projection.apply_inplace(out)
    base = loss.value(out, targets)
    lam = loss.dvalue(out, targets)
    if projection is not None:
        lam = projection.apply(lam)
    return base, lam


def _looped_derivative_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Exact forward-mode over the workspace, one parameter at a time."""
    base, lam = _workspace_loss_and_adjoint(ws, targets, loss, projection)
    grad = np.zeros(num_params)
    for i in range(num_params):
        dout = ws.derivative_output(i)
        if projection is not None:
            projection.apply_inplace(dout)
        grad[i] = float(np.real(np.sum(np.conj(lam) * dout)))
    return base, grad


def _batched_derivative_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Exact forward-mode, one suffix-folded contraction per layer.

    ``lam`` is already projected, and the projection is a diagonal 0/1
    mask, so ``<P lam, P dout> == <P lam, dout>`` — the derivative stacks
    never need masking (or materialising; see
    :meth:`PrefixSuffixWorkspace.derivative_gradients`).
    """
    base, lam = _workspace_loss_and_adjoint(ws, targets, loss, projection)
    grad = np.empty(num_params)
    for idx in ws.param_chunks():
        grad[idx] = ws.derivative_gradients(idx, lam)
    return base, grad


def _loss_and_grad_derivative(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,  # unused; kept for signature parity
    engine: GradientEngine,
) -> Tuple[float, np.ndarray]:
    """Exact forward-mode via per-parameter derivative-gate passes."""
    ws = _workspace_or_none(network, inputs)
    if ws is not None:
        fn = (
            _batched_derivative_grad
            if engine == "batched"
            else _looped_derivative_grad
        )
        return fn(ws, network.num_parameters, targets, loss, projection)
    out = _projected_output(network, inputs, projection)
    base = loss.value(out, targets)
    lam = loss.dvalue(out, targets)
    if projection is not None:
        lam = projection.apply(lam)
    grad = np.zeros(network.num_parameters)
    g = network.gates_per_layer
    for p, layer in enumerate(network.layers):
        for k in range(g):
            dout = _forward_with_derivative_gate(network, inputs, p, k, False)
            if projection is not None:
                projection.apply_inplace(dout)
            grad[p * g + k] = float(np.real(np.sum(np.conj(lam) * dout)))
    if network.allow_phase:
        off = network.num_thetas
        for p, layer in enumerate(network.layers):
            for k in range(g):
                dout = _forward_with_derivative_gate(
                    network, inputs, p, k, True
                )
                if projection is not None:
                    projection.apply_inplace(dout)
                grad[off + p * g + k] = float(
                    np.real(np.sum(np.conj(lam) * dout))
                )
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


def _adjoint_vectorized(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Vectorised adjoint: per-layer GEMMs instead of a per-gate walk.

    Builds the prefix/suffix workspace — the chain recurrence of
    :mod:`repro.backends.fold` plus ``O(num_layers)`` stacked GEMMs in
    :meth:`PrefixSuffixWorkspace._build_vectorized`, with no per-gate
    Python work — and contracts the loss
    adjoint through the suffix columns, reading the ``theta`` and
    ``alpha`` gradients off the one tape.  Mathematically identical to
    the per-gate backward walk (both compute
    ``Re <lam, S_i dG_i (P_i X)>``); agreement is at rounding level
    (<= 1e-12 on unit problems).

    Works on any backend: caching backends serve the workspace
    themselves, others (the ``loop`` reference) get one built directly
    from their compiled program.
    """
    backend = getattr(network, "backend", None)
    if backend is not None and backend.supports_cached_gradients:
        ws = backend.gradient_workspace(inputs)
    else:
        from repro.backends.cached import PrefixSuffixWorkspace
        from repro.backends.program import compile_program

        program = (
            backend.program if backend is not None else compile_program(network)
        )
        ws = PrefixSuffixWorkspace(network, program, inputs)
    return _batched_derivative_grad(
        ws, network.num_parameters, targets, loss, projection
    )


def _loss_and_grad_adjoint(
    network: QuantumNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,  # unused; kept for signature parity
    engine: GradientEngine,
) -> Tuple[float, np.ndarray]:
    """Exact reverse-mode: one traced forward + one backward sweep.

    For gate ``g`` at modes ``(k, k+1)`` with pre-gate rows ``(r0, r1)`` the
    parameter gradient is ``Re <lambda, dG (r0, r1)>`` where ``lambda`` is
    the adjoint at the gate *output*; the adjoint is then pulled back
    through ``G^dagger`` (``G^T`` for the paper's real network) before
    moving to the previous gate.  Complex (``allow_phase``) networks read
    both the ``theta`` and ``alpha`` gradients off the same tape.

    Two drives compute that same contraction:

    - ``engine="looped"`` — the per-gate Python walk below, the
      bit-exact reference;
    - ``engine="batched"`` (default) — the numpy vectorised sweep
      (:func:`_adjoint_vectorized`), stacked per-layer GEMMs via the
      prefix/suffix workspace's cross-layer recurrence.
    """
    if engine == "batched":
        return _adjoint_vectorized(network, inputs, targets, loss, projection)
    trace = network.forward_trace(np.asarray(inputs))
    base, lam = _adjoint_loss_and_lambda(
        trace.output, trace.row_tape.dtype, targets, loss, projection
    )

    if not np.iscomplexobj(trace.row_tape):
        # Real fast path — bit-identical to the pre-complex implementation.
        grad = np.zeros(network.num_thetas)
        g_per_layer = network.gates_per_layer
        thetas = network.theta_matrix
        for g in range(trace.modes.size - 1, -1, -1):
            p = int(trace.gate_index[g, 0])
            k = int(trace.gate_index[g, 1])
            theta = thetas[p, k]
            c, s = math.cos(theta), math.sin(theta)
            r0 = trace.row_tape[g, 0]
            r1 = trace.row_tape[g, 1]
            l0 = lam[k].copy()  # copy: lam[k] is a view we overwrite below
            l1 = lam[k + 1]
            # dG rows: [-s*r0 - c*r1, c*r0 - s*r1]
            grad[p * g_per_layer + k] = float(
                np.dot(l0, -s * r0 - c * r1) + np.dot(l1, c * r0 - s * r1)
            )
            # Pull the adjoint back through G^T = [[c, s], [-s, c]].
            lam[k] = c * l0 + s * l1
            lam[k + 1] = -s * l0 + c * l1
        return base, grad

    # Complex path: gates are T(theta, alpha); the adjoint pulls back
    # through G^dagger = [[e^{-ia} c, e^{-ia} s], [-s, c]].
    allow_phase = network.allow_phase
    grad = np.zeros(network.num_parameters)
    g_per_layer = network.gates_per_layer
    thetas = network.theta_matrix
    off = network.num_thetas
    layers = network.layers
    for g in range(trace.modes.size - 1, -1, -1):
        p = int(trace.gate_index[g, 0])
        k = int(trace.gate_index[g, 1])
        theta = thetas[p, k]
        c, s = math.cos(theta), math.sin(theta)
        alphas = layers[p].alphas
        alpha = 0.0 if alphas is None else float(alphas[k])
        phase = complex(math.cos(alpha), math.sin(alpha))
        r0 = trace.row_tape[g, 0]
        r1 = trace.row_tape[g, 1]
        l0 = lam[k].copy()  # copy: lam[k] is a view we overwrite below
        l1 = lam[k + 1]
        # dG/dtheta rows: [-e^{ia} s r0 - c r1, e^{ia} c r0 - s r1]
        grad[p * g_per_layer + k] = float(
            np.real(
                np.sum(np.conj(l0) * (-phase * s * r0 - c * r1))
                + np.sum(np.conj(l1) * (phase * c * r0 - s * r1))
            )
        )
        if allow_phase:
            # dG/dalpha rows: [i e^{ia} c r0, i e^{ia} s r0]
            dphase = 1j * phase
            grad[off + p * g_per_layer + k] = float(
                np.real(
                    np.sum(np.conj(l0) * (dphase * c * r0))
                    + np.sum(np.conj(l1) * (dphase * s * r0))
                )
            )
        pc = phase.conjugate()
        lam[k] = pc * (c * l0 + s * l1)
        lam[k + 1] = -s * l0 + c * l1
    return base, grad


_METHODS: Dict[str, GradFn] = {
    "fd": _loss_and_grad_fd,
    "central": _loss_and_grad_central,
    "derivative": _loss_and_grad_derivative,
    "adjoint": _loss_and_grad_adjoint,
}

_DEFAULT_DELTAS: Dict[str, float] = {
    "fd": PAPER_DELTA,
    "central": 1e-6,
    "derivative": 0.0,
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
    engine: Optional[GradientEngine] = None,
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
        One of ``"fd"``, ``"central"``, ``"derivative"``, ``"adjoint"``.
    delta:
        FD step; defaults to the paper's ``1e-8`` for ``"fd"`` and ``1e-6``
        for ``"central"``; ignored by the exact methods.
    engine:
        How the gradient is driven: ``"batched"`` (the default —
        layer-stacked einsums for the workspace methods, the
        vectorised sweep for ``"adjoint"``) or ``"looped"`` (one
        parameter / one gate at a time, the bit-exact reference).
        Ignored only by the re-execution fallback of
        ``fd``/``central``/``derivative`` (networks whose backend lacks
        ``supports_cached_gradients``).

    Examples
    --------
    >>> import numpy as np
    >>> net = QuantumNetwork(4, 1).initialize("uniform", rng=np.random.default_rng(3))
    >>> x = np.eye(4)[:, :2]
    >>> t = np.eye(4)[:, 2:4]
    >>> l1, g1 = loss_and_gradient(net, x, t, method="adjoint")
    >>> l2, g2 = loss_and_gradient(net, x, t, method="derivative")
    >>> bool(np.allclose(g1, g2, atol=1e-10))
    True
    """
    key = str(method).lower()
    if key not in _METHODS:
        raise GradientError(
            f"unknown gradient method {method!r}; available: "
            f"{available_gradient_methods()}"
        )
    eng = validate_gradient_engine(engine)
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
    step = _DEFAULT_DELTAS[key] if delta is None else float(delta)
    if key in ("fd", "central") and step <= 0:
        raise GradientError(f"delta must be positive for {key!r}, got {step}")
    return _METHODS[key](network, arr, tgt, loss, projection, step, eng)
