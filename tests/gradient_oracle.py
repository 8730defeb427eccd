"""Per-gate reference gradients: the oracle the library's gradients are
tested against.

The library drives every gradient one way: the layer-level adjoint sweep
(``method="adjoint"``) and the prefix/suffix workspace's batched
contractions (``fd``/``central`` on the ``fused`` backend).  This module
keeps the one-parameter / one-gate walks those replaced, for the tests
only:

- :func:`reference_workspace` builds a workspace's base output, prefix-row
  tape and suffix columns by a per-gate traced forward pass and a per-gate
  reverse sweep, with the loop backend's two-row kernel;
- :func:`perturbed_output`, :func:`derivative_output` and
  :func:`output_with_block` read one parameter's output off any workspace
  in ``O(N M)``;
- :func:`looped_loss_and_gradient` is ``loss_and_gradient`` driven one
  parameter at a time over the backend's own workspace (so it differs
  from the batched contractions by reassociation only), and, for
  ``"adjoint"``, by a per-gate walk over the reference tape.  It also
  takes ``method="derivative"``, an exact forward mode the library does
  not have: each parameter's derivative-gate output ``S_i dG_i P_i X``
  read off the backend's workspace, or off :func:`reference_workspace`
  on a backend without one, so it is the independent check of
  ``"adjoint"``;
- :class:`InfidelityLoss` is a second :class:`~repro.training.loss.Loss`
  (``value`` and ``dvalue`` only), so the tests exercise the gradient
  engines' loss-agnostic paths, the base ``Loss.value_many`` fallback
  and the complex ``lam`` convention on a loss other than Eq. (5).

Tests import it as ``gradient_oracle`` (this directory is on ``sys.path``
next to ``conftest.py``).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.program import compile_program
from repro.exceptions import GradientError
from repro.network.projection import Projection
from repro.simulator.gates import BeamsplitterGate, apply_givens_batch
from repro.training.gradients import (
    _DEFAULT_DELTAS,
    _adjoint_loss_and_lambda,
    _checked_problem,
    _project_and_eval,
    loss_and_gradient,
)
from repro.training.loss import Loss

__all__ = [
    "InfidelityLoss",
    "derivative_output",
    "looped_loss_and_gradient",
    "output_with_block",
    "perturbed_output",
    "reference_workspace",
]


class InfidelityLoss(Loss):
    """``L = sum_i (1 - |<target_i|out_i>|^2)``, summed over samples.

    The quantum-autoencoder objective of paper ref. [15]: the output state
    must match the target state up to a global phase.
    """

    def value(self, output: np.ndarray, target: np.ndarray) -> float:
        out = output.reshape(output.shape[0], -1)
        tgt = target.reshape(target.shape[0], -1)
        overlaps = np.einsum("nm,nm->m", np.conj(tgt), out)
        return float(np.sum(1.0 - np.abs(overlaps) ** 2))

    def dvalue(self, output: np.ndarray, target: np.ndarray) -> np.ndarray:
        out = output.reshape(output.shape[0], -1)
        tgt = target.reshape(target.shape[0], -1)
        overlaps = np.einsum("nm,nm->m", np.conj(tgt), out)
        # Gradient convention: dL = Re <conj(lam), d out>.  With
        # L = -|<t|o>|^2, dL = -2 Re(conj(<t|o>) <t|d o>), so
        # lam = -2 <t|o> t (no conjugate on the overlap); for real arrays
        # this reduces to -2 <t|o> t either way.
        grad = -2.0 * tgt * overlaps[None, :]
        if not np.iscomplexobj(output):
            grad = np.real(grad)
        return grad.reshape(output.shape)


# ----------------------------------------------------------------------
# the per-gate workspace build
# ----------------------------------------------------------------------
def reference_workspace(network, inputs) -> PrefixSuffixWorkspace:
    """A workspace of ``network`` at ``inputs`` whose ``base_output``,
    ``row_tape`` and ``suffix_cols`` come from per-gate sweeps (works for
    any gate order).

    ``row_tape[g]`` holds rows ``(k, k+1)`` of the state immediately
    before gate ``g`` (program order) was applied; the forward pass applies
    each gate with the loop backend's kernel, so ``base_output`` equals
    the loop backend's forward pass bitwise.
    """
    arr = np.asarray(inputs)
    program = compile_program(network)
    dtype = network.result_dtype(arr)
    params = network.get_flat_params()
    num_thetas = program.num_thetas
    ws = PrefixSuffixWorkspace.__new__(PrefixSuffixWorkspace)
    ws.program, ws.dtype = program, dtype
    ws.num_thetas = num_thetas
    ws.num_parameters = program.num_parameters
    ws._thetas = params[:num_thetas]
    ws._alphas = (
        params[num_thetas:] if program.allow_phase else np.zeros(num_thetas)
    )
    ws._gate_of_param = program.gate_for_parameter()
    thetas, alphas = ws._thetas, ws._alphas
    n, m = arr.shape
    total = program.num_gates
    modes = program.modes
    theta_index = program.theta_index

    # Traced forward: record the two prefix rows seen by every gate, then
    # apply the gate with the reference kernel.
    row_tape = np.empty((total, 2, m), dtype=dtype)
    state = np.array(arr, dtype=dtype, copy=True)
    for g in range(total):
        k = int(modes[g])
        i = theta_index[g]
        row_tape[g, 0] = state[k]
        row_tape[g, 1] = state[k + 1]
        apply_givens_batch(state, k, float(thetas[i]), alpha=float(alphas[i]))
    ws.row_tape = row_tape
    ws.base_output = state

    # Reverse sweep: S starts as the identity (suffix of the last gate)
    # and folds gates in right-to-left, S <- S @ G_g; only the two
    # columns touching the gate's modes are ever read.
    suffix_cols = np.empty((total, n, 2), dtype=dtype)
    s_mat = np.eye(n, dtype=dtype)
    for g in range(total - 1, -1, -1):
        k = int(modes[g])
        suffix_cols[g, :, 0] = s_mat[:, k]
        suffix_cols[g, :, 1] = s_mat[:, k + 1]
        i = theta_index[g]
        c = math.cos(float(thetas[i]))
        s = math.sin(float(thetas[i]))
        alpha = float(alphas[i])
        col_k = s_mat[:, k].copy()
        col_k1 = s_mat[:, k + 1]
        if alpha == 0.0:
            # (S @ G)[:, k] = c S[:,k] + s S[:,k+1]
            s_mat[:, k] = c * col_k + s * col_k1
        else:
            phase = complex(math.cos(alpha), math.sin(alpha))
            s_mat[:, k] = phase * (c * col_k + s * col_k1)
        s_mat[:, k + 1] = -s * col_k + c * col_k1
    ws.suffix_cols = suffix_cols
    return ws


# ----------------------------------------------------------------------
# one parameter's output off a workspace
# ----------------------------------------------------------------------
def _param_gate(ws, param_index: int) -> Tuple[int, int, bool]:
    """Resolve a flat parameter index to ``(gate, theta_index, wrt_alpha)``."""
    if not 0 <= param_index < ws.num_parameters:
        raise GradientError(
            f"parameter index {param_index} out of range "
            f"[0, {ws.num_parameters})"
        )
    wrt_alpha = param_index >= ws.num_thetas
    i = param_index - ws.num_thetas if wrt_alpha else param_index
    return int(ws._gate_of_param[param_index]), i, wrt_alpha


def _gate(ws, theta_index: int) -> BeamsplitterGate:
    """The gate holding parameter slot ``theta_index`` (mode is unused
    here — only the ``2 x 2`` algebra of :class:`BeamsplitterGate`)."""
    return BeamsplitterGate(
        0, float(ws._thetas[theta_index]), float(ws._alphas[theta_index])
    )


def output_with_block(ws, gate: int, block: np.ndarray) -> np.ndarray:
    """Network output with gate ``gate``'s ``2 x 2`` block replaced:
    ``U X + S (block - T) (P X)``, exact up to rounding, in ``O(N M)``."""
    i = int(ws.program.theta_index[gate])
    d = (block - _gate(ws, i).matrix2()) @ ws.row_tape[gate]
    return ws.base_output + ws.suffix_cols[gate] @ d


def perturbed_output(ws, param_index: int, delta: float) -> np.ndarray:
    """Output with flat parameter ``param_index`` shifted by ``delta``."""
    gate, i, wrt_alpha = _param_gate(ws, param_index)
    base = _gate(ws, i)
    if wrt_alpha:
        block = BeamsplitterGate(0, base.theta, base.alpha + delta).matrix2()
    else:
        block = BeamsplitterGate(0, base.theta + delta, base.alpha).matrix2()
    return output_with_block(ws, gate, block)


def derivative_output(ws, param_index: int) -> np.ndarray:
    """Exact derivative-gate output ``S_i (dG_i) (P_i X)``: the forward
    pass with gate ``i`` replaced by its parameter derivative."""
    gate, i, wrt_alpha = _param_gate(ws, param_index)
    base = _gate(ws, i)
    dblock = base.dmatrix2_dalpha() if wrt_alpha else base.dmatrix2_dtheta()
    return ws.suffix_cols[gate] @ (dblock @ ws.row_tape[gate])


# ----------------------------------------------------------------------
# the looped drives
# ----------------------------------------------------------------------
def _looped_difference_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
    delta: float,
    central: bool,
) -> Tuple[float, np.ndarray]:
    """Workspace-backed stencil, one parameter at a time."""
    base = _project_and_eval(ws.base_output.copy(), targets, loss, projection)
    grad = np.empty(num_params)
    for i in range(num_params):
        plus = _project_and_eval(
            perturbed_output(ws, i, delta), targets, loss, projection
        )
        if central:
            minus = _project_and_eval(
                perturbed_output(ws, i, -delta), targets, loss, projection
            )
            grad[i] = (plus - minus) / (2.0 * delta)
        else:
            grad[i] = (plus - base) / delta
    return base, grad


def _looped_derivative_grad(
    ws,
    num_params: int,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Exact forward-mode over the workspace, one parameter at a time:
    ``Re <P lam, S_i dG_i (P_i X)>`` with ``lam`` the output adjoint."""
    out = ws.base_output.copy()
    if projection is not None:
        projection.apply_inplace(out)
    base = loss.value(out, targets)
    lam = loss.dvalue(out, targets)
    if projection is not None:
        lam = projection.apply(lam)
    grad = np.zeros(num_params)
    for i in range(num_params):
        dout = derivative_output(ws, i)
        if projection is not None:
            projection.apply_inplace(dout)
        grad[i] = float(np.real(np.sum(np.conj(lam) * dout)))
    return base, grad


def _looped_adjoint(
    network,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    projection: Optional[Projection],
) -> Tuple[float, np.ndarray]:
    """Exact reverse-mode by a per-gate walk over the reference tape.

    For gate ``g`` at modes ``(k, k+1)`` with pre-gate rows ``(r0, r1)``
    the parameter gradient is ``Re <lambda, dG (r0, r1)>`` where
    ``lambda`` is the adjoint at the gate *output*; the adjoint is then
    pulled back through ``G^dagger`` (``G^T`` for a real network) before
    moving to the previous gate.
    """
    ref = reference_workspace(network, inputs)
    tape = ref.row_tape
    base, lam = _adjoint_loss_and_lambda(
        ref.base_output, tape.dtype, targets, loss, projection
    )
    program = ref.program
    thetas, alphas = ref._thetas, ref._alphas
    off = network.num_thetas
    grad = np.zeros(network.num_parameters)
    for g in range(program.num_gates - 1, -1, -1):
        k = int(program.modes[g])
        i = int(program.theta_index[g])
        c, s = math.cos(thetas[i]), math.sin(thetas[i])
        r0, r1 = tape[g, 0], tape[g, 1]
        l0 = lam[k].copy()  # copy: lam[k] is a view we overwrite below
        l1 = lam[k + 1]
        if not np.iscomplexobj(tape):
            # dG rows: [-s*r0 - c*r1, c*r0 - s*r1]
            grad[i] = float(
                np.dot(l0, -s * r0 - c * r1) + np.dot(l1, c * r0 - s * r1)
            )
            # Pull the adjoint back through G^T = [[c, s], [-s, c]].
            lam[k] = c * l0 + s * l1
            lam[k + 1] = -s * l0 + c * l1
            continue
        # Complex: gates are T(theta, alpha); the adjoint pulls back
        # through G^dagger = [[e^{-ia} c, e^{-ia} s], [-s, c]].
        alpha = float(alphas[i])
        phase = complex(math.cos(alpha), math.sin(alpha))
        # dG/dtheta rows: [-e^{ia} s r0 - c r1, e^{ia} c r0 - s r1]
        grad[i] = float(
            np.real(
                np.sum(np.conj(l0) * (-phase * s * r0 - c * r1))
                + np.sum(np.conj(l1) * (phase * c * r0 - s * r1))
            )
        )
        if network.allow_phase:
            # dG/dalpha rows: [i e^{ia} c r0, i e^{ia} s r0]
            dphase = 1j * phase
            grad[off + i] = float(
                np.real(
                    np.sum(np.conj(l0) * (dphase * c * r0))
                    + np.sum(np.conj(l1) * (dphase * s * r0))
                )
            )
        lam[k] = phase.conjugate() * (c * l0 + s * l1)
        lam[k + 1] = -s * l0 + c * l1
    return base, grad


def looped_loss_and_gradient(
    network,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Optional[Loss] = None,
    projection: Optional[Projection] = None,
    method: str = "adjoint",
    delta: Optional[float] = None,
) -> Tuple[float, np.ndarray]:
    """``loss_and_gradient`` driven one parameter / one gate at a time.

    Same signature and contract as
    :func:`repro.training.gradients.loss_and_gradient`, plus
    ``method="derivative"``.  ``adjoint`` walks the gates of
    :func:`reference_workspace`'s tape on any backend; ``derivative``
    takes one parameter at a time through the backend's own workspace, or
    :func:`reference_workspace` on a backend without one; ``fd`` and
    ``central`` take one parameter at a time through the backend's own
    workspace, or, on a backend without one, the library's re-execution
    path (which already goes one parameter at a time).
    """
    arr, tgt, loss = _checked_problem(
        network, inputs, targets, loss, projection
    )
    key = str(method).lower()
    if key == "adjoint":
        return _looped_adjoint(network, arr, tgt, loss, projection)
    ws = network.backend.gradient_workspace(arr)
    if key == "derivative":
        if ws is None:
            ws = reference_workspace(network, arr)
        return _looped_derivative_grad(
            ws, network.num_parameters, tgt, loss, projection
        )
    if ws is None:
        return loss_and_gradient(
            network, arr, tgt, loss=loss, projection=projection,
            method=key, delta=delta,
        )
    step = _DEFAULT_DELTAS[key] if delta is None else float(delta)
    return _looped_difference_grad(
        ws, network.num_parameters, tgt, loss, projection, step,
        central=key == "central",
    )
