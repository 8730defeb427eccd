"""Prefix/suffix caching for finite-difference gradients.

The paper trains with per-parameter finite differences (Eq. 8): every
gradient evaluation perturbs one parameter and re-runs the whole circuit,
``P + 1`` full forward passes of ``P`` gates each — ``O(P^2)`` gate work.
But perturbing parameter ``i`` only changes gate ``G_i``; writing the
network as

.. math::

    U = S_i \\, G_i \\, P_i, \\qquad
    P_i = G_{i-1} \\cdots G_1, \\quad S_i = G_P \\cdots G_{i+1},

the perturbed output is

.. math::

    U' X = S_i G_i' P_i X
         = U X + S_i \\, (G_i' - G_i) \\, (P_i X),

where ``G_i' - G_i`` is zero outside the gate's ``2 x 2`` block.  So with

- the *prefix rows* ``(P_i X)[k_i : k_i+2]`` (recorded in one traced
  forward pass, ``O(P M)`` memory),
- the *suffix columns* ``S_i[:, k_i : k_i+2]`` (recorded in one reverse
  accumulation sweep, ``O(P N)`` memory),
- and the unperturbed output ``U X``,

each perturbed output costs one ``(2 x 2) @ (2 x M)`` product plus one
``(N x 2) @ (2 x M)`` product — ``O(N M)`` instead of ``O(P N M)``.  A full
finite-difference gradient drops from ``O(P^2 M)`` gate work to
``O(P (N + M) N)``.

:class:`PrefixSuffixWorkspace` records all three artefacts for one
``(parameters, inputs)`` pair; :mod:`repro.training.gradients` builds one
per ``fd``/``central`` gradient evaluation when the network's backend
advertises ``supports_cached_gradients`` (the exact
``adjoint`` method needs no suffix columns: its sweep pulls the adjoint
back a layer at a time, see :func:`repro.training.gradients.adjoint_sweep`).

**Batched contractions.**  Run one parameter at a time, the products
above would still be a Python loop over ``P`` parameters.
:meth:`PrefixSuffixWorkspace.perturbed_outputs` stacks the ``(2 x 2)``
blocks of many parameters into ``(P, 2, 2)`` arrays and contracts them
against the gathered prefix rows ``(P, 2, M)`` and suffix columns
``(P, N, 2)`` in single einsums, so a full gradient pass costs
``O(num_layers)`` batched GEMM-like contractions instead of ``O(P)``
Python-level updates.  :meth:`PrefixSuffixWorkspace.layer_param_chunks`
yields the flat-parameter groups (one per layer and parameter kind) that
keep peak memory at ``O(N^2 M)`` per chunk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

from repro.backends.fold import MeshLayers, mesh_layers
from repro.backends.program import GateProgram
from repro.exceptions import BackendError, GradientError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.quantum_network import QuantumNetwork

__all__ = ["PrefixSuffixWorkspace"]

#: Element budget of one batched contraction stack (~32 MB of float64):
#: :meth:`PrefixSuffixWorkspace.param_chunks` merges layers under it, the
#: adjoint sweep sizes its blocks of parameter sets against it, and the
#: trajectory noise path its blocks of realizations.
ELEMENT_BUDGET = 4_000_000


# ----------------------------------------------------------------------
# stacked 2x2 block builder (vectorised over parameters)
# ----------------------------------------------------------------------
def _gate_blocks(
    thetas: np.ndarray, alphas: np.ndarray, complex_: bool
) -> np.ndarray:
    """Stacked ``T(theta, alpha)`` blocks, shape ``(P, 2, 2)``.

    Matches :meth:`BeamsplitterGate.matrix2` elementwise (the phase is
    built as ``cos + i sin``, not ``exp``, so values are identical).
    """
    c, s = np.cos(thetas), np.sin(thetas)
    if not complex_:
        b = np.empty((c.size, 2, 2), dtype=np.float64)
        b[:, 0, 0] = c
        b[:, 0, 1] = -s
        b[:, 1, 0] = s
        b[:, 1, 1] = c
        return b
    phase = np.cos(alphas) + 1j * np.sin(alphas)
    b = np.empty((c.size, 2, 2), dtype=np.complex128)
    b[:, 0, 0] = phase * c
    b[:, 0, 1] = -s
    b[:, 1, 0] = phase * s
    b[:, 1, 1] = c
    return b


class PrefixSuffixWorkspace:
    """Cached prefix rows, suffix columns and base output for one gradient.

    Parameters
    ----------
    network:
        The bound :class:`QuantumNetwork`; parameters are read once at
        construction (the perturbative methods never mutate the network
        when using the workspace).
    program:
        The network's compiled :class:`GateProgram`.
    inputs:
        ``(N, M)`` input batch.
    mesh:
        The network's chain recurrence at its current parameters
        (:func:`repro.backends.fold.mesh_layers`), when the caller already
        holds it — the fused backend passes its cached fold's; ``None``
        runs the recurrence here.

    Notes
    -----
    The workspace is valid for exactly one ``(parameters, inputs)`` pair;
    build a fresh one per gradient evaluation.  The three artefacts are
    built with ``O(num_layers)`` GEMMs plus ``O(N)`` short vector
    recurrences (see :meth:`_build_vectorized`); the tests compare that
    construction against a per-gate traced sweep.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.quantum_network import QuantumNetwork
    >>> net = QuantumNetwork(4, 2, backend="fused")
    >>> net = net.initialize("uniform", rng=np.random.default_rng(0))
    >>> ws = net.backend.gradient_workspace(np.eye(4))
    >>> ws
    PrefixSuffixWorkspace(gates=6, N=4, M=4, dtype=float64)
    >>> stack = ws.perturbed_outputs(np.arange(net.num_parameters), 1e-6)
    >>> stack.shape                       # one perturbed output per theta
    (6, 4, 4)
    >>> params = net.get_flat_params()
    >>> params[2] += 1e-6
    >>> net.set_flat_params(params)
    >>> bool(np.allclose(stack[2], net.forward(np.eye(4))))
    True
    >>> [chunk.tolist() for chunk in ws.layer_param_chunks()]
    [[0, 1, 2], [3, 4, 5]]
    """

    def __init__(
        self,
        network: "QuantumNetwork",
        program: GateProgram,
        inputs: np.ndarray,
        mesh: Optional[MeshLayers] = None,
    ) -> None:
        arr = np.asarray(inputs)
        if arr.ndim != 2 or arr.shape[0] != program.dim:
            raise BackendError(
                f"inputs must be (N={program.dim}, M), got shape {arr.shape}"
            )
        dtype = network.result_dtype(arr)
        self.program = program
        self.dtype = dtype
        self.num_thetas = program.num_thetas
        self.num_parameters = program.num_parameters
        if mesh is None:
            mesh = mesh_layers(program, network.get_flat_params())
        self._thetas = mesh.thetas
        self._alphas = mesh.alphas
        self._gate_of_param = program.gate_for_parameter()
        self._build_vectorized(arr, mesh)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_vectorized(self, arr: np.ndarray, mesh: MeshLayers) -> None:
        """Layer-batched construction from the mesh's chain recurrence.

        The layer unitaries and recurrence columns come from
        :func:`repro.backends.fold.mesh_layers`; the layer inputs, prefix
        rows and suffix columns then follow from ``O(num_layers)`` GEMMs
        and the same in-layer recurrences — no per-gate Python work
        anywhere.
        """
        program, dtype = self.program, self.dtype
        descending = program.descending
        n, m = arr.shape
        num_layers = program.num_layers
        total = program.num_gates
        g_per_layer = n - 1
        c, s, pc, ps = mesh.c, mesh.s, mesh.pc, mesh.ps
        layer_u = mesh.layers

        # Forward chain: one GEMM per layer records every layer input.
        states = np.empty((num_layers + 1, n, m), dtype=dtype)
        states[0] = arr
        for p in range(num_layers):
            states[p + 1] = layer_u[p] @ states[p]
        self.base_output = states[num_layers]
        layer_in = states[:num_layers]

        # Prefix rows, from the same in-layer recurrences (vectorised
        # across layers; ``states`` already holds every layer input).
        row_tape = np.empty((total, 2, m), dtype=dtype)
        tape = row_tape.reshape(num_layers, g_per_layer, 2, m)
        if not descending:
            # a_j = row j before gate j: a_0 = x_0,
            # a_j = ps_{j-1} a_{j-1} + c_{j-1} x_j; row j+1 is untouched.
            a = np.empty((num_layers, g_per_layer, m), dtype=dtype)
            a[:, 0] = layer_in[:, 0]
            for j in range(1, g_per_layer):
                a[:, j] = (
                    ps[:, j - 1, None] * a[:, j - 1]
                    + c[:, j - 1, None] * layer_in[:, j]
                )
            tape[:, :, 0] = a
            tape[:, :, 1] = layer_in[:, 1:]
        else:
            # b_j = row j after gate j: b_{N-1} = x_{N-1},
            # b_j = pc_j x_j - s_j b_{j+1}; row k is untouched before gate k.
            b = np.empty((num_layers, n, m), dtype=dtype)
            b[:, n - 1] = layer_in[:, n - 1]
            for j in range(n - 2, -1, -1):
                b[:, j] = (
                    pc[:, j, None] * layer_in[:, j]
                    - s[:, j, None] * b[:, j + 1]
                )
            # Position q within the layer holds mode k = N-2-q.
            tape[:, :, 0] = layer_in[:, : n - 1][:, ::-1]
            tape[:, :, 1] = b[:, 1:][:, ::-1]

        # Suffix columns: fold whole layers top-down; within a layer the
        # remaining-gate product has closed-form columns (e_k and w_{k+1}
        # ascending; u_k and e_{k+1} descending), so each layer costs two
        # GEMMs.
        suffix_cols = np.empty((total, n, 2), dtype=dtype)
        sf = suffix_cols.reshape(num_layers, g_per_layer, n, 2)
        s_mat = np.eye(n, dtype=dtype)
        for p in range(num_layers - 1, -1, -1):
            if not descending:
                sw = s_mat @ mesh.cols[p]
                sf[p, :, :, 0] = s_mat[:, : n - 1].T
                sf[p, :, :, 1] = sw[:, 1:].T
            else:
                su = s_mat @ mesh.cols[p]
                sf[p, :, :, 0] = su.T[::-1]
                sf[p, :, :, 1] = s_mat[:, 1:].T[::-1]
            s_mat = s_mat @ layer_u[p]
        self.row_tape = row_tape
        self.suffix_cols = suffix_cols

    # ------------------------------------------------------------------
    # many parameters per einsum
    # ------------------------------------------------------------------
    def _resolve_many(
        self, param_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve flat parameter indices to ``(idx, gates, theta_idx,
        wrt_alpha)``: the gate holding each parameter, its slot in the
        theta/alpha arrays, and whether it is a phase."""
        idx = np.atleast_1d(np.asarray(param_indices, dtype=np.int64))
        if idx.ndim != 1:
            raise GradientError(
                f"param_indices must be 1-D, got shape {idx.shape}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_parameters):
            raise GradientError(
                f"parameter indices must lie in [0, {self.num_parameters}), "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        wrt_alpha = idx >= self.num_thetas
        theta_idx = np.where(wrt_alpha, idx - self.num_thetas, idx)
        return idx, self._gate_of_param[idx], theta_idx, wrt_alpha

    def layer_param_chunks(self) -> Iterator[np.ndarray]:
        """Flat-parameter index groups, one per ``(layer, parameter kind)``.

        Iterating these chunks through :meth:`perturbed_outputs` covers
        every trainable parameter in
        ``num_layers`` (``x 2`` with phases) batched contractions while
        bounding peak memory at one ``(N-1, N, M)`` stack.
        """
        prog = self.program
        for p in range(prog.num_layers):
            gates = np.nonzero(prog.layer_index == p)[0]
            yield prog.theta_index[gates]
        if prog.allow_phase:
            for p in range(prog.num_layers):
                gates = np.nonzero(prog.layer_index == p)[0]
                yield prog.alpha_index[gates]

    def param_chunks(
        self, max_elements: int = ELEMENT_BUDGET
    ) -> Iterator[np.ndarray]:
        """Layer chunks merged until a stack would exceed ``max_elements``.

        Each yielded index array drives one batched contraction; chunks
        are whole layers, concatenated while the implied ``(P, N, M)``
        stack stays under the element budget (~32 MB of float64 by
        default).  Small problems — the paper's configuration included —
        collapse to a single chunk, large ones degrade gracefully to the
        per-layer bound of :meth:`layer_param_chunks`.
        """
        n, m = self.base_output.shape
        per_param = max(1, n * m)
        pending: list = []
        count = 0
        for chunk in self.layer_param_chunks():
            if pending and (count + chunk.size) * per_param > max_elements:
                yield np.concatenate(pending)
                pending, count = [], 0
            pending.append(chunk)
            count += chunk.size
        if pending:
            yield np.concatenate(pending)

    def perturbed_outputs(
        self,
        param_indices: np.ndarray,
        delta: float,
        keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked outputs with each listed parameter shifted by ``delta``.

        Returns a ``(P, N, M)`` array whose slice ``p`` is the network
        output with parameter ``param_indices[p]`` shifted — computed as two
        batched contractions over the stacked ``(2 x 2)`` block
        differences, the gathered prefix rows and the gathered suffix
        columns.

        ``keep`` (an optional boolean ``(N,)`` mask, e.g.
        ``Projection.mask``) restricts the stack to the kept rows: the
        result is ``(P, d, M)`` holding rows ``np.nonzero(keep)`` of
        ``P1 @ (perturbed network output)`` — every discarded row of the
        projected output is identically zero, so nothing is lost and the
        suffix contraction shrinks from ``N`` to ``d`` rows.
        :meth:`Loss.value_many` accepts the same ``keep`` to score these
        restricted stacks.
        """
        _, gates, ti, wrt_alpha = self._resolve_many(param_indices)
        th = self._thetas[ti]
        al = self._alphas[ti]
        cx = bool(self.program.allow_phase)
        base_blocks = _gate_blocks(th, al, cx)
        pert_blocks = _gate_blocks(
            np.where(wrt_alpha, th, th + delta),
            np.where(wrt_alpha, al + delta, al),
            cx,  # alpha params exist only when the program allows phases
        )
        d = np.matmul(pert_blocks - base_blocks, self.row_tape[gates])
        if keep is None:
            suffix = self.suffix_cols[gates]
            base = self.base_output
        else:
            rows = np.nonzero(np.asarray(keep, dtype=bool))[0]
            suffix = self.suffix_cols[gates[:, None], rows[None, :], :]
            base = self.base_output[rows]
        out = np.matmul(suffix, d)
        out += base[None, :, :]
        return out

    def __repr__(self) -> str:
        n, m = self.base_output.shape
        return (
            f"PrefixSuffixWorkspace(gates={self.program.num_gates}, "
            f"N={n}, M={m}, dtype={self.dtype})"
        )
