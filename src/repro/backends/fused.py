"""Fused-unitary execution: one cached GEMM per forward pass.

The loop backend costs ``num_layers * (N-1)`` Python-level kernel calls per
forward pass regardless of batch width.  For inference and for the
perturbative gradient methods the parameters are fixed across many passes,
so the whole network can be *fused* once into a single ``N x N`` unitary
``U = G_P ... G_1`` and every subsequent pass becomes one BLAS GEMM
``U @ X`` (``U^dagger @ X`` for the inverse) — ``O(N^2 M)`` flops with no
per-gate Python overhead.  The unitary itself comes from the closed-form
chain fold of :mod:`repro.backends.fold`: every layer unitary from one
``O(N)`` vectorised recurrence, then one matmul per layer.

The cache is validated by comparing the network's live parameter array
(every ``layer.thetas`` row lives in it) with the fold's snapshot, so
``set_flat_params`` and direct mutation of ``layer.thetas`` alike are
picked up on the next pass; a hit copies nothing, and the parameters are
copied only when they are refolded.  The backend keeps the per-layer
unitaries of that fold (:meth:`FusedBackend.layer_unitaries`) and, while
the parameters still match, serves them (:meth:`FusedBackend.cached_mesh`) to the reverse-mode
adjoint sweep of :mod:`repro.training.gradients` and, with the
recurrence columns, to the prefix/suffix workspace of the ``fd``,
``central`` and ``derivative`` methods — so a training step folds each
parameter set once (see ``docs/gradients.md``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.backends.base import Backend, register_backend
from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.fold import MeshLayers, fold, mesh_layers
from repro.exceptions import GateError

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(Backend):
    """Whole-network unitary materialisation with parameter-set caching.

    Semantics match the loop backend to rounding (~1e-15): the fused
    unitary is the closed-form product of the layer unitaries (see
    :mod:`repro.backends.fold`), and its application to the batch is one
    matrix product instead of a gate-by-gate sweep.
    """

    name = "fused"
    supports_cached_gradients = True

    def __init__(self) -> None:
        super().__init__()
        self._mesh: Optional[MeshLayers] = None
        self._unitary: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def cached_mesh(self) -> Optional[MeshLayers]:
        """The cached fold's layers if they were built from the network's
        current parameters."""
        mesh = self._mesh
        if mesh is not None and np.array_equal(
            self.network._params.ravel(), mesh.params
        ):
            return mesh
        return None

    def _refresh(self) -> np.ndarray:
        """The fused unitary, refolded unless the parameter set is unchanged."""
        if self.cached_mesh() is None:
            mesh = mesh_layers(self.program, self.network.get_flat_params())
            self._unitary = fold(mesh.layers)
            self._mesh = mesh
        assert self._unitary is not None
        return self._unitary

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def unitary(self) -> np.ndarray:
        """The cached whole-network matrix ``G_P ... G_1`` (a copy)."""
        return self._refresh().copy()

    def layer_unitaries(self) -> List[np.ndarray]:
        """Per-layer ``N x N`` unitaries of the cached fold, layer 0 first
        (copies).  Their right-to-left product equals :meth:`unitary`."""
        self._refresh()
        assert self._mesh is not None
        return [lu.copy() for lu in self._mesh.layers]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        u = self._refresh()
        if np.iscomplexobj(u) and not np.iscomplexobj(data):
            # Parity with the loop kernel's contract for phase-bearing
            # networks on real buffers.
            raise GateError(
                "a non-zero phase alpha requires a complex state batch; the "
                "paper's real network fixes alpha = 0 (Section III-A)"
            )
        if inverse:
            mat = u.conj().T if np.iscomplexobj(u) else u.T
        else:
            mat = u
        data[:] = mat @ data

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------
    def gradient_workspace(self, inputs: np.ndarray) -> PrefixSuffixWorkspace:
        """The prefix/suffix workspace, built on the cached fold's layers
        when the parameters still match (a miss runs the recurrence
        without forming the product)."""
        return PrefixSuffixWorkspace(
            self.network, self.program, inputs, mesh=self.cached_mesh()
        )
