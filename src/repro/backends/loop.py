"""The reference backend: per-gate two-row Givens kernels.

This is the seed implementation's execution strategy, re-expressed over the
compiled :class:`~repro.backends.program.GateProgram`: the same
:func:`~repro.simulator.gates.apply_givens_batch` kernel is invoked for the
same gates in the same order with the same scalar parameters, read from
the network's flat parameters through the program's ``theta_index`` /
``alpha_index``, so outputs are **bit-identical** to the original nested
layer loop.  Every other backend is validated against this one
(``tests/backends/``).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, register_backend
from repro.simulator.gates import apply_givens_batch

__all__ = ["LoopBackend"]


@register_backend
class LoopBackend(Backend):
    """Gate-by-gate execution with the two-row in-place kernel.

    Cost per forward pass: ``num_layers * (N-1)`` Python-level kernel calls,
    each ``O(M)``.  Exact, allocation-light, and independent of parameter
    caching — the bit-exact baseline.
    """

    name = "loop"

    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        prog = self.program
        params = self.network._params.ravel()
        modes = prog.modes
        theta_index = prog.theta_index
        alpha_index = prog.alpha_index
        order = range(prog.num_gates)
        if inverse:
            order = reversed(order)
        for g in order:
            a = alpha_index[g]
            apply_givens_batch(
                data,
                int(modes[g]),
                float(params[theta_index[g]]),
                alpha=0.0 if a < 0 else float(params[a]),
                inverse=inverse,
            )
