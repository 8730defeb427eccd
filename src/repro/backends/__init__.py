"""Pluggable execution backends for quantum networks.

This package separates network *structure* from *execution*:

- :mod:`repro.backends.program` — :class:`GateProgram`, the network
  lowered to flat per-gate arrays in application order;
- :mod:`repro.backends.base` — the :class:`Backend` protocol and the
  name registry (``available_backends`` / ``make_backend``);
- :mod:`repro.backends.loop` — the bit-exact reference backend (per-gate
  two-row kernels, the seed implementation's strategy);
- :mod:`repro.backends.fold` — the closed-form chain fold: every layer
  unitary from one vectorised recurrence, batched over noise
  realizations too;
- :mod:`repro.backends.fused` — cached whole-network unitary applied as a
  single GEMM; its cached fold also feeds the adjoint sweep and the
  prefix/suffix gradient workspace;
- :mod:`repro.backends.sharded` — wide batches column-scattered over a
  persistent multi-process :class:`~repro.parallel.pool.WorkerPool`
  (``"sharded"`` / ``"sharded:K"``), in-process fused fallback for
  narrow ones;
- :mod:`repro.backends.cached` — :class:`PrefixSuffixWorkspace`, the
  ``O(P)``-gate-work engine behind cached ``fd``/``central`` gradients.

See ``docs/backends.md`` for the architecture note and the caching math.

Examples
--------
>>> import numpy as np
>>> from repro.network.quantum_network import QuantumNetwork
>>> net = QuantumNetwork(4, 2, backend="fused")
>>> net.backend.name
'fused'
>>> bool(np.allclose(net.forward(np.eye(4)), np.eye(4)))  # zero-init
True
"""

from repro.backends.base import (
    Backend,
    available_backends,
    make_backend,
    register_backend,
    validate_backend_name,
)
from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.fused import FusedBackend
from repro.backends.loop import LoopBackend
from repro.backends.program import GateProgram, compile_program
from repro.backends.sharded import ShardedBackend

__all__ = [
    "Backend",
    "GateProgram",
    "compile_program",
    "available_backends",
    "make_backend",
    "register_backend",
    "validate_backend_name",
    "LoopBackend",
    "FusedBackend",
    "ShardedBackend",
    "PrefixSuffixWorkspace",
]
