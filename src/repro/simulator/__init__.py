"""Statevector simulator substrate.

The paper simulates its optical quantum network on a classical computer
(Matlab in the original; NumPy here).  This subpackage provides the exact
simulation primitives the rest of the library is built on:

- :class:`~repro.simulator.state.QuantumState` /
  :class:`~repro.simulator.state.StateBatch` — amplitude vectors and batches
  of them (states are columns of an ``(N, M)`` array);
- :mod:`~repro.simulator.gates` — two-mode beamsplitter/Givens gates
  ``U^(k,k+1)(theta, alpha)`` (Fig. 2 of the paper) with batched in-place
  application kernels.

Mixed states and the noise channels live with the exact noisy execution
path in :mod:`repro.noise.density`.
"""

from repro.simulator.state import QuantumState, StateBatch
from repro.simulator.gates import BeamsplitterGate, apply_givens_batch

__all__ = [
    "QuantumState",
    "StateBatch",
    "BeamsplitterGate",
    "apply_givens_batch",
]
