"""The paper's quantum network (core contribution).

- :class:`~repro.network.layers.GateLayer` — one layer of ``N-1`` chained
  beamsplitter gates ``U = U^(1,2) U^(2,3) ... U^(N-1,N)`` (Eq. 6, Fig. 3);
- :class:`~repro.network.quantum_network.QuantumNetwork` — a multi-layer
  stack with flat parameter access, the trainable object;
- :class:`~repro.network.projection.Projection` — the ``P1``/``P0``
  compression projections of Fig. 2;
- :mod:`~repro.network.targets` — compression-target strategies ``b_i``
  (Section II-D);
- :mod:`~repro.network.autoencoder` — the assembled
  ``|Psi> = U_R P1 U_C |psi>`` pipeline (Eqs. 3-4).
"""

from repro.network.layers import GateLayer
from repro.network.quantum_network import QuantumNetwork
from repro.network.projection import Projection
from repro.network.targets import (
    CompressionTargetStrategy,
    UniformSubspaceTarget,
    TruncatedInputTarget,
)
from repro.network.autoencoder import (
    CompressionNetwork,
    ReconstructionNetwork,
    QuantumAutoencoder,
    AutoencoderOutput,
)

__all__ = [
    "GateLayer",
    "QuantumNetwork",
    "Projection",
    "CompressionTargetStrategy",
    "UniformSubspaceTarget",
    "TruncatedInputTarget",
    "CompressionNetwork",
    "ReconstructionNetwork",
    "QuantumAutoencoder",
    "AutoencoderOutput",
]
