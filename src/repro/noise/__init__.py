"""First-class hardware-noise modelling for the quantum codec.

The paper's Section V defers physical effects to an exact simulator;
this subpackage makes them a first-class value instead of an ablation
footnote:

- :mod:`~repro.noise.model` — :class:`NoiseModel`, the frozen,
  JSON-round-trippable description (angle jitter, insertion loss,
  dephasing, depolarizing, shots) plus the ``mild | lossy | harsh``
  presets;
- :mod:`~repro.noise.density` — the exact execution path: per-sample
  density matrices folded through the compiled gate program, with the
  dephasing and depolarizing Kraus channels built beside it;
- :mod:`~repro.noise.trajectory` — the scalable path: sampled
  whole-mesh realizations (one GEMM per realization per batch),
  pool-shardable with bitwise-reproducible realization-keyed seeding;
- :mod:`~repro.noise.training` — noise-aware gradients: the exact
  gradient of the jitter-averaged loss, sharded over the worker pool;
- :mod:`~repro.noise.evaluate` — degradation metrics and curves
  (accuracy / PSNR / fidelity / transmission vs channel strength).

See ``docs/noise.md`` for the density-vs-trajectory contract and the
reproducibility guarantees.
"""

from repro.noise.model import NOISE_PRESETS, NoiseModel, noise_preset
from repro.noise.density import density_forward
from repro.noise.evaluate import degradation_curve, evaluate_noisy
from repro.noise.trajectory import (
    NoisyForwardResult,
    clean_mesh_matrix,
    realization_rng,
    sample_mesh_matrices,
    sample_mesh_matrix,
    trajectory_forward,
)
from repro.noise.training import draw_jitter, noisy_loss_and_gradient

__all__ = [
    "NOISE_PRESETS",
    "NoiseModel",
    "NoisyForwardResult",
    "clean_mesh_matrix",
    "degradation_curve",
    "density_forward",
    "draw_jitter",
    "evaluate_noisy",
    "noise_preset",
    "noisy_loss_and_gradient",
    "realization_rng",
    "sample_mesh_matrices",
    "sample_mesh_matrix",
    "trajectory_forward",
]
