"""repro — reproduction of "Image Compression and Reconstruction Based on
Quantum Network" (Ji, Liu, Huang, Chen, Wu; IPPS 2024, arXiv:2404.11994).

The package implements the paper's quantum-network image autoencoder and
every substrate it depends on, from the statevector simulator up to the
experiment harness that regenerates each figure and table:

- :mod:`repro.simulator` — batched statevector simulation of beamsplitter
  circuits;
- :mod:`repro.encoding` — amplitude encoding/decoding (Eqs. 1-2);
- :mod:`repro.network` — the compression/reconstruction networks and
  projections (Eqs. 3-4, 6);
- :mod:`repro.training` — Algorithm 1 (losses, gradients, optimizers,
  metrics);
- :mod:`repro.baselines` — the CSC sparse-coding comparator (Fig. 5,
  Table I) and PCA/SVD references;
- :mod:`repro.data` — deterministic image datasets (the 25 binary 4x4
  images of Fig. 4a and generators);
- :mod:`repro.experiments` — one entry point per paper artefact (fig4,
  fig5, table1) plus ablations;
- :mod:`repro.parallel` — chunked batch execution, the persistent worker
  pool and data-parallel gradient reduction;
- :mod:`repro.noise` — the first-class hardware-noise model:
  :class:`NoiseModel` (angle jitter, per-gate loss, dephasing,
  depolarizing, finite shots) with exact density and scalable trajectory
  execution paths, noise-aware training and degradation curves (see
  ``docs/noise.md``);
- :mod:`repro.io` — model/result/image serialisation;
- :mod:`repro.api` — the unified public surface: :class:`Codec`
  (fit/compress/decompress/save/load) and :class:`InferenceSession`
  (precompiled micro-batched serving);
- :mod:`repro.imaging` — the tiled real-image pipeline:
  :func:`compress_image` / :func:`decompress_image` move arbitrary-size
  grayscale images through tile-DCT + quantization + the codec into the
  entropy-coded :class:`CompressedImage` wire format v2 (see
  ``docs/imaging.md``).

Quickstart
----------
>>> import numpy as np
>>> from repro import Codec, CodecSpec
>>> from repro.data import paper_dataset
>>> X = paper_dataset().matrix()                    # 25 x 16 binary images
>>> codec = Codec(CodecSpec(iterations=30))         # paper architecture
>>> payload = codec.fit(X).compress(X)              # doctest: +SKIP
>>> x_hat = codec.decompress(payload)               # doctest: +SKIP
"""

from repro.api import (
    Codec,
    CodecSpec,
    CompressedBatch,
    InferenceSession,
    MicroBatcher,
)
from repro.encoding import AmplitudeCodec, encode_batch, decode_batch
from repro.imaging import CompressedImage, compress_image, decompress_image
from repro.network import (
    GateLayer,
    Projection,
    QuantumAutoencoder,
    QuantumNetwork,
    UniformSubspaceTarget,
    TruncatedInputTarget,
)
from repro.noise import NOISE_PRESETS, NoiseModel
from repro.simulator import QuantumState, StateBatch
from repro.training import (
    Trainer,
    TrainingHistory,
    TrainingResult,
    SquaredErrorLoss,
    GradientDescent,
    Adam,
    pixel_accuracy,
    paper_accuracy,
)

__version__ = "1.0.0"

__all__ = [
    "Codec",
    "CodecSpec",
    "CompressedBatch",
    "InferenceSession",
    "MicroBatcher",
    "AmplitudeCodec",
    "encode_batch",
    "decode_batch",
    "CompressedImage",
    "compress_image",
    "decompress_image",
    "GateLayer",
    "Projection",
    "QuantumAutoencoder",
    "QuantumNetwork",
    "UniformSubspaceTarget",
    "TruncatedInputTarget",
    "NOISE_PRESETS",
    "NoiseModel",
    "QuantumState",
    "StateBatch",
    "Trainer",
    "TrainingHistory",
    "TrainingResult",
    "SquaredErrorLoss",
    "GradientDescent",
    "Adam",
    "pixel_accuracy",
    "paper_accuracy",
    "__version__",
]
