"""Serialisation: trained models, images and experiment results.

- :mod:`~repro.io.model_io` — save/load autoencoder parameters (NPZ with a
  JSON header), so trained meshes can be re-programmed;
- :mod:`~repro.io.image_io` — portable PGM image files (no external
  imaging dependency in the offline environment);
- :mod:`~repro.io.results_io` — experiment-result dictionaries to/from
  JSON (arrays converted losslessly to nested lists).
"""

from repro.io.model_io import (
    save_autoencoder,
    load_autoencoder,
    load_autoencoder_with_meta,
)
from repro.io.image_io import write_pgm, read_pgm
from repro.io.results_io import save_results, load_results

__all__ = [
    "save_autoencoder",
    "load_autoencoder",
    "load_autoencoder_with_meta",
    "write_pgm",
    "read_pgm",
    "save_results",
    "load_results",
]
