"""Datasets: the paper's 25 binary 4x4 images and parametric generators.

The authors never published their pixel data, so
:func:`~repro.data.binary_images.paper_dataset` builds a deterministic
substitute with the properties the paper's results require: 25 binary 4x4
glyph-like images whose matrix has low effective rank (compressible into
``d = 4`` amplitudes).  Generators for higher-rank binary sets and
grayscale images feed the ablations, examples and tests.
"""

from repro.data.dataset import ImageDataset
from repro.data.stream import MiniBatch, MiniBatchStream, load_data_matrix
from repro.data.binary_images import (
    paper_dataset,
    block_basis,
    rank_limited_binary_dataset,
)
from repro.data.grayscale import (
    gradient_image,
    gaussian_blob,
    checkerboard,
    stripes,
    grayscale_dataset,
)

__all__ = [
    "ImageDataset",
    "MiniBatch",
    "MiniBatchStream",
    "load_data_matrix",
    "paper_dataset",
    "block_basis",
    "rank_limited_binary_dataset",
    "gradient_image",
    "gaussian_blob",
    "checkerboard",
    "stripes",
    "grayscale_dataset",
]
