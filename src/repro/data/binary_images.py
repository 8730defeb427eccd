"""Binary image datasets, including the Fig. 4a substitute.

:func:`paper_dataset` is the reproduction's stand-in for the paper's 25
binary 4x4 images.  Requirements derived from the paper's results:

- 25 samples, 4x4, strictly binary (Section IV-A);
- compressible into ``d = 4`` amplitude channels with near-zero loss
  (Fig. 4c reaches ``min L_C = 0.017``, ``min L_R = 0.023``) — i.e. the
  data matrix must have (effective) rank <= 4;
- visually glyph-like (Fig. 4a shows block/digit shapes).

The construction uses four *disjoint-support* base patterns (2x2 quadrant
blocks by default); every union of base patterns is then both strictly
binary and exactly inside the 4-dimensional span, so the 25 images form an
exactly rank-4 binary set.  A generator with controllable extra rank
(:func:`rank_limited_binary_dataset`) supports the ablation studies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import ImageDataset
from repro.exceptions import DatasetError
from repro.utils.rng import ensure_rng

__all__ = [
    "block_basis",
    "paper_dataset",
    "rank_limited_binary_dataset",
]


def block_basis(image_size: int = 4, blocks_per_side: int = 2) -> np.ndarray:
    """Disjoint-support block patterns tiling a ``D x D`` image.

    Returns ``(blocks_per_side**2, D, D)`` binary arrays, each a solid
    ``(D/b) x (D/b)`` block.  Disjoint supports make every 0/1 union of
    patterns an exact element of their linear span — the property that
    keeps :func:`paper_dataset` simultaneously binary and rank-4.
    """
    if image_size < 2:
        raise DatasetError(f"image_size must be >= 2, got {image_size}")
    if blocks_per_side < 1 or image_size % blocks_per_side != 0:
        raise DatasetError(
            f"blocks_per_side={blocks_per_side} must divide "
            f"image_size={image_size}"
        )
    b = image_size // blocks_per_side
    patterns = []
    for r in range(blocks_per_side):
        for c in range(blocks_per_side):
            img = np.zeros((image_size, image_size))
            img[r * b : (r + 1) * b, c * b : (c + 1) * b] = 1.0
            patterns.append(img)
    return np.stack(patterns)


def paper_dataset(
    num_samples: int = 25,
    image_size: int = 4,
    rank: int = 4,
    seed: Optional[int] = 2024,
) -> ImageDataset:
    """The deterministic Fig. 4a substitute: binary, glyph-like, rank <= 4.

    The first ``2**rank - 1`` samples enumerate every non-empty union of
    the ``rank`` disjoint base patterns (deterministic, seed-independent);
    the remainder are seeded random re-draws of those unions, mimicking the
    repeated shapes visible in the paper's Fig. 4a.

    Examples
    --------
    >>> ds = paper_dataset()
    >>> ds.num_samples, ds.dim, ds.is_binary
    (25, 16, True)
    >>> ds.rank()
    4
    """
    if num_samples < 1:
        raise DatasetError(f"num_samples must be >= 1, got {num_samples}")
    side = int(round(np.sqrt(rank)))
    if side * side != rank:
        raise DatasetError(
            f"rank must be a perfect square (block grid), got {rank}"
        )
    bases = block_basis(image_size, side)  # (rank, D, D)
    n_unions = 2**rank - 1
    rng = ensure_rng(seed)
    images = []
    for i in range(num_samples):
        if i < n_unions:
            mask = i + 1
        else:
            mask = int(rng.integers(1, n_unions + 1))
        coeff = np.array([(mask >> k) & 1 for k in range(rank)], dtype=float)
        images.append(np.tensordot(coeff, bases, axes=1))
    return ImageDataset(np.stack(images), name="paper-25-binary-4x4")


def rank_limited_binary_dataset(
    num_samples: int,
    rank: int,
    image_size: int = 4,
    flip_fraction: float = 0.0,
    seed: Optional[int] = None,
) -> ImageDataset:
    """Binary images with controllable dominant rank plus optional noise.

    Builds unions over ``rank`` disjoint stripe patterns, then flips
    ``flip_fraction`` of all pixels (breaking exact low-rankness) — the
    knob used by the compression-dimension ablation to study how accuracy
    degrades as data exceeds the ``d``-dimensional budget.
    """
    if num_samples < 1:
        raise DatasetError(f"num_samples must be >= 1, got {num_samples}")
    n_pixels = image_size * image_size
    if not 1 <= rank <= n_pixels:
        raise DatasetError(
            f"rank must be in [1, {n_pixels}], got {rank}"
        )
    if not 0.0 <= flip_fraction < 1.0:
        raise DatasetError(
            f"flip_fraction must be in [0, 1), got {flip_fraction}"
        )
    rng = ensure_rng(seed)
    # `rank` disjoint pixel groups (contiguous stripes in flattened order).
    groups = np.array_split(np.arange(n_pixels), rank)
    bases = np.zeros((rank, n_pixels))
    for g, idx in enumerate(groups):
        bases[g, idx] = 1.0
    imgs = np.zeros((num_samples, n_pixels))
    for i in range(num_samples):
        mask = 0
        while mask == 0:
            mask = int(rng.integers(1, 2**rank))
        coeff = np.array([(mask >> k) & 1 for k in range(rank)], dtype=float)
        imgs[i] = coeff @ bases
    if flip_fraction > 0.0:
        flips = rng.random(imgs.shape) < flip_fraction
        imgs[flips] = 1.0 - imgs[flips]
        for i in range(num_samples):  # keep encodable
            if imgs[i].sum() == 0:
                imgs[i, int(rng.integers(n_pixels))] = 1.0
    return ImageDataset(
        imgs.reshape(num_samples, image_size, image_size),
        name=f"rank{rank}-binary-{num_samples}",
    )
