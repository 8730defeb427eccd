"""Image-dataset container.

:class:`ImageDataset` holds an ``(M, D, D)`` image stack together with its
flattened ``(M, N)`` matrix form, provides train/test splitting, batching
and summary statistics (effective rank — the quantity that controls how
compressible a set is into ``d`` amplitudes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.encoding.images import flatten_images
from repro.exceptions import DatasetError
from repro.utils.rng import ensure_rng

__all__ = ["ImageDataset"]


@dataclass
class ImageDataset:
    """An immutable stack of square images.

    Parameters
    ----------
    images:
        ``(M, D, D)`` array of pixel values in ``[0, 1]``.
    name:
        Human-readable identifier used in experiment reports.

    Examples
    --------
    >>> import numpy as np
    >>> ds = ImageDataset(np.zeros((3, 4, 4)) + 1.0, name="ones")
    >>> ds.num_samples, ds.image_size, ds.dim
    (3, 4, 16)
    """

    images: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        arr = np.asarray(self.images, dtype=np.float64)
        if arr.ndim != 3:
            raise DatasetError(
                f"images must be (M, D, D), got shape {arr.shape}"
            )
        if arr.shape[1] != arr.shape[2]:
            raise DatasetError(
                f"images must be square, got {arr.shape[1]}x{arr.shape[2]}"
            )
        if arr.shape[0] == 0:
            raise DatasetError("dataset must contain at least one image")
        if not np.all(np.isfinite(arr)):
            raise DatasetError("images contain NaN or Inf")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DatasetError(
                f"pixel values must lie in [0, 1], got range "
                f"[{arr.min():.3g}, {arr.max():.3g}]"
            )
        object.__setattr__(self, "images", arr)

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return self.images.shape[0]

    @property
    def image_size(self) -> int:
        """Side length ``D``."""
        return self.images.shape[1]

    @property
    def dim(self) -> int:
        """Flattened dimension ``N = D * D``."""
        return self.image_size**2

    @property
    def is_binary(self) -> bool:
        return bool(np.all((self.images == 0.0) | (self.images == 1.0)))

    def matrix(self) -> np.ndarray:
        """The ``(M, N)`` row-sample data matrix ``X`` (Section II-A)."""
        return flatten_images(self.images)

    def image(self, i: int) -> np.ndarray:
        if not 0 <= i < self.num_samples:
            raise DatasetError(
                f"index {i} out of range for {self.num_samples} images"
            )
        return self.images[i].copy()

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def rank(self, tol: Optional[float] = None) -> int:
        """Numerical rank of the data matrix."""
        return int(np.linalg.matrix_rank(self.matrix(), tol=tol))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.matrix(), compute_uv=False)

    def effective_rank(self, energy: float = 0.99) -> int:
        """Smallest ``r`` capturing ``energy`` of the squared spectrum.

        This is the quantity that bounds lossless compressibility into
        ``d`` amplitudes: ``effective_rank <= d`` means a ``d``-channel
        quantum compression can be near-exact.
        """
        if not 0.0 < energy <= 1.0:
            raise DatasetError(f"energy must be in (0, 1], got {energy}")
        sv = self.singular_values() ** 2
        total = sv.sum()
        if total <= 0:
            raise DatasetError("dataset is all-zero")
        frac = np.cumsum(sv) / total
        return int(np.searchsorted(frac, energy) + 1)

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------
    def split(
        self,
        train_fraction: float = 0.8,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
    ) -> Tuple["ImageDataset", "ImageDataset"]:
        """Split into train/test subsets (at least one sample each)."""
        if not 0.0 < train_fraction < 1.0:
            raise DatasetError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        if self.num_samples < 2:
            raise DatasetError("need at least 2 samples to split")
        order = np.arange(self.num_samples)
        if shuffle:
            ensure_rng(rng).shuffle(order)
        n_train = int(round(self.num_samples * train_fraction))
        n_train = min(max(n_train, 1), self.num_samples - 1)
        return (
            ImageDataset(self.images[order[:n_train]], f"{self.name}-train"),
            ImageDataset(self.images[order[n_train:]], f"{self.name}-test"),
        )

    def batches(self, batch_size: int) -> Iterator[np.ndarray]:
        """Yield ``(m, N)`` matrix chunks of at most ``batch_size`` rows."""
        if batch_size < 1:
            raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
        mat = self.matrix()
        for start in range(0, self.num_samples, batch_size):
            yield mat[start : start + batch_size]

    def subset(self, indices: np.ndarray | list) -> "ImageDataset":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise DatasetError("subset must select at least one image")
        if idx.min() < 0 or idx.max() >= self.num_samples:
            raise DatasetError(
                f"subset indices out of range [0, {self.num_samples})"
            )
        return ImageDataset(self.images[idx], f"{self.name}-subset")

    def __len__(self) -> int:
        return self.num_samples

    def __repr__(self) -> str:
        kind = "binary" if self.is_binary else "grayscale"
        return (
            f"ImageDataset({self.name!r}, M={self.num_samples}, "
            f"{self.image_size}x{self.image_size}, {kind})"
        )
