"""Image <-> vector utilities and the paper's post-processing thresholds.

Section IV-B of the paper snaps reconstructed grayscale outputs toward
binary images with the *pixel* rule: ``x_hat <= 0.01 -> 0`` and
``x_hat >= 0.99 -> 1``, values in between left as grayscale (which is how
Fig. 4b shows near-white pixels).  :func:`apply_paper_threshold` implements
it verbatim, so the accuracy metric (Eq. 10) can be computed in that
regime.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, EncodingError
from repro.utils.validation import as_float_matrix

__all__ = [
    "flatten_images",
    "unflatten_images",
    "apply_paper_threshold",
]


def flatten_images(images: np.ndarray) -> np.ndarray:
    """Flatten ``(M, D, D)`` images into the ``(M, D*D)`` data matrix ``X``.

    The paper converts each image matrix "into an N-dimensional row vector"
    (Section II-A); row-major (C) order is used so that
    ``unflatten_images(flatten_images(imgs))`` is the identity.
    """
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise DimensionError(
            f"images must be (M, D, D) or (D, D), got shape {arr.shape}"
        )
    m, h, w = arr.shape
    return arr.reshape(m, h * w)


def unflatten_images(
    X: np.ndarray, shape: Optional[Tuple[int, int]] = None
) -> np.ndarray:
    """Reshape an ``(M, N)`` data matrix back into ``(M, D, D)`` images.

    If ``shape`` is omitted the images are assumed square (``N`` must then
    be a perfect square, e.g. 16 -> 4x4).
    """
    mat = as_float_matrix(X, name="X")
    m, n = mat.shape
    if shape is None:
        d = int(round(np.sqrt(n)))
        if d * d != n:
            raise DimensionError(
                f"vector length {n} is not a perfect square; pass shape="
            )
        shape = (d, d)
    h, w = shape
    if h * w != n:
        raise DimensionError(
            f"shape {shape} incompatible with vector length {n}"
        )
    return mat.reshape(m, h, w)


def apply_paper_threshold(
    x_hat: np.ndarray, low: float = 0.01, high: float = 0.99
) -> np.ndarray:
    """Apply the paper's pixel snapping rule (Section IV-B).

    ``x_hat <= low`` snaps to 0, ``x_hat >= high`` snaps to 1, everything in
    between is returned unchanged (grayscale residue, as in Fig. 4b).

    Examples
    --------
    >>> apply_paper_threshold(np.array([0.005, 0.5, 0.995])).tolist()
    [0.0, 0.5, 1.0]
    """
    if not (0.0 <= low < high <= 1.0):
        raise EncodingError(
            f"require 0 <= low < high <= 1, got low={low}, high={high}"
        )
    arr = np.array(x_hat, dtype=np.float64, copy=True)
    arr[arr <= low] = 0.0
    arr[arr >= high] = 1.0
    return arr
