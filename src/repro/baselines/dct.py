"""DCT (JPEG-style) compression baseline.

The paper's introduction motivates compression against the classical
image-coding stack (JPEG / DCT-based transforms, its refs. [4], [10]).
This baseline implements the transform-coding analogue at the paper's
scale: 2-D DCT-II of each image, keep the ``k`` largest-magnitude (or
zig-zag-first) coefficients, inverse-transform.

Unlike PCA/SVD it is *data-independent* (fixed basis), so it calibrates
how much of the quantum network's advantage comes from adapting to the
dataset versus from compression per se.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np
import scipy.fft

from repro.exceptions import BaselineError

__all__ = ["dct2", "idct2", "zigzag_indices", "DCTCompressor"]

KeepMode = Literal["magnitude", "zigzag"]


def dct2(image: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a single image."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise BaselineError(f"image must be 2-D, got shape {arr.shape}")
    return scipy.fft.dctn(arr, norm="ortho")


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2`."""
    arr = np.asarray(coeffs, dtype=np.float64)
    if arr.ndim != 2:
        raise BaselineError(f"coeffs must be 2-D, got shape {arr.shape}")
    return scipy.fft.idctn(arr, norm="ortho")


def zigzag_indices(size: int) -> np.ndarray:
    """JPEG zig-zag scan order for a ``size x size`` block.

    Returns an ``(size*size, 2)`` array of (row, col) pairs ordered from
    the DC coefficient outwards along anti-diagonals.
    """
    if size < 1:
        raise BaselineError(f"size must be >= 1, got {size}")
    order = []
    for s in range(2 * size - 1):
        diag = [
            (i, s - i)
            for i in range(max(0, s - size + 1), min(s, size - 1) + 1)
        ]
        if s % 2 == 0:
            diag = diag[::-1]
        order.extend(diag)
    return np.asarray(order, dtype=np.int64)


class DCTCompressor:
    """Keep-``k`` DCT transform coder for square images.

    Parameters
    ----------
    num_coefficients:
        Coefficients kept per image (the payload, comparable to the
        quantum ``d``).
    mode:
        ``"magnitude"`` keeps the k largest |coefficients| per image
        (adaptive support, needs positions transmitted);
        ``"zigzag"`` keeps the first k in zig-zag order (fixed support,
        JPEG-style).

    Examples
    --------
    >>> import numpy as np
    >>> imgs = np.random.default_rng(0).random((3, 4, 4))
    >>> out = DCTCompressor(num_coefficients=8).reconstruct(imgs)
    >>> out.shape
    (3, 4, 4)
    """

    def __init__(
        self, num_coefficients: int, mode: KeepMode = "magnitude"
    ) -> None:
        if num_coefficients < 1:
            raise BaselineError(
                f"num_coefficients must be >= 1, got {num_coefficients}"
            )
        if mode not in ("magnitude", "zigzag"):
            raise BaselineError(f"unknown mode {mode!r}")
        self.num_coefficients = int(num_coefficients)
        self.mode: KeepMode = mode

    def _check(self, images: np.ndarray) -> np.ndarray:
        arr = np.asarray(images, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise BaselineError(
                f"images must be (M, D, D), got shape {np.shape(images)}"
            )
        if self.num_coefficients > arr.shape[1] * arr.shape[2]:
            raise BaselineError(
                f"cannot keep {self.num_coefficients} of "
                f"{arr.shape[1] * arr.shape[2]} coefficients"
            )
        return arr

    def transform(self, images: np.ndarray) -> np.ndarray:
        """Sparse coefficient planes: ``(M, D, D)`` with k non-zeros each."""
        arr = self._check(images)
        m, d, _ = arr.shape
        out = np.zeros_like(arr)
        if self.mode == "zigzag":
            zz = zigzag_indices(d)[: self.num_coefficients]
            rows, cols = zz[:, 0], zz[:, 1]
            for i in range(m):
                c = dct2(arr[i])
                out[i, rows, cols] = c[rows, cols]
            return out
        for i in range(m):
            c = dct2(arr[i])
            flat = np.abs(c).ravel()
            keep = np.argpartition(flat, -self.num_coefficients)[
                -self.num_coefficients :
            ]
            mask = np.zeros(d * d, dtype=bool)
            mask[keep] = True
            out[i] = np.where(mask.reshape(d, d), c, 0.0)
        return out

    def reconstruct(self, images: np.ndarray) -> np.ndarray:
        """Round-trip reconstruction clipped to the pixel range [0, 1]."""
        coeffs = self.transform(images)
        out = np.stack([idct2(c) for c in coeffs])
        squeeze = np.asarray(images).ndim == 2
        out = np.clip(out, 0.0, 1.0)
        return out[0] if squeeze else out
