"""Reconstruction-quality metrics.

:func:`pixel_accuracy` implements Eq. (10) of the paper — the fraction of
pixels whose reconstruction error is within a tolerance (0.01):

.. math:: S = \\frac{S_p}{D^2} \\times 100\\%

:func:`paper_accuracy` additionally applies the paper's Section IV-B
threshold snapping before comparison (the regime in which 97.75 % is
reported).  PSNR and a single-scale SSIM are included for grayscale
experiments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.encoding.images import apply_paper_threshold
from repro.exceptions import DimensionError

__all__ = [
    "pixel_accuracy",
    "paper_accuracy",
    "mse",
    "psnr",
    "ssim",
]


def _pair(x_hat: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x_hat, dtype=np.float64)
    b = np.asarray(x, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(
            f"x_hat shape {a.shape} != x shape {b.shape}"
        )
    if a.size == 0:
        raise DimensionError("cannot score empty arrays")
    return a, b


def pixel_accuracy(
    x_hat: np.ndarray, x: np.ndarray, tol: float = 0.01
) -> float:
    """Eq. (10): percentage of entries with ``|x_hat - x| <= tol``.

    Works on any matching shapes (vectors, ``(M, N)`` matrices, image
    stacks); the paper's per-image ``S_p / D^2`` is the same computation
    restricted to one sample.

    Examples
    --------
    >>> pixel_accuracy(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    50.0
    """
    if tol < 0:
        raise DimensionError(f"tol must be non-negative, got {tol}")
    a, b = _pair(x_hat, x)
    return float(np.mean(np.abs(a - b) <= tol) * 100.0)


def paper_accuracy(
    x_hat: np.ndarray,
    x: np.ndarray,
    tol: float = 0.01,
    low: float = 0.01,
    high: float = 0.99,
) -> float:
    """Accuracy after the paper's threshold snapping (Section IV-B).

    Reconstructed values ``<= low`` snap to 0 and ``>= high`` snap to 1
    before the Eq. (10) comparison; this is the setting in which the paper
    reports 97.75 %.
    """
    return pixel_accuracy(apply_paper_threshold(x_hat, low, high), x, tol)


def mse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Mean squared error over all entries."""
    a, b = _pair(x_hat, x)
    return float(np.mean((a - b) ** 2))


def psnr(x_hat: np.ndarray, x: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for exact match)."""
    if data_range <= 0:
        raise DimensionError(f"data_range must be positive, got {data_range}")
    err = mse(x_hat, x)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range**2 / err))


def ssim(
    x_hat: np.ndarray,
    x: np.ndarray,
    data_range: float = 1.0,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Single-window structural similarity between two images.

    Computes the global-statistics SSIM (one window covering the whole
    image) — appropriate for the tiny 4x4 / 8x8 images of the paper where
    sliding windows are degenerate.  Returns a value in ``[-1, 1]``.
    """
    a, b = _pair(x_hat, x)
    if data_range <= 0:
        raise DimensionError(f"data_range must be positive, got {data_range}")
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(num / den)
