"""Noisy evaluation: degradation metrics and curves over a trained codec.

The bridge between the execution paths (:mod:`repro.noise.trajectory`,
:mod:`repro.noise.density`) and the user-facing quality vocabulary
(:mod:`repro.training.metrics`): run the pipeline under a
:class:`~repro.noise.model.NoiseModel`, decode the measured
(magnitude-only) amplitudes through Eq. (2), and report accuracy / PSNR /
MSE alongside the quantum-state fidelity and transmission — plus
:func:`degradation_curve`, the same metrics swept over uniformly scaled
channel strengths, which is what "graceful, not cliff" is asserted on in
``benchmarks/bench_noise.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.encoding.amplitude import decode_batch
from repro.noise.model import NoiseModel
from repro.noise.trajectory import NoisyForwardResult, trajectory_forward

__all__ = ["evaluate_noisy", "degradation_curve"]


def _metrics_from_result(
    result: NoisyForwardResult, X: np.ndarray, squared_norms: np.ndarray
) -> Dict[str, float]:
    from repro.training.metrics import mse, paper_accuracy, pixel_accuracy, psnr

    x_hat = decode_batch(result.amplitudes, squared_norms)
    return {
        "noisy_accuracy": float(paper_accuracy(x_hat, X)),
        "noisy_pixel_accuracy": float(pixel_accuracy(x_hat, X)),
        "noisy_mse": float(mse(x_hat, X)),
        "noisy_psnr_db": float(psnr(x_hat, X)),
        "mean_fidelity": result.mean_fidelity,
        "mean_transmission": float(np.mean(result.transmission)),
    }


def evaluate_noisy(
    autoencoder,
    X: np.ndarray,
    model: NoiseModel,
    *,
    trajectories: int = 64,
    seed: int = 0,
    epoch: int = 0,
    pool=None,
    path: str = "trajectory",
) -> Dict[str, float]:
    """Quality metrics of the pipeline under ``model``.

    ``path`` selects the execution path: ``"trajectory"`` (sampled,
    scalable, pool-shardable — the default) or ``"density"`` (exact
    channel folding, per-sample cost).  Metrics are computed on the
    decoded reconstruction of the *measured* probabilities, so finite
    ``model.shots`` degrade them exactly as hardware counts would.
    """
    X = np.asarray(X, dtype=np.float64)
    return _evaluate_encoded(
        autoencoder, X, autoencoder.codec.encode(X), model,
        trajectories=trajectories, seed=seed, epoch=epoch, pool=pool, path=path,
    )


def _evaluate_encoded(
    autoencoder,
    X: np.ndarray,
    enc,
    model: NoiseModel,
    *,
    trajectories: int,
    seed: int,
    epoch: int = 0,
    pool=None,
    path: str,
) -> Dict[str, float]:
    """:func:`evaluate_noisy` on the float64 ``X`` and its already
    encoded batch ``enc``."""
    if path == "density":
        from repro.noise.density import density_forward

        result = density_forward(
            autoencoder, enc.amplitudes(), model, seed=seed, epoch=epoch
        )
    elif path == "trajectory":
        result = trajectory_forward(
            autoencoder,
            enc.amplitudes(),
            model,
            trajectories=trajectories,
            seed=seed,
            epoch=epoch,
            pool=pool,
        )
    else:
        from repro.exceptions import NoiseError

        raise NoiseError(
            f"unknown noise path {path!r}; expected 'trajectory' or 'density'"
        )
    out = _metrics_from_result(result, X, enc.squared_norms)
    out["trajectories"] = float(result.trajectories)
    return out


def degradation_curve(
    autoencoder,
    X: np.ndarray,
    model: NoiseModel,
    *,
    scales: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    trajectories: int = 64,
    seed: int = 0,
    pool=None,
    path: str = "trajectory",
) -> List[Dict[str, float]]:
    """Sweep ``model.scaled(s)`` over ``scales`` and record the metrics.

    The same realization seeds are reused at every scale (common random
    numbers), so the curve is smooth in the scale rather than jittered by
    independent sampling — monotonicity assertions compare like with
    like.
    """
    records: List[Dict[str, float]] = []
    for scale in scales:
        scaled = model.scaled(float(scale))
        rec: Dict[str, float] = {"scale": float(scale)}
        rec.update(
            {
                "theta_sigma": scaled.theta_sigma,
                "loss_per_gate": scaled.loss_per_gate,
                "dephasing": scaled.dephasing,
                "depolarizing": scaled.depolarizing,
            }
        )
        rec.update(
            evaluate_noisy(
                autoencoder,
                X,
                scaled,
                trajectories=trajectories,
                seed=seed,
                pool=pool,
                path=path,
            )
        )
        records.append(rec)
    return records
