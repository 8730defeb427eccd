"""Extension studies beyond the paper's headline experiment.

Each function returns a list of plain-dict records (one per configuration)
so the benches can render them as tables and EXPERIMENTS.md can archive
them.  Covered:

- :func:`gradient_method_comparison` — paper FD vs central vs exact
  forward/adjoint (accuracy of the gradient and wall-clock cost);
- :func:`layer_sweep` / :func:`learning_rate_sweep` /
  :func:`compression_dim_sweep` — the architecture knobs of Section IV-A;
- :func:`initializer_comparison` — the paper's remark that initialisation
  "will bring different training effects";
- :func:`shot_noise_study` — finite measurement statistics (hardware
  realism; the paper's simulator assumes exact probabilities);
- :func:`imperfection_study` — interferometer angle miscalibration and
  per-gate loss;
- :func:`complex_network_study` — the Section V future-work extension
  (trainable phases alpha).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.encoding.amplitude import decode_batch
from repro.experiments.config import PaperConfig
from repro.noise.model import NoiseModel
from repro.noise.trajectory import measure_probabilities, sample_mesh_matrix
from repro.training.gradients import available_gradient_methods, loss_and_gradient
from repro.training.loss import SquaredErrorLoss
from repro.training.metrics import paper_accuracy
from repro.utils.rng import ensure_rng

__all__ = [
    "gradient_method_comparison",
    "layer_sweep",
    "learning_rate_sweep",
    "compression_dim_sweep",
    "initializer_comparison",
    "shot_noise_study",
    "imperfection_study",
    "complex_network_study",
]


def _train_once(cfg: PaperConfig) -> Dict[str, Any]:
    dataset = cfg.dataset()
    X = dataset.matrix()
    ae = cfg.build_autoencoder()
    strategy = cfg.build_target_strategy(ae, X)
    trainer = cfg.build_trainer(record_theta_every=None)
    result = trainer.train(ae, X, target_strategy=strategy)
    return {
        "accuracy_pct": result.final_accuracy,
        "loss_c": result.final_loss_c,
        "loss_r": result.final_loss_r,
        "wall_seconds": result.history.wall_seconds,
        "autoencoder": ae,
        "X": X,
        "result": result,
    }


def gradient_method_comparison(
    config: Optional[PaperConfig] = None,
    methods: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Gradient accuracy (vs the exact adjoint) and cost per evaluation."""
    cfg = config or PaperConfig()
    dataset = cfg.dataset()
    X = dataset.matrix()
    ae = cfg.build_autoencoder()
    enc = ae.codec.encode(X)
    strategy = cfg.build_target_strategy(ae, X)
    targets = strategy.targets(enc)
    loss = SquaredErrorLoss("sum")
    _, exact = loss_and_gradient(
        ae.uc, enc.amplitudes(), targets,
        loss=loss, projection=ae.projection, method="adjoint",
    )
    records = []
    for method in methods or available_gradient_methods():
        t0 = time.perf_counter()
        value, grad = loss_and_gradient(
            ae.uc, enc.amplitudes(), targets,
            loss=loss, projection=ae.projection, method=method,
        )
        elapsed = time.perf_counter() - t0
        records.append(
            {
                "method": method,
                "loss": value,
                "max_error_vs_adjoint": float(np.max(np.abs(grad - exact))),
                "seconds_per_gradient": elapsed,
            }
        )
    return records


def layer_sweep(
    config: Optional[PaperConfig] = None,
    layer_counts: Sequence[int] = (2, 4, 8, 12, 16),
) -> List[Dict[str, Any]]:
    """Accuracy/loss vs network depth (l_C; l_R follows at +2 as the paper)."""
    cfg = config or PaperConfig()
    records = []
    for layers in layer_counts:
        sub = cfg.with_(
            compression_layers=layers, reconstruction_layers=layers + 2
        )
        out = _train_once(sub)
        records.append(
            {
                "compression_layers": layers,
                "reconstruction_layers": layers + 2,
                "accuracy_pct": out["accuracy_pct"],
                "loss_c": out["loss_c"],
                "loss_r": out["loss_r"],
                "wall_seconds": out["wall_seconds"],
            }
        )
    return records


def learning_rate_sweep(
    config: Optional[PaperConfig] = None,
    rates: Sequence[float] = (0.001, 0.005, 0.01, 0.05, 0.1),
) -> List[Dict[str, Any]]:
    """Final losses/accuracy vs the learning rate ``eta``."""
    cfg = config or PaperConfig()
    records = []
    for lr in rates:
        out = _train_once(cfg.with_(learning_rate=lr))
        records.append(
            {
                "learning_rate": lr,
                "accuracy_pct": out["accuracy_pct"],
                "loss_c": out["loss_c"],
                "loss_r": out["loss_r"],
            }
        )
    return records


def compression_dim_sweep(
    config: Optional[PaperConfig] = None,
    dims: Sequence[int] = (2, 3, 4, 6, 8),
) -> List[Dict[str, Any]]:
    """Accuracy vs the compression budget ``d``.

    The dataset has effective rank 4, so the paper-shape expectation is a
    knee at ``d = 4``: below it accuracy collapses (information destroyed),
    at/above it accuracy saturates.
    """
    cfg = config or PaperConfig()
    records = []
    for d in dims:
        out = _train_once(cfg.with_(compressed_dim=d))
        records.append(
            {
                "compressed_dim": d,
                "accuracy_pct": out["accuracy_pct"],
                "loss_c": out["loss_c"],
                "loss_r": out["loss_r"],
                "compression_ratio": d / cfg.dim,
            }
        )
    return records


def initializer_comparison(
    config: Optional[PaperConfig] = None,
    methods: Sequence[str] = ("uniform", "zeros", "constant", "small"),
) -> List[Dict[str, Any]]:
    """Final losses for different theta initialisations (Section III-C)."""
    cfg = config or PaperConfig()
    dataset = cfg.dataset()
    X = dataset.matrix()
    records = []
    for method in methods:
        ae = cfg.build_autoencoder()
        ae.initialize(method, rng=np.random.default_rng(cfg.seed))
        strategy = cfg.build_target_strategy(ae, X)
        trainer = cfg.build_trainer(record_theta_every=None)
        result = trainer.train(ae, X, target_strategy=strategy)
        records.append(
            {
                "initializer": method,
                "accuracy_pct": result.final_accuracy,
                "loss_c": result.final_loss_c,
                "loss_r": result.final_loss_r,
            }
        )
    return records


def shot_noise_study(
    config: Optional[PaperConfig] = None,
    shots_list: Sequence[Optional[int]] = (None, 100, 1000, 10000, 100000),
    seed: int = 7,
) -> List[Dict[str, Any]]:
    """Accuracy of a *trained* pipeline when outputs are measured with
    finitely many shots (the paper's simulator assumes exact Born values).

    ``None`` means exact probabilities (the paper's regime).
    """
    cfg = config or PaperConfig()
    trained = _train_once(cfg)
    ae, X = trained["autoencoder"], trained["X"]
    enc = ae.codec.encode(X)
    out = ae.forward_encoded(enc)
    rng = ensure_rng(seed)
    probabilities = np.abs(out.output_amplitudes) ** 2
    records = []
    for shots in shots_list:
        # The shot budget rides through the first-class NoiseModel (its
        # validation included); measurement itself is the noise stack's
        # unbiased sub-normalized-state sampler.
        model = NoiseModel(shots=None if shots is None else int(shots))
        estimated = measure_probabilities(probabilities, model.shots, rng)
        x_hat = decode_batch(
            np.sqrt(np.clip(estimated, 0.0, None)), enc.squared_norms
        )
        records.append(
            {
                "shots": -1 if model.shots is None else int(model.shots),
                "accuracy_pct": paper_accuracy(x_hat, X),
            }
        )
    return records


def imperfection_study(
    config: Optional[PaperConfig] = None,
    theta_sigmas: Sequence[float] = (0.0, 0.001, 0.01, 0.05),
    losses: Sequence[float] = (0.0, 0.001, 0.01),
    seed: int = 11,
) -> List[Dict[str, Any]]:
    """Accuracy of a trained pipeline on an imperfect interferometer.

    Each grid point is *one* frozen fabrication realization of the
    :class:`~repro.noise.NoiseModel` (a physical device has its
    miscalibration baked in), folded into dense sub-unitary meshes by
    the same :func:`~repro.noise.sample_mesh_matrix` the trajectory
    execution path averages over.
    """
    cfg = config or PaperConfig()
    trained = _train_once(cfg)
    ae, X = trained["autoencoder"], trained["X"]
    enc = ae.codec.encode(X)
    uc_params = ae.uc.get_flat_params()
    ur_params = ae.ur.get_flat_params()
    rng = ensure_rng(seed)
    records = []
    for sigma in theta_sigmas:
        for loss in losses:
            model = NoiseModel(theta_sigma=sigma, loss_per_gate=loss)
            dev_c = sample_mesh_matrix(ae.uc, uc_params, model, rng)
            dev_r = sample_mesh_matrix(ae.ur, ur_params, model, rng)
            compressed = dev_c @ enc.amplitudes()
            ae.projection.apply_inplace(compressed)
            output = dev_r @ compressed
            x_hat = decode_batch(output, enc.squared_norms)
            records.append(
                {
                    "theta_sigma": sigma,
                    "loss_per_gate": loss,
                    "accuracy_pct": paper_accuracy(x_hat, X),
                    "mean_transmission": float(
                        np.mean(np.linalg.norm(output, axis=0) ** 2)
                    ),
                }
            )
    return records


def complex_network_study(
    config: Optional[PaperConfig] = None,
) -> List[Dict[str, Any]]:
    """Section V extension: real network vs trainable-phase (alpha) network.

    Both variants train with the configured gradient method — the adjoint
    tape pulls back through ``G^dagger``, so it serves the complex network
    as it does the real one.
    """
    cfg = config or PaperConfig()
    records = []
    for allow_phase in (False, True):
        sub = cfg.with_(allow_phase=allow_phase)
        out = _train_once(sub)
        records.append(
            {
                "allow_phase": allow_phase,
                "num_parameters": out["autoencoder"].num_parameters,
                "accuracy_pct": out["accuracy_pct"],
                "loss_c": out["loss_c"],
                "loss_r": out["loss_r"],
                "wall_seconds": out["wall_seconds"],
            }
        )
    return records
