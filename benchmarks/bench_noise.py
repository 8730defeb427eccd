"""Noise benchmark: the four degradation gates of the noise subsystem.

Every random draw below is realization-keyed (``realization_rng``), so
the whole benchmark is deterministic given its constants — the gates
measure modelling error and training payoff, not sampling flake.

- **(a) Path agreement** — at the paper architecture the trajectory
  mean over ``K = 400`` realizations reproduces the exact density fold
  to ``<= 0.005`` in output probabilities and ``<= 0.01`` in fidelity.
  (With no angle jitter the paths agree to rounding; that exact case is
  covered in ``tests/noise/test_execution.py``.)
- **(b) Graceful degradation** — scaling the ``mild`` preset through
  ``0 -> 2x`` degrades mean fidelity and transmission monotonically
  (no cliffs), with fidelity at the unscaled preset ``>= 0.85``.
- **(c) Noise-aware payoff** — fine-tuning a clean-trained mesh with
  jitter-averaged gradients (``K = 64`` realizations per step, low
  learning rate) reduces the per-realization reconstruction error
  under the matched channel by ``>= 1%``.  Per-realization — each
  deployed chip is one frozen miscalibration — not the ensemble
  average, which partially cancels jitter and hides the sharp-minimum
  penalty.
- **(d) Determinism** — the pool-sharded noise-averaged gradient is
  bitwise identical to the in-process loop at 2 and 4 workers, and a
  re-run is bitwise identical to the first.

Run standalone (``PYTHONPATH=src python benchmarks/bench_noise.py
[output.json]``) or via pytest (``pytest benchmarks/bench_noise.py``);
set ``BENCH_NOISE_JSON`` to also archive the JSON from the pytest run.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.network.autoencoder import QuantumAutoencoder
from repro.network.quantum_network import QuantumNetwork
from repro.noise import (
    NOISE_PRESETS,
    NoiseModel,
    degradation_curve,
    density_forward,
    noisy_loss_and_gradient,
    realization_rng,
    sample_mesh_matrix,
    trajectory_forward,
)
from repro.noise.trajectory import STREAM_UC, STREAM_UR
from repro.parallel.reducer import GradientReducer
from repro.training.optimizers import MomentumGD
from repro.training.trainer import Trainer

# -- (a) agreement: paper architecture, trajectory vs density ----------
AGREE_MODEL = NoiseModel(theta_sigma=0.03, loss_per_gate=0.005,
                         dephasing=0.03)
AGREE_K = 400
PROB_TOL = 0.005
FID_TOL = 0.01

# -- (b) degradation: the mild preset scaled through 0..2x -------------
CURVE_SCALES = (0.0, 0.5, 1.0, 2.0)
CURVE_K = 64
FIDELITY_FLOOR = 0.85  # at the unscaled mild preset

# -- (c) payoff: noise-aware fine-tune vs clean-trained ----------------
TUNE_MODEL = NoiseModel(theta_sigma=0.3)
TUNE_SEED = 1
TUNE_CLEAN_ITERS = 200
TUNE_NOISY_ITERS = 150
TUNE_K = 64
TUNE_LR = 0.002
EVAL_K = 128
IMPROVEMENT_FLOOR = 0.01  # >= 1% lower per-realization MSE

# -- (d) determinism: pool-sharded noisy gradient ----------------------
DET_MODEL = NoiseModel(theta_sigma=0.05)
DET_K = 6
POOL_SIZES = (2, 4)


def _paper_autoencoder(seed: int = 3) -> QuantumAutoencoder:
    ae = QuantumAutoencoder(16, 4, 12, 14, backend="fused")
    ae.initialize("uniform", rng=np.random.default_rng(seed))
    return ae


def _amplitudes(dim: int, m: int, seed: int) -> np.ndarray:
    a = np.abs(np.random.default_rng(seed).normal(size=(dim, m))) + 0.1
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def measure_agreement() -> Dict:
    """Trajectory mean at K = 400 vs the exact density fold."""
    ae = _paper_autoencoder()
    amps = _amplitudes(16, 8, seed=5)
    de = density_forward(ae, amps, AGREE_MODEL)
    tr = trajectory_forward(ae, amps, AGREE_MODEL, trajectories=AGREE_K,
                            seed=0)
    return {
        "trajectories": AGREE_K,
        "max_prob_diff": float(
            np.max(np.abs(tr.probabilities - de.probabilities))
        ),
        "max_fidelity_diff": float(np.max(np.abs(tr.fidelity - de.fidelity))),
        "prob_tol": PROB_TOL,
        "fidelity_tol": FID_TOL,
    }


def measure_degradation() -> Dict:
    """The mild preset scaled 0 -> 2x must degrade without cliffs."""
    ae = _paper_autoencoder()
    X = _amplitudes(16, 8, seed=5).T
    records = degradation_curve(
        ae, X, NOISE_PRESETS["mild"], scales=CURVE_SCALES,
        trajectories=CURVE_K, seed=0,
    )
    return {
        "scales": list(CURVE_SCALES),
        "mean_fidelity": [r["mean_fidelity"] for r in records],
        "mean_transmission": [r["mean_transmission"] for r in records],
        "fidelity_floor": FIDELITY_FLOOR,
    }


def _per_realization_mse(ae: QuantumAutoencoder, X: np.ndarray,
                         model: NoiseModel, k: int, seed: int = 0) -> float:
    """E over frozen realizations of the end-to-end reconstruction MSE."""
    enc = ae.codec.encode(np.asarray(X, dtype=np.float64))
    amps = enc.amplitudes()
    uc_p = ae.uc.get_flat_params()
    ur_p = ae.ur.get_flat_params()
    mses: List[float] = []
    for r in range(k):
        dev_c = sample_mesh_matrix(
            ae.uc, uc_p, model, realization_rng(seed, 0, r, STREAM_UC)
        )
        dev_r = sample_mesh_matrix(
            ae.ur, ur_p, model, realization_rng(seed, 0, r, STREAM_UR)
        )
        phi = dev_c @ amps
        ae.projection.apply_inplace(phi)
        x_hat = ae.codec.decode(np.abs(dev_r @ phi), enc.squared_norms)
        mses.append(float(np.mean((x_hat - np.asarray(X)) ** 2)))
    return float(np.mean(mses))


def measure_payoff() -> Dict:
    """Noise-aware fine-tune vs the clean-trained mesh it started from."""
    X = np.abs(np.random.default_rng(1).normal(size=(24, 8))) + 0.1
    ae = QuantumAutoencoder(8, 3, 4, 4, backend="fused")
    ae.initialize("uniform", rng=np.random.default_rng(TUNE_SEED))
    Trainer(iterations=TUNE_CLEAN_ITERS, backend="fused").train(ae, X)
    blind = _per_realization_mse(ae, X, TUNE_MODEL, EVAL_K)
    Trainer(
        iterations=TUNE_NOISY_ITERS,
        backend="fused",
        optimizer_factory=lambda: MomentumGD(TUNE_LR, 0.9),
        noise=TUNE_MODEL,
        noise_trajectories=TUNE_K,
    ).train(ae, X)
    aware = _per_realization_mse(ae, X, TUNE_MODEL, EVAL_K)
    return {
        "noise": TUNE_MODEL.spec_string(),
        "eval_realizations": EVAL_K,
        "noise_blind_mse": blind,
        "noise_aware_mse": aware,
        "improvement": (blind - aware) / blind,
        "improvement_floor": IMPROVEMENT_FLOOR,
    }


def measure_determinism() -> Dict:
    """Pool-sharded noisy gradient == in-process, bitwise, at 2 and 4
    workers, plus a bitwise re-run check."""
    net = QuantumNetwork(16, 12, backend="fused").initialize(
        "uniform", rng=np.random.default_rng(11)
    )
    x = _amplitudes(16, 32, seed=7)
    t = _amplitudes(16, 32, seed=8)
    kwargs = dict(model=DET_MODEL, trajectories=DET_K, seed=3, epoch=2)
    ref_v, ref_g = noisy_loss_and_gradient(net, x, t, **kwargs)
    rerun_v, rerun_g = noisy_loss_and_gradient(net, x, t, **kwargs)
    out: Dict = {
        "trajectories": DET_K,
        "rerun_bitwise": bool(
            ref_v == rerun_v and np.array_equal(ref_g, rerun_g)
        ),
    }
    for workers in POOL_SIZES:
        with GradientReducer(num_workers=workers) as reducer:
            v, g = reducer.noisy_loss_and_gradient(net, x, t, **kwargs)
        out[f"pool{workers}_bitwise"] = bool(
            v == ref_v and np.array_equal(g, ref_g)
        )
    return out


def run_benchmarks() -> Dict:
    return {
        "agreement": measure_agreement(),
        "degradation": measure_degradation(),
        "payoff": measure_payoff(),
        "determinism": measure_determinism(),
    }


def _emit(payload: Dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nbenchmark JSON written to {path}", file=sys.stderr)


def _monotone_nonincreasing(values: List[float]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def _gates_pass(payload: Dict) -> bool:
    """The full gate set — shared by the pytest and CLI entry points."""
    agree = payload["agreement"]
    if agree["max_prob_diff"] > agree["prob_tol"]:
        return False
    if agree["max_fidelity_diff"] > agree["fidelity_tol"]:
        return False
    curve = payload["degradation"]
    if not _monotone_nonincreasing(curve["mean_fidelity"]):
        return False
    if not _monotone_nonincreasing(curve["mean_transmission"]):
        return False
    at_one = curve["mean_fidelity"][curve["scales"].index(1.0)]
    if at_one < curve["fidelity_floor"]:
        return False
    payoff = payload["payoff"]
    if payoff["improvement"] < payoff["improvement_floor"]:
        return False
    det = payload["determinism"]
    return (
        det["rerun_bitwise"]
        and all(det[f"pool{w}_bitwise"] for w in POOL_SIZES)
    )


def test_noise_benchmark():
    """Degradation gates: (a) trajectory == density to statistical
    tolerance at K = 400; (b) monotone graceful degradation with the
    mild-preset fidelity floor; (c) noise-aware fine-tuning beats the
    noise-blind mesh under the matched channel; (d) the pool-sharded
    noisy gradient is bitwise reproducible across pool sizes."""
    payload = run_benchmarks()
    print()
    _emit(payload, os.environ.get("BENCH_NOISE_JSON"))
    assert _gates_pass(payload), payload


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.environ.get("BENCH_NOISE_JSON")
    payload = run_benchmarks()
    _emit(payload, path)
    return 0 if _gates_pass(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
