"""Training benchmark: data-parallel GradientReducer vs single-process.

``Trainer(parallel="pool[:K]")`` routes every gradient step through a
:class:`~repro.parallel.reducer.GradientReducer` — the sample batch (or,
for the finite-difference methods, the parameter-perturbation stack)
scattered over a persistent :class:`~repro.parallel.pool.WorkerPool` and
recombined by a deterministic :func:`~repro.parallel.reducer.tree_reduce`.
This benchmark asserts the two contracts that make that deployable:

- **Gradient agreement** — at the paper architecture (``dim=16``,
  ``l_C=12``) and identical batch order, the 2-worker reduced
  ``(loss, grad)`` matches the single-process engine to ``<= 1e-10``
  for the exact ``adjoint`` method (batch sharding) *and* the paper's
  ``fd`` method (perturbation-stack sharding), and a re-run of the
  reduction is *bitwise identical* (the determinism contract).  The
  single-process fd reference runs on the fused backend — the same
  workspace the workers use — so the comparison isolates the sharding
  error rather than backend base-loss rounding amplified by
  ``1/delta``.  Runs on any host.
- **Epoch throughput** — at a wide batch (``M = 16384``) a 4-worker
  reducer delivers ``>= 2x`` the single-process adjoint
  gradient-epoch throughput.  Workers are pinned to single-threaded
  BLAS, so this measures genuine data parallelism.  On hosts with
  fewer than 4 usable CPUs (CPU-affinity mask, not nominal core
  count) the gate *skips with a logged reason* instead of reporting
  scheduler noise.

Run standalone (``PYTHONPATH=src python benchmarks/bench_training.py
[output.json]``) or via pytest (``pytest benchmarks/bench_training.py``);
set ``BENCH_TRAINING_JSON`` to also archive the JSON from the pytest run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.parallel.pool import default_worker_count
from repro.parallel.reducer import GradientReducer
from repro.training.gradients import loss_and_gradient
from repro.training.loss import SquaredErrorLoss

# -- agreement: the paper architecture, reduced over 2 workers ----------
AGREE_DIM = 16
AGREE_LAYERS = 12
AGREE_M = 256
AGREE_WORKERS = 2
MATCH_TOL = 1e-10

# -- throughput: a batch wide enough for data parallelism to matter ----
PERF_DIM = 16
PERF_LAYERS = 12
PERF_M = 16384
PERF_WORKERS = 4
PERF_REPEATS = 3
SPEEDUP_FLOOR = 2.0
MIN_CPUS = 4


def _network(seed: int, backend: str = "fused") -> QuantumNetwork:
    return QuantumNetwork(
        AGREE_DIM, AGREE_LAYERS, backend=backend
    ).initialize("uniform", rng=np.random.default_rng(seed))


def _batch(m: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(dim, m))) + 0.1
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    t = np.abs(rng.normal(size=(dim, m))) + 0.1
    t /= np.linalg.norm(t, axis=0, keepdims=True)
    return x, t


def measure_agreement() -> Dict:
    """2-worker reduced (loss, grad) vs single-process, plus a bitwise
    re-run check, for adjoint (batch shards) and fd (param shards)."""
    x, t = _batch(AGREE_M, AGREE_DIM, seed=7)
    projection = Projection.last(AGREE_DIM, 4)
    out: Dict = {}
    with GradientReducer(num_workers=AGREE_WORKERS) as reducer:
        for method, reduction in (
            ("adjoint", "sum"),
            ("adjoint", "mean"),
            ("fd", "sum"),
        ):
            loss = SquaredErrorLoss(reduction=reduction)
            # The fused single-process reference shares the workers'
            # workspace arithmetic (matters at 1/delta amplification).
            net = _network(seed=11)
            ref_v, ref_g = loss_and_gradient(
                net, x, t, loss=loss, projection=projection, method=method
            )
            par_v, par_g = reducer.loss_and_gradient(
                net, x, t, loss=loss, projection=projection, method=method
            )
            rerun_v, rerun_g = reducer.loss_and_gradient(
                net, x, t, loss=loss, projection=projection, method=method
            )
            out[f"{method}_{reduction}"] = {
                "value_match": abs(par_v - ref_v),
                "grad_match": float(np.max(np.abs(par_g - ref_g))),
                "rerun_bitwise": bool(
                    par_v == rerun_v and np.array_equal(par_g, rerun_g)
                ),
            }
    return out


def _epoch_throughput(reducer: Optional[GradientReducer],
                      x: np.ndarray, t: np.ndarray) -> float:
    """Best-of-N columns/second of one full-batch adjoint gradient."""
    net = QuantumNetwork(
        PERF_DIM, PERF_LAYERS, backend="fused"
    ).initialize("uniform", rng=np.random.default_rng(5))
    loss = SquaredErrorLoss(reduction="sum")

    def step():
        if reducer is None:
            return loss_and_gradient(net, x, t, loss=loss, method="adjoint")
        return reducer.loss_and_gradient(
            net, x, t, loss=loss, method="adjoint"
        )

    step()  # warm-up: spawn workers, build workspaces, ship shards
    best = float("inf")
    for _ in range(PERF_REPEATS):
        t0 = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - t0)
    return x.shape[1] / best


def measure_throughput() -> Dict:
    x, t = _batch(PERF_M, PERF_DIM, seed=3)
    single = _epoch_throughput(None, x, t)
    with GradientReducer(num_workers=PERF_WORKERS) as reducer:
        multi = _epoch_throughput(reducer, x, t)
    return {
        "single_process_cols_per_s": single,
        "pool_cols_per_s": multi,
        "workers": PERF_WORKERS,
        "speedup": multi / single,
        "speedup_floor": SPEEDUP_FLOOR,
    }


def run_benchmarks() -> Dict:
    usable = default_worker_count()
    payload: Dict = {
        "config": {
            "agreement": {
                "dim": AGREE_DIM, "layers": AGREE_LAYERS, "m": AGREE_M,
                "workers": AGREE_WORKERS, "match_tol": MATCH_TOL,
            },
            "throughput": {
                "dim": PERF_DIM, "layers": PERF_LAYERS, "m": PERF_M,
                "workers": PERF_WORKERS, "repeats": PERF_REPEATS,
                "min_cpus": MIN_CPUS,
            },
            "usable_cpus": usable,
        },
        "agreement": measure_agreement(),
    }
    if usable < MIN_CPUS:
        reason = (
            f"host exposes {usable} usable CPU(s) < {MIN_CPUS}; "
            f"{PERF_WORKERS}-worker throughput would measure scheduler "
            "noise, not data parallelism"
        )
        print(f"throughput gate SKIPPED: {reason}", file=sys.stderr)
        payload["throughput"] = {"skipped": reason}
    else:
        payload["throughput"] = measure_throughput()
    return payload


def _emit(payload: Dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nbenchmark JSON written to {path}", file=sys.stderr)


def _gates_pass(payload: Dict) -> bool:
    """The full gate set — shared by the pytest and CLI entry points."""
    for record in payload["agreement"].values():
        if record["value_match"] > MATCH_TOL:
            return False
        if record["grad_match"] > MATCH_TOL:
            return False
        if not record["rerun_bitwise"]:
            return False
    throughput = payload["throughput"]
    if "skipped" in throughput:
        return True  # logged skip on small hosts is a pass, not silence
    return throughput["speedup"] >= SPEEDUP_FLOOR


def test_training_benchmark():
    """Perf-trajectory gate: 2-worker reduced gradients == single-process
    to <= 1e-10 at identical batch order (bitwise reproducible on
    re-run), and 4 workers >= 2x single-process epoch throughput at
    M = 16384 (skipped with a logged reason below 4 usable CPUs)."""
    payload = run_benchmarks()
    print()
    _emit(payload, os.environ.get("BENCH_TRAINING_JSON"))
    assert _gates_pass(payload), payload


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.environ.get("BENCH_TRAINING_JSON")
    payload = run_benchmarks()
    _emit(payload, path)
    return 0 if _gates_pass(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
