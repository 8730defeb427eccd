"""Gradient-engine benchmark: batched einsum drive vs the looped reference.

PR 1's prefix/suffix workspace already removed the ``O(P^2)`` circuit
re-executions from the perturbative gradient methods, but it still walked
the ``P`` parameters in a Python loop.  The batched engine stacks each
layer's ``(2 x 2)`` perturbed blocks into single batched contractions
against the cached prefix rows and suffix columns, so a full gradient
costs ``O(num_layers)`` GEMM-like calls.  This benchmark measures both
engines at the paper's architecture (``N = 16``, ``l_C = 12`` layers,
``M = 25`` samples, compression projection ``d = 4``) for every gradient
method, on the real network and the Section V complex (``allow_phase``)
extension.

Acceptance gates asserted here (and printed as JSON for the perf
trajectory):

- batched ``fd`` gradients are >= 3x faster than the PR 1 looped path at
  the paper configuration;
- the batched (vectorised) ``adjoint`` sweep is >= 3x faster than the
  per-gate reference walk on the real network;
- the batched engine matches the looped reference to <= 1e-8 for all four
  methods, real and complex.

Run standalone (``PYTHONPATH=src python benchmarks/bench_gradients.py
[output.json]``) or via pytest (``pytest benchmarks/bench_gradients.py``);
set ``BENCH_GRADIENTS_JSON`` to also archive the JSON from the pytest run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.gradients import loss_and_gradient

PAPER_DIM = 16
PAPER_LAYERS = 12          # l_C — the compression network
PAPER_M = 25
PAPER_COMPRESSED = 4
GRADIENT_METHODS = ["fd", "central", "derivative", "adjoint"]
ENGINES = ["looped", "batched"]
VARIANTS = ["real", "complex"]

SPEEDUP_FLOOR = 3.0
ENGINE_MATCH_TOL = 1e-8


def _time(fn: Callable[[], object], repeats: int = 5) -> float:
    """Best-of-``repeats`` wall seconds (one untimed warmup call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _network(allow_phase: bool, seed: int = 2024) -> QuantumNetwork:
    net = QuantumNetwork(
        PAPER_DIM, PAPER_LAYERS, allow_phase=allow_phase, backend="fused"
    )
    net.initialize("uniform", rng=np.random.default_rng(seed))
    if allow_phase:
        rng = np.random.default_rng(seed + 1)
        params = net.get_flat_params()
        params[net.num_thetas :] = 0.4 * rng.normal(size=net.num_thetas)
        net.set_flat_params(params)
    return net


def _problem(seed: int = 7):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(PAPER_DIM, PAPER_M))
    x /= np.linalg.norm(x, axis=0)
    t = rng.normal(size=(PAPER_DIM, PAPER_M))
    t /= np.linalg.norm(t, axis=0)
    return x, t


def bench_engines() -> List[Dict]:
    """Seconds per gradient and engine agreement, method x engine x dtype."""
    x, t = _problem()
    proj = Projection.last(PAPER_DIM, PAPER_COMPRESSED)
    rows: List[Dict] = []
    for variant in VARIANTS:
        net = _network(allow_phase=variant == "complex")
        grads: Dict[str, Dict[str, np.ndarray]] = {}
        for method in GRADIENT_METHODS:
            grads[method] = {}
            for engine in ENGINES:
                _, grad = loss_and_gradient(
                    net, x, t, projection=proj, method=method, engine=engine
                )
                grads[method][engine] = grad
                seconds = _time(
                    lambda: loss_and_gradient(
                        net,
                        x,
                        t,
                        projection=proj,
                        method=method,
                        engine=engine,
                    )
                )
                rows.append(
                    {
                        "kind": "gradient",
                        "variant": variant,
                        "method": method,
                        "engine": engine,
                        "num_parameters": net.num_parameters,
                        "seconds_per_gradient": seconds,
                    }
                )
            rows.append(
                {
                    "kind": "engine_match",
                    "variant": variant,
                    "method": method,
                    "max_abs_diff_vs_looped": float(
                        np.max(
                            np.abs(
                                grads[method]["batched"]
                                - grads[method]["looped"]
                            )
                        )
                    ),
                }
            )
    return rows


def run_benchmarks() -> Dict:
    rows = bench_engines()

    def seconds(variant: str, method: str, engine: str) -> float:
        return next(
            r["seconds_per_gradient"]
            for r in rows
            if r["kind"] == "gradient"
            and r["variant"] == variant
            and r["method"] == method
            and r["engine"] == engine
        )

    speedups = {
        f"{variant}_{method}": seconds(variant, method, "looped")
        / seconds(variant, method, "batched")
        for variant in VARIANTS
        for method in GRADIENT_METHODS
    }
    worst_match = max(
        r["max_abs_diff_vs_looped"] for r in rows if r["kind"] == "engine_match"
    )
    return {
        "config": {
            "dim": PAPER_DIM,
            "num_layers": PAPER_LAYERS,
            "batch_width": PAPER_M,
            "compressed_dim": PAPER_COMPRESSED,
        },
        "rows": rows,
        "summary": {
            "fd_gradient_speedup_batched_vs_looped": speedups["real_fd"],
            "engine_speedups": speedups,
            "engine_match_worst": worst_match,
            "speedup_floor": SPEEDUP_FLOOR,
            "engine_match_tol": ENGINE_MATCH_TOL,
        },
    }


def _emit(payload: Dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\nbenchmark JSON written to {path}", file=sys.stderr)


def _gates_pass(payload: Dict) -> bool:
    """The full gate set — shared by the pytest and CLI entry points."""
    summary = payload["summary"]
    return (
        summary["fd_gradient_speedup_batched_vs_looped"] >= SPEEDUP_FLOOR
        # The complex network must accelerate too (phases double P).
        and summary["engine_speedups"]["complex_fd"] >= SPEEDUP_FLOOR
        and summary["engine_speedups"]["real_adjoint"] >= SPEEDUP_FLOOR
        and summary["engine_match_worst"] <= ENGINE_MATCH_TOL
    )


def test_gradient_engine_benchmark():
    """Perf-trajectory gate: batched >= 3x on fd (real and complex) and
    on the real adjoint, engine match <= 1e-8 everywhere."""
    payload = run_benchmarks()
    print()
    _emit(payload, os.environ.get("BENCH_GRADIENTS_JSON"))
    assert _gates_pass(payload), payload["summary"]


def main(argv: List[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.environ.get("BENCH_GRADIENTS_JSON")
    payload = run_benchmarks()
    _emit(payload, path)
    return 0 if _gates_pass(payload) else 1


if __name__ == "__main__":
    sys.exit(main())
