"""Execution-backend benchmark: fused GEMM + cached gradients vs the loop.

Measures, at the paper's architecture (``N = 16``, ``l_C = 12`` /
``l_R = 14``):

- forward throughput (states/sec) as a function of batch width ``M`` for
  the ``loop`` and ``fused`` backends;
- wall-time per full gradient for every method x backend combination,
  with the paper's ``fd`` method (Eq. 8) as the headline: the prefix/
  suffix cache turns its ``P + 1`` full circuit re-executions into
  ``O(N M)`` work per parameter.

Acceptance gates asserted here (and printed as JSON for the perf
trajectory):

- fused ``fd`` gradients are >= 5x faster than loop ``fd`` gradients;
- fused ``fd`` gradients match the loop reference to <= 1e-8.

Run standalone (``PYTHONPATH=src python benchmarks/bench_backends.py
[output.json]``) or via pytest (``pytest benchmarks/bench_backends.py``);
set ``BENCH_BACKENDS_JSON`` to also archive the JSON from the pytest run.
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
from repro.training.gradients import (
    available_gradient_methods,
    loss_and_gradient,
)

PAPER_DIM = 16
PAPER_LAYERS = {"uc": 12, "ur": 14}
PAPER_M = 25
FORWARD_WIDTHS = [64, 512, 4096]
GRADIENT_METHODS = available_gradient_methods()
BACKENDS = ["loop", "fused"]

SPEEDUP_FLOOR = 5.0
GRAD_MATCH_TOL = 1e-8


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall seconds (one untimed warmup call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _network(layers: int, backend: str, seed: int = 2024) -> QuantumNetwork:
    net = QuantumNetwork(PAPER_DIM, layers, backend=backend)
    return net.initialize("uniform", rng=np.random.default_rng(seed))


def _problem(m: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(PAPER_DIM, m))
    x /= np.linalg.norm(x, axis=0)
    t = rng.normal(size=(PAPER_DIM, m))
    t /= np.linalg.norm(t, axis=0)
    return x, t


def bench_forward() -> List[Dict]:
    """States/sec for each backend over increasing batch widths."""
    rows = []
    for m in FORWARD_WIDTHS:
        x, _ = _problem(m)
        for backend in BACKENDS:
            net = _network(PAPER_LAYERS["uc"], backend)
            seconds = _time(lambda: net.forward(x))
            rows.append(
                {
                    "kind": "forward",
                    "backend": backend,
                    "batch_width": m,
                    "seconds": seconds,
                    "states_per_sec": m / seconds,
                }
            )
    return rows


def bench_gradients() -> List[Dict]:
    """Seconds per full gradient, method x backend, at the paper config."""
    x, t = _problem(PAPER_M)
    proj = Projection.last(PAPER_DIM, 4)
    rows = []
    grads: Dict[tuple, np.ndarray] = {}
    for backend in BACKENDS:
        net = _network(PAPER_LAYERS["uc"], backend)
        for method in GRADIENT_METHODS:
            _, grad = loss_and_gradient(
                net, x, t, projection=proj, method=method
            )
            grads[(backend, method)] = grad
            seconds = _time(
                lambda: loss_and_gradient(
                    net, x, t, projection=proj, method=method
                ),
                repeats=2,
            )
            rows.append(
                {
                    "kind": "gradient",
                    "backend": backend,
                    "method": method,
                    "num_layers": PAPER_LAYERS["uc"],
                    "num_parameters": net.num_parameters,
                    "batch_width": PAPER_M,
                    "seconds_per_gradient": seconds,
                }
            )
    for method in GRADIENT_METHODS:
        match = float(
            np.max(np.abs(grads[("fused", method)] - grads[("loop", method)]))
        )
        rows.append(
            {
                "kind": "gradient_match",
                "method": method,
                "max_abs_diff_vs_loop": match,
            }
        )
    return rows


def run_benchmarks() -> Dict:
    forward_rows = bench_forward()
    gradient_rows = bench_gradients()

    def grad_seconds(backend: str, method: str) -> float:
        return next(
            r["seconds_per_gradient"]
            for r in gradient_rows
            if r["kind"] == "gradient"
            and r["backend"] == backend
            and r["method"] == method
        )

    fd_speedup = grad_seconds("loop", "fd") / grad_seconds("fused", "fd")
    fd_match = next(
        r["max_abs_diff_vs_loop"]
        for r in gradient_rows
        if r["kind"] == "gradient_match" and r["method"] == "fd"
    )
    return {
        "config": {
            "dim": PAPER_DIM,
            "layers": PAPER_LAYERS,
            "batch_width": PAPER_M,
            "forward_widths": FORWARD_WIDTHS,
        },
        "rows": forward_rows + gradient_rows,
        "summary": {
            "fd_gradient_speedup_fused_vs_loop": fd_speedup,
            "fd_gradient_max_abs_diff": fd_match,
            "speedup_floor": SPEEDUP_FLOOR,
            "grad_match_tol": GRAD_MATCH_TOL,
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


def test_backend_benchmark():
    """Perf-trajectory gate: fused >= 5x on fd gradients, match <= 1e-8."""
    payload = run_benchmarks()
    print()
    _emit(payload, os.environ.get("BENCH_BACKENDS_JSON"))
    summary = payload["summary"]
    assert summary["fd_gradient_speedup_fused_vs_loop"] >= SPEEDUP_FLOOR
    assert summary["fd_gradient_max_abs_diff"] <= GRAD_MATCH_TOL
    # Fused forward should win at wide batches too (GEMM vs kernel loop).
    wide = {
        r["backend"]: r["states_per_sec"]
        for r in payload["rows"]
        if r["kind"] == "forward" and r["batch_width"] == FORWARD_WIDTHS[-1]
    }
    assert wide["fused"] > wide["loop"]


def main(argv: List[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else os.environ.get("BENCH_BACKENDS_JSON")
    payload = run_benchmarks()
    _emit(payload, path)
    ok = (
        payload["summary"]["fd_gradient_speedup_fused_vs_loop"]
        >= SPEEDUP_FLOOR
        and payload["summary"]["fd_gradient_max_abs_diff"] <= GRAD_MATCH_TOL
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
