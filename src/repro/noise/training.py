"""Noise-aware training: gradients averaged over jitter realizations.

A mesh trained on the exact simulator and deployed on a miscalibrated
chip sits at a sharp minimum: the loss the hardware realises is
``E_eps[L(theta + eps)]``, not ``L(theta)``.  Noise-aware training
optimises that expectation directly by averaging the exact gradient over
``K`` frozen-jitter realizations per step::

    g = (1/K) sum_r dL/dtheta (theta + eps_r),   eps_r ~ N(0, sigma^2 I)

which is the exact gradient of the realization-averaged loss (the jitter
enters additively in parameter space, so ``d/dtheta L(theta + eps) =
(dL/dparams)(theta + eps)``).  The parameter-*independent* channels of a
:class:`~repro.noise.model.NoiseModel` — insertion loss, dephasing,
depolarizing, finite shots — shift the evaluated loss but not its
parameter gradient to first order, so they enter evaluation
(:mod:`repro.noise.trajectory`) rather than the gradient; a model with
``theta_sigma == 0`` therefore reduces this step to the noise-blind one.

Reproducibility contract (the determinism gate in
``benchmarks/bench_noise.py`` and ``tests/noise``): realization ``r`` of
epoch ``e`` draws from ``realization_rng(seed, e, r, stream)`` — keyed on
the realization, never the worker — and the ``K`` per-realization
``(loss, grad)`` pairs are recombined by the fixed-topology
:func:`~repro.parallel.reducer.tree_reduce` in realization order.  The
result is bitwise identical run-to-run *and* across pool sizes
(``pool:2`` == ``pool:4``), because neither the draws nor the reduction
topology depend on how realizations were scattered.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import NoiseError
from repro.noise.model import NoiseModel
from repro.noise.trajectory import realization_rng

__all__ = ["draw_jitter", "noisy_loss_and_gradient"]


def draw_jitter(
    num_parameters: int,
    num_thetas: int,
    sigma: float,
    seed: int,
    epoch: int,
    realization: int,
    stream: int = 0,
) -> np.ndarray:
    """The flat-parameter jitter vector of one realization.

    Only the ``theta`` half is perturbed (the paper's meshes are
    phase-free; phases, when present, are not miscalibration targets).
    """
    eps = np.zeros(int(num_parameters), dtype=np.float64)
    rng = realization_rng(seed, epoch, realization, stream)
    eps[:num_thetas] = rng.normal(0.0, sigma, size=int(num_thetas))
    return eps


def _noise_shard_task(payload: Tuple) -> List[Tuple[float, np.ndarray]]:
    """Worker task: per-realization ``(loss, grad)`` for ``[lo, hi)``.

    Each realization evaluates the *full* batch at ``params + eps_r``
    through the in-worker ``fused`` backend, so the values depend only on
    the realization index — never on the shard boundaries.
    """
    (
        struct,
        params,
        inputs,
        targets,
        loss,
        keep,
        method,
        delta,
        engine,
        sigma,
        num_thetas,
        seed,
        epoch,
        stream,
        lo,
        hi,
    ) = payload
    from repro.parallel.reducer import _worker_network, _worker_projection
    from repro.training.gradients import loss_and_gradient

    net = _worker_network(struct)
    projection = _worker_projection(struct[0], keep)
    out: List[Tuple[float, np.ndarray]] = []
    try:
        for r in range(lo, hi):
            eps = draw_jitter(
                params.shape[0], num_thetas, sigma, seed, epoch, r, stream
            )
            net.set_flat_params(params + eps)
            out.append(
                loss_and_gradient(
                    net,
                    inputs,
                    targets,
                    loss=loss,
                    projection=projection,
                    method=method,
                    delta=delta,
                    engine=engine,
                )
            )
    finally:
        net.set_flat_params(params)
    return out


def noisy_loss_and_gradient(
    network,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    model: NoiseModel,
    trajectories: int,
    seed: int,
    epoch: int = 0,
    stream: int = 0,
    loss=None,
    projection=None,
    method: str = "adjoint",
    delta: Optional[float] = None,
    engine: Optional[str] = None,
    reducer=None,
) -> Tuple[float, np.ndarray]:
    """``(E_r[loss], E_r[grad])`` over ``K = trajectories`` realizations.

    With ``reducer`` (a :class:`~repro.parallel.reducer.GradientReducer`
    of more than one worker) the realization range is sharded over the
    pool; otherwise the loop runs in-process.  Either way the result is
    the same realization-ordered tree reduction.

    A model without angle jitter short-circuits to the plain (single)
    gradient: the remaining channels do not depend on the parameters, so
    averaging over them would spend ``K`` evaluations reproducing one.
    """
    K = int(trajectories)
    if K < 1:
        raise NoiseError(f"noise_trajectories must be >= 1, got {trajectories!r}")
    from repro.parallel.reducer import tree_reduce
    from repro.training.gradients import loss_and_gradient

    if model.theta_sigma <= 0.0:
        if reducer is not None:
            return reducer.loss_and_gradient(
                network,
                inputs,
                targets,
                loss=loss,
                projection=projection,
                method=method,
                delta=delta,
                engine=engine,
            )
        return loss_and_gradient(
            network,
            inputs,
            targets,
            loss=loss,
            projection=projection,
            method=method,
            delta=delta,
            engine=engine,
        )

    pairs: List[Tuple[float, np.ndarray]]
    if reducer is not None and reducer.num_workers > 1 and K > 1:
        from repro.parallel.sharding import plan_shards

        struct = (
            network.dim,
            network.num_layers,
            network.descending,
            network.allow_phase,
        )
        params = network.get_flat_params()
        keep = (
            None
            if projection is None
            else tuple(int(k) for k in projection.keep)
        )
        arr = np.ascontiguousarray(inputs)
        tgt = np.ascontiguousarray(targets)
        shards = plan_shards(K, min(reducer.num_workers, K))
        payloads = [
            (
                struct,
                params,
                arr,
                tgt,
                loss,
                keep,
                method,
                delta,
                engine,
                model.theta_sigma,
                network.num_thetas,
                int(seed),
                int(epoch),
                int(stream),
                s.start,
                s.stop,
            )
            for s in shards
        ]
        pairs = []
        for chunk in reducer.pool.map(_noise_shard_task, payloads):
            pairs.extend(chunk)
    else:
        params = network.get_flat_params()
        pairs = []
        try:
            for r in range(K):
                eps = draw_jitter(
                    params.shape[0],
                    network.num_thetas,
                    model.theta_sigma,
                    int(seed),
                    int(epoch),
                    r,
                    int(stream),
                )
                network.set_flat_params(params + eps)
                pairs.append(
                    loss_and_gradient(
                        network,
                        inputs,
                        targets,
                        loss=loss,
                        projection=projection,
                        method=method,
                        delta=delta,
                        engine=engine,
                    )
                )
        finally:
            network.set_flat_params(params)

    value = tree_reduce([v for v, _ in pairs]) / K
    grad = tree_reduce([g for _, g in pairs]) / K
    return float(value), grad
