"""Noise-aware training: gradients averaged over jitter realizations.

A mesh trained on the exact simulator and deployed on a miscalibrated
chip sits at a sharp minimum: the loss the hardware realises is
``E_eps[L(theta + eps)]``, not ``L(theta)``.  Noise-aware training
optimises that expectation directly by averaging the exact gradient over
``K`` frozen-jitter realizations per step::

    g = (1/K) sum_r dL/dtheta (theta + eps_r),   eps_r ~ N(0, sigma^2 I)

which is the exact gradient of the realization-averaged loss under angle
jitter (the jitter enters additively in parameter space, so
``d/dtheta L(theta + eps) = (dL/dparams)(theta + eps)``).  The gradient
averages angle jitter only: it leaves out insertion loss and the wire
channels of a :class:`~repro.noise.model.NoiseModel` (dephasing,
depolarizing, finite shots), which enter evaluation
(:mod:`repro.noise.trajectory`) but not the step.  Insertion loss does
move the gradient — each path of a chain mesh crosses a different number
of lossy gates — so this is the jitter-averaged gradient, not the exact
gradient of the evaluated lossy loss.  A model with ``theta_sigma == 0``
reduces this step to the noise-blind one.

With the exact ``adjoint`` method all ``K`` realizations go through one
:func:`~repro.training.gradients.adjoint_sweep` call per mesh — in
process, or once per pool shard on its slice of ``[0, K)``; the other
methods set each realization's parameters in turn.

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
from repro.noise.trajectory import jitter_block

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
    The one-row case of :func:`~repro.noise.trajectory.jitter_block`.
    """
    eps = np.zeros(int(num_parameters), dtype=np.float64)
    eps[:num_thetas] = jitter_block(
        num_thetas, sigma, seed, epoch, realization, realization + 1, stream
    )[0]
    return eps


def _realization_pairs(
    network,
    params: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss,
    projection,
    method: str,
    delta: Optional[float],
    sigma: float,
    seed: int,
    epoch: int,
    stream: int,
    lo: int,
    hi: int,
) -> List[Tuple[float, np.ndarray]]:
    """Per-realization ``(loss, grad)`` at ``params + eps_r``, ``r`` in
    ``[lo, hi)`` — the body the in-process path and each pool shard run.

    Each realization evaluates the *full* batch, so the values depend only
    on the realization index — never on the shard boundaries.  The exact
    ``adjoint`` method runs all of them in one
    :func:`~repro.training.gradients.adjoint_sweep`; the other methods set
    each realization's parameters in turn.
    """
    from repro.training.gradients import adjoint_sweep, loss_and_gradient

    eps = np.zeros((hi - lo, params.shape[0]), dtype=np.float64)
    eps[:, : network.num_thetas] = jitter_block(
        network.num_thetas, sigma, seed, epoch, lo, hi, stream
    )
    sets = params + eps
    if str(method).lower() == "adjoint":
        values, grads = adjoint_sweep(
            network, sets, inputs, targets, loss=loss, projection=projection
        )
        return list(zip(values, grads))
    out: List[Tuple[float, np.ndarray]] = []
    try:
        for jittered in sets:
            network.set_flat_params(jittered)
            out.append(
                loss_and_gradient(
                    network,
                    inputs,
                    targets,
                    loss=loss,
                    projection=projection,
                    method=method,
                    delta=delta,
                )
            )
    finally:
        network.set_flat_params(params)
    return out


def _noise_shard_task(payload: Tuple) -> List[Tuple[float, np.ndarray]]:
    """Worker task: :func:`_realization_pairs` for one shard ``[lo, hi)``
    on the in-worker ``fused`` network."""
    from repro.parallel.reducer import _worker_network, _worker_projection

    struct, keep, params, inputs, targets, loss, *rest = payload
    return _realization_pairs(
        _worker_network(struct),
        params,
        inputs,
        targets,
        loss,
        _worker_projection(struct[0], keep),
        *rest,
    )


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
            )
        return loss_and_gradient(
            network,
            inputs,
            targets,
            loss=loss,
            projection=projection,
            method=method,
            delta=delta,
        )

    params = network.get_flat_params()
    args = (
        method,
        delta,
        model.theta_sigma,
        int(seed),
        int(epoch),
        int(stream),
    )
    pairs: List[Tuple[float, np.ndarray]]
    if reducer is not None and reducer.num_workers > 1 and K > 1:
        from repro.parallel.reducer import _network_struct
        from repro.parallel.sharding import plan_shards

        struct = _network_struct(network)
        keep = (
            None
            if projection is None
            else tuple(int(k) for k in projection.keep)
        )
        arr = np.ascontiguousarray(inputs)
        tgt = np.ascontiguousarray(targets)
        shards = plan_shards(K, min(reducer.num_workers, K))
        payloads = [
            (struct, keep, params, arr, tgt, loss) + args + (s.start, s.stop)
            for s in shards
        ]
        pairs = []
        for chunk in reducer.pool.map(_noise_shard_task, payloads):
            pairs.extend(chunk)
    else:
        pairs = _realization_pairs(
            network, params, inputs, targets, loss, projection, *args, 0, K
        )

    value = tree_reduce([v for v, _ in pairs]) / K
    grad = tree_reduce([g for _, g in pairs]) / K
    return float(value), grad
