"""Data-parallel gradient reduction: :class:`GradientReducer`.

The ``sharded`` backend makes *inference* scale with cores; this module
does the same for *training*.  A
:class:`GradientReducer` owns (or borrows) a persistent
:class:`~repro.parallel.pool.WorkerPool` and evaluates
:func:`repro.training.gradients.loss_and_gradient` in parallel:

- **Batch sharding** (``shard="batch"``, the default for the exact
  ``adjoint``/``derivative`` methods): the ``(N, M)`` sample batch is
  split into column shards, each worker computes its shard's
  ``(loss, grad)`` with the full gradient engine stack (adjoint sweep,
  prefix/suffix workspace), and the shard results are
  combined with batch-size weights.
- **Parameter sharding** (``shard="params"``, the default for the
  finite-difference methods ``fd``/``central``): every worker receives
  the *full* batch plus a contiguous slice of the parameter-perturbation
  stack and evaluates only its slice of stencil passes through the
  cached workspace.  This matters numerically: under batch sharding a
  finite-difference gradient re-differences per-shard base losses and
  the ``~ulp(loss)/delta`` cancellation noise decorrelates from the
  single-process result, while perturbation-stack sharding reproduces
  the single-process arithmetic per parameter (each perturbed output and
  its loss reduction are computed independently per index), keeping the
  match at rounding level.

**Determinism contract.**  Shard results are combined by
:func:`tree_reduce` — a fixed-topology pairwise fold in shard-index
order — so for a given ``(num_workers, batch order)`` the reduced
gradient is *bit-reproducible run-to-run*: no dependence on worker
scheduling, task completion order, or which OS process served which
shard.  Changing the worker count changes the shard boundaries (and for
batch sharding the summation order), which moves the result only within
the method's rounding floor (``<= 1e-10`` gated by
``benchmarks/bench_training.py``).

Workers rebuild each network once from a structure tuple (the
``backends/sharded.py`` idiom) on the ``fused`` backend and refresh
parameters only when they change, so a training loop pays compile costs
once, not per iteration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GradientError
from repro.parallel.pool import WorkerPool, default_worker_count
from repro.parallel.sharding import plan_shards

__all__ = [
    "GradientReducer",
    "tree_reduce",
    "validate_parallel_spec",
    "resolve_parallel_workers",
]

#: Shard axis spellings accepted by :meth:`GradientReducer.loss_and_gradient`.
_SHARD_MODES = ("batch", "params")


# ----------------------------------------------------------------------
# parallel spec (the Trainer/CodecSpec/CLI "pool[:K]" spelling)
# ----------------------------------------------------------------------
def validate_parallel_spec(
    value: Optional[str], error_cls: type = GradientError
) -> Optional[str]:
    """Normalise a ``parallel`` spec: ``None``/"none", "pool", "pool:K".

    The single source of truth for trainer/config/CLI-level validation;
    higher layers pass their own ``error_cls``.  Returns the normalised
    spelling (or ``None`` for the single-process default).
    """
    if value is None:
        return None
    text = str(value).strip().lower()
    if text in ("", "none", "off"):
        return None
    if text == "pool":
        return "pool"
    if text.startswith("pool:"):
        tail = text[len("pool:"):]
        try:
            workers = int(tail)
        except ValueError:
            raise error_cls(
                f"parallel spec {value!r}: worker count {tail!r} is not an "
                "integer (expected 'pool' or 'pool:K')"
            ) from None
        if workers < 1:
            raise error_cls(
                f"parallel spec {value!r}: worker count must be >= 1"
            )
        return f"pool:{workers}"
    raise error_cls(
        f"unknown parallel spec {value!r}; expected None, 'none', 'pool' "
        "or 'pool:K'"
    )


def resolve_parallel_workers(spec: Optional[str]) -> Optional[int]:
    """Worker count a normalised spec asks for (``None`` = no pool).

    ``"pool"`` resolves against the CPU-affinity mask
    (:func:`~repro.parallel.pool.default_worker_count`).
    """
    if spec is None:
        return None
    if spec == "pool":
        return default_worker_count()
    return int(spec.split(":", 1)[1])


# ----------------------------------------------------------------------
# deterministic reduction
# ----------------------------------------------------------------------
def tree_reduce(values: Sequence):
    """Fixed-topology pairwise sum in index order.

    ``[a, b, c, d, e]`` folds as ``((a+b) + (c+d)) + e`` — the topology
    is a pure function of ``len(values)``, so reducing the same shard
    results in the same order is bitwise deterministic regardless of
    which worker produced which shard, and the pairwise tree keeps
    rounding growth logarithmic in the shard count.
    """
    items = list(values)
    if not items:
        raise GradientError("tree_reduce needs at least one value")
    while len(items) > 1:
        merged = [
            items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)
        ]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


# ----------------------------------------------------------------------
# worker side (module-level: picklable by reference)
# ----------------------------------------------------------------------
#: Per-worker-process cache of rebuilt ``fused`` networks keyed by
#: structure; one entry per distinct (dim, layers, order, phase) — e.g.
#: U_C and U_R — shared by every worker-side task.
_WORKER_NETWORKS: dict = {}


def _network_struct(network) -> Tuple[int, int, bool, bool]:
    """The structure tuple a task carries for ``network``: everything
    :func:`_worker_network` needs to rebuild it, and nothing it learns
    from the parameters."""
    return (
        int(network.dim),
        int(network.num_layers),
        bool(network.descending),
        bool(network.allow_phase),
    )


def _worker_network(
    struct: Tuple[int, int, bool, bool], params: Optional[np.ndarray] = None
):
    """The worker's network for ``struct``, synced to ``params`` if given
    (copied in only when they differ from its live parameter array)."""
    net = _WORKER_NETWORKS.get(struct)
    if net is None:
        from repro.network.quantum_network import QuantumNetwork

        dim, num_layers, descending, allow_phase = struct
        net = QuantumNetwork(
            dim,
            num_layers,
            descending=descending,
            allow_phase=allow_phase,
            backend="fused",
        )
        _WORKER_NETWORKS[struct] = net
    if params is not None and not np.array_equal(net._params.ravel(), params):
        net.set_flat_params(params)
    return net


def _worker_projection(dim: int, keep: Optional[Tuple[int, ...]]):
    if keep is None:
        return None
    from repro.network.projection import Projection

    return Projection(dim, keep)


def _batch_shard_task(payload: Tuple) -> Tuple[float, np.ndarray]:
    """One column shard's ``(loss, grad)`` through the full engine stack."""
    struct, params, inputs, targets, loss, keep, method, delta = payload
    from repro.training.gradients import loss_and_gradient

    net = _worker_network(struct, params)
    return loss_and_gradient(
        net,
        inputs,
        targets,
        loss=loss,
        projection=_worker_projection(struct[0], keep),
        method=method,
        delta=delta,
    )


def _param_shard_task(payload: Tuple) -> Tuple[float, np.ndarray]:
    """Full-batch base loss plus the gradient slice ``[lo, hi)``.

    Mirrors the single-process workspace drive on the parameters of
    ``[lo, hi)`` (same chunking, same ``value_many`` reductions, same
    stencil), so concatenating the slices reproduces the one-process
    gradient at rounding level.
    """
    (struct, params, inputs, targets, loss, keep, method, delta, lo, hi) = (
        payload
    )
    from repro.training.gradients import (
        _project_and_eval,
        _workspace_loss_and_adjoint,
    )

    net = _worker_network(struct, params)
    projection = _worker_projection(struct[0], keep)
    ws = net.backend.gradient_workspace(inputs)
    grad = np.empty(hi - lo)
    if method == "derivative":
        base, lam = _workspace_loss_and_adjoint(ws, targets, loss, projection)
        for idx in ws.param_chunks():
            sub = idx[(idx >= lo) & (idx < hi)]
            if sub.size:
                grad[sub - lo] = ws.derivative_gradients(sub, lam)
        return base, grad
    central = method == "central"
    mask = projection.mask if projection is not None else None
    base = _project_and_eval(
        ws.base_output.copy(), targets, loss, projection
    )
    for idx in ws.param_chunks():
        sub = idx[(idx >= lo) & (idx < hi)]
        if not sub.size:
            continue
        plus = loss.value_many(
            ws.perturbed_outputs(sub, delta, keep=mask), targets, keep=mask
        )
        if central:
            minus = loss.value_many(
                ws.perturbed_outputs(sub, -delta, keep=mask),
                targets,
                keep=mask,
            )
            grad[sub - lo] = (plus - minus) / (2.0 * delta)
        else:
            grad[sub - lo] = (plus - base) / delta
    return base, grad


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class GradientReducer:
    """Shard ``loss_and_gradient`` over a persistent worker pool.

    Parameters
    ----------
    num_workers:
        Worker-process count; ``None`` derives it from the CPU-affinity
        mask.  ``1`` short-circuits every call to the in-process engine
        (bit-identical to not using a reducer at all).
    pool:
        An existing :class:`~repro.parallel.pool.WorkerPool` to execute
        on; the reducer then *borrows* it (``close()`` leaves it
        running).  Default builds a private pool lazily.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.quantum_network import QuantumNetwork
    >>> net = QuantumNetwork(4, 2, backend="fused")
    >>> net = net.initialize("uniform", rng=np.random.default_rng(0))
    >>> reducer = GradientReducer(num_workers=1)  # in-process short-circuit
    >>> x = np.eye(4)[:, :3]
    >>> value, grad = reducer.loss_and_gradient(net, x, x)
    >>> grad.shape
    (6,)
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if num_workers is not None and num_workers < 1:
            raise GradientError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        if pool is not None:
            self._pool: Optional[WorkerPool] = pool
            self._owns_pool = False
            self.num_workers = pool.processes
        else:
            self._pool = None
            self._owns_pool = True
            self.num_workers = (
                int(num_workers)
                if num_workers is not None
                else default_worker_count()
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool:
        """The backing pool (created lazily, started on first task)."""
        if self._pool is None:
            self._pool = WorkerPool(processes=self.num_workers)
        return self._pool

    def close(self) -> None:
        """Stop owned workers (idempotent); borrowed pools are left alone."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "GradientReducer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        owned = "owned" if self._owns_pool else "borrowed"
        return f"GradientReducer(num_workers={self.num_workers}, {owned})"

    # ------------------------------------------------------------------
    # the parallel loss_and_gradient
    # ------------------------------------------------------------------
    @staticmethod
    def _default_shard(method: str) -> str:
        """fd/central difference per-shard base losses under batch
        sharding (cancellation noise ``~ulp(loss)/delta``), so they shard
        the perturbation stack instead; the exact methods shard samples."""
        return "params" if method in ("fd", "central") else "batch"

    def loss_and_gradient(
        self,
        network,
        inputs: np.ndarray,
        targets: np.ndarray,
        loss=None,
        projection=None,
        method: str = "adjoint",
        delta: Optional[float] = None,
        shard: Optional[str] = None,
    ) -> Tuple[float, np.ndarray]:
        """Parallel ``(loss, dL/dparams)``; same contract as the
        single-process :func:`repro.training.gradients.loss_and_gradient`.

        ``shard`` picks the scatter axis — ``"batch"`` (column shards)
        or ``"params"`` (perturbation-stack slices); ``None`` selects
        per method (``fd``/``central`` -> params, exact methods ->
        batch).  Single-worker reducers and single-shard plans run
        in-process, bit-identical to the plain engine.
        """
        from repro.training.gradients import (
            _DEFAULT_DELTAS,
            available_gradient_methods,
            loss_and_gradient,
        )
        from repro.training.loss import SquaredErrorLoss

        key = str(method).lower()
        if key not in available_gradient_methods():
            raise GradientError(
                f"unknown gradient method {method!r}; available: "
                f"{available_gradient_methods()}"
            )
        mode = self._default_shard(key) if shard is None else str(shard)
        if mode not in _SHARD_MODES:
            raise GradientError(
                f"shard must be one of {list(_SHARD_MODES)}, got {shard!r}"
            )
        if mode == "params" and key == "adjoint":
            raise GradientError(
                "adjoint computes every parameter in one sweep; shard the "
                "batch instead (shard='batch')"
            )
        if loss is None:
            loss = SquaredErrorLoss(reduction="mean")
        arr = np.ascontiguousarray(inputs)
        tgt = np.ascontiguousarray(targets)
        num_columns = arr.shape[1] if arr.ndim == 2 else 0
        num_params = network.num_parameters
        total = num_columns if mode == "batch" else num_params
        shards = (
            plan_shards(total, self.num_workers) if total > 0 else []
        )
        if self.num_workers == 1 or len(shards) <= 1:
            return loss_and_gradient(
                network,
                arr,
                tgt,
                loss=loss,
                projection=projection,
                method=key,
                delta=delta,
            )
        struct = _network_struct(network)
        params = network.get_flat_params()
        keep = (
            None
            if projection is None
            else tuple(int(k) for k in projection.keep)
        )
        if mode == "params":
            step = (
                _DEFAULT_DELTAS[key] if delta is None else float(delta)
            )
            payloads = [
                (struct, params, arr, tgt, loss, keep, key, step, s.start,
                 s.stop)
                for s in shards
            ]
            results = self.pool.map(_param_shard_task, payloads)
            # Every worker evaluates the same full-batch base loss.
            value = results[0][0]
            grad = np.concatenate([g for _, g in results])
            return value, grad
        payloads = [
            (struct, params,
             np.ascontiguousarray(arr[:, s.slice]),
             np.ascontiguousarray(tgt[:, s.slice]),
             loss, keep, key, delta)
            for s in shards
        ]
        results = self.pool.map(_batch_shard_task, payloads)
        values: List[float] = [v for v, _ in results]
        grads: List[np.ndarray] = [g for _, g in results]
        if getattr(loss, "reduction", "sum") == "mean":
            # Mean-reduced losses normalise by the batch width, so shard
            # contributions recombine with weights m_i / M.
            weights = [s.num_columns / num_columns for s in shards]
            values = [w * v for w, v in zip(weights, values)]
            grads = [w * g for w, g in zip(weights, grads)]
        return float(tree_reduce(values)), tree_reduce(grads)

    def noisy_loss_and_gradient(
        self,
        network,
        inputs: np.ndarray,
        targets: np.ndarray,
        *,
        model,
        trajectories: int,
        seed: int,
        epoch: int = 0,
        stream: int = 0,
        loss=None,
        projection=None,
        method: str = "adjoint",
        delta: Optional[float] = None,
    ) -> Tuple[float, np.ndarray]:
        """Noise-averaged ``(loss, grad)``: realizations sharded over the pool.

        Thin front for :func:`repro.noise.training.noisy_loss_and_gradient`
        with this reducer supplying the workers — each of the
        ``trajectories`` jitter realizations of the
        :class:`~repro.noise.model.NoiseModel` evaluates the *full* batch
        at ``params + eps_r``, keyed on ``(seed, epoch, realization)``
        only, and the pairs recombine by :func:`tree_reduce` in
        realization order.  Bitwise-reproducible run-to-run and across
        pool sizes.
        """
        from repro.noise.training import noisy_loss_and_gradient

        return noisy_loss_and_gradient(
            network,
            inputs,
            targets,
            model=model,
            trajectories=trajectories,
            seed=seed,
            epoch=epoch,
            stream=stream,
            loss=loss,
            projection=projection,
            method=method,
            delta=delta,
            reducer=self,
        )
