"""HPC execution layer: chunking, sharding and process-pool execution.

Following the scientific-Python optimisation guidance (vectorise across
samples, bound working-set size, parallelise embarrassingly parallel
work with processes), this subpackage provides:

- :mod:`~repro.parallel.batch` — memory-bounded chunked propagation of
  large state batches through a network, with reusable workspaces;
- :mod:`~repro.parallel.sharding` — column-shard planning for scattering
  ``(N, M)`` batches across workers (pure index arithmetic);
- :mod:`~repro.parallel.pool` — :class:`WorkerPool`, the persistent
  spawn-context process pool with shared-memory block transfer, behind
  both the ``sharded`` execution backend and pool-attached serving
  sessions;
- :mod:`~repro.parallel.reducer` — :class:`GradientReducer`, the
  data-parallel training engine: per-shard ``loss_and_gradient`` on the
  pool (batch or perturbation-stack sharding) combined by a
  deterministic :func:`tree_reduce`, behind ``Trainer(parallel="pool")``.
"""

from repro.parallel.batch import chunked_apply, chunked_forward, ChunkedPipeline
from repro.parallel.pool import WorkerPool, default_worker_count
from repro.parallel.reducer import (
    GradientReducer,
    resolve_parallel_workers,
    tree_reduce,
    validate_parallel_spec,
)
from repro.parallel.sharding import Shard, plan_shards

__all__ = [
    "chunked_apply",
    "chunked_forward",
    "ChunkedPipeline",
    "GradientReducer",
    "Shard",
    "WorkerPool",
    "default_worker_count",
    "plan_shards",
    "resolve_parallel_workers",
    "tree_reduce",
    "validate_parallel_spec",
]
