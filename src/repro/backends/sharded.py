"""Sharded multi-process execution: column-scattered fused GEMMs.

The paper's pipeline is embarrassingly parallel across batch columns —
``U @ X[:, a:b]`` never reads outside its own shard — so once ``M`` grows
past what one process's GEMM throughput can chew, the batch can be
*scattered* over worker processes.  :class:`ShardedBackend` implements
the :class:`~repro.backends.base.Backend` protocol on top of
:class:`~repro.parallel.pool.WorkerPool`:

- each worker compiles the bound network's :class:`GateProgram` **once**
  (first shard it sees) into its own fused unitary and caches it; only
  the flat parameter vector rides along with each task, and workers skip
  the rebuild when it is unchanged;
- ``(N, M)`` blocks move through ``multiprocessing.shared_memory``, not
  pickles — each worker mutates its own column shard in place;
- batches narrower than ``min_shard_columns`` fall through to an
  in-process :class:`~repro.backends.fused.FusedBackend` (a 25-sample
  training iteration never pays scatter overhead), which also serves the
  prefix/suffix gradient workspace, so training on the ``sharded``
  backend gets cached-speed gradients for free;
- worker processes spawn lazily on the first wide batch and are shared
  by every :meth:`spawn`-ed sibling (``QuantumAutoencoder`` runs ``U_C``
  and ``U_R`` on one pool), pinned to single-threaded BLAS.

Registry spellings: ``"sharded"`` (affinity-derived worker count) and
``"sharded:K"`` (exactly ``K`` workers), accepted everywhere a backend
name is (``QuantumNetwork(..., backend="sharded:4")``, ``CodecSpec``,
``Trainer``, ``--backend sharded:4``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends.base import Backend, register_backend
from repro.backends.cached import PrefixSuffixWorkspace
from repro.backends.fused import FusedBackend
from repro.exceptions import BackendError, GateError

__all__ = ["ShardedBackend"]

#: Default narrowest batch worth scattering: below this, pool dispatch
#: (process hop + two shared-memory copies) costs more than the GEMM.
DEFAULT_MIN_SHARD_COLUMNS = 1024


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _forward_block(
    block: np.ndarray,
    struct: Tuple[int, int, bool, bool],
    params: np.ndarray,
    inverse: bool,
) -> None:
    """In-worker shard execution: compile once, refresh params, one pass.

    Runs inside a :class:`~repro.parallel.pool.WorkerPool` worker via
    ``scatter_gather``; ``block`` is the worker's private contiguous
    copy of its column shard, mutated in place by one fused GEMM.
    """
    from repro.parallel.reducer import _worker_network

    _worker_network(struct, params).forward_inplace(block, inverse=inverse)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _PoolSlot:
    """Lazily-created :class:`WorkerPool` shared by spawned siblings.

    ``ShardedBackend.spawn()`` hands the clone this same slot, so
    ``U_C`` and ``U_R`` (and any further copies) fan out over one set of
    worker processes instead of ``K`` processes per network.  Creation
    is deferred so merely *selecting* the backend (CLI flag parsing,
    spec validation, narrow-batch runs) never spawns a process.
    """

    __slots__ = ("num_workers", "pool")

    def __init__(self, num_workers: Optional[int], pool=None) -> None:
        self.num_workers = num_workers
        self.pool = pool

    def ensure(self):
        if self.pool is None:
            from repro.parallel.pool import WorkerPool

            self.pool = WorkerPool(processes=self.num_workers)
        return self.pool

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


@register_backend
class ShardedBackend(Backend):
    """Column-sharded multi-process execution behind the Backend protocol.

    Parameters
    ----------
    num_workers:
        Worker-process count; ``None`` derives it from the CPU-affinity
        mask (:func:`repro.parallel.pool.default_worker_count`).  The
        registry spelling ``"sharded:K"`` maps here.
    min_shard_columns:
        Narrowest batch dispatched to the pool; anything smaller runs on
        the in-process fused backend.
    pool:
        An existing :class:`~repro.parallel.pool.WorkerPool` to execute
        on (shared with e.g. a pool-attached
        :class:`~repro.api.session.InferenceSession`); default builds a
        private one lazily.

    Examples
    --------
    >>> from repro.network.quantum_network import QuantumNetwork
    >>> net = QuantumNetwork(4, 2, backend="sharded:2")
    >>> net.backend
    ShardedBackend(name='sharded', workers=2, bound)
    >>> net.backend.worker_count
    2
    """

    name = "sharded"
    supports_cached_gradients = True

    def __init__(
        self,
        num_workers: Optional[int] = None,
        min_shard_columns: int = DEFAULT_MIN_SHARD_COLUMNS,
        pool=None,
    ) -> None:
        super().__init__()
        if num_workers is not None and num_workers < 1:
            raise BackendError(
                f"sharded backend needs num_workers >= 1, got {num_workers}"
            )
        if min_shard_columns < 1:
            raise BackendError(
                f"min_shard_columns must be >= 1, got {min_shard_columns}"
            )
        self._min_shard_columns = int(min_shard_columns)
        self._slot = _PoolSlot(
            None if num_workers is None else int(num_workers), pool
        )
        # In-process fused backend: narrow batches, gradient workspaces
        # and unitary inspection all run here, bound to the same network.
        self._local = FusedBackend()

    @classmethod
    def from_spec(cls, arg: str) -> "ShardedBackend":
        """Parse the ``"sharded:K"`` registry spelling (``K`` workers)."""
        try:
            workers = int(arg)
        except ValueError:
            raise BackendError(
                f"sharded worker count must be an integer, got "
                f"'sharded:{arg}'"
            ) from None
        if workers < 1:
            raise BackendError(
                f"sharded worker count must be >= 1, got 'sharded:{arg}'"
            )
        return cls(num_workers=workers)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, network) -> "ShardedBackend":
        super().bind(network)
        self._local.bind(network)
        return self

    def spawn(self) -> "ShardedBackend":
        """A fresh instance executing on the *same* worker pool."""
        clone = ShardedBackend(min_shard_columns=self._min_shard_columns)
        clone._slot = self._slot
        return clone

    @property
    def pool(self):
        """The backing :class:`WorkerPool` (created, but not started)."""
        return self._slot.ensure()

    @property
    def worker_count(self) -> int:
        """Workers a scattered batch fans out over."""
        if self._slot.pool is not None:
            return self._slot.pool.processes
        if self._slot.num_workers is not None:
            return self._slot.num_workers
        from repro.parallel.pool import default_worker_count

        return default_worker_count()

    @property
    def min_shard_columns(self) -> int:
        return self._min_shard_columns

    def close(self) -> None:
        """Shut the shared worker pool down (idempotent; lazily respawns
        on the next wide batch)."""
        self._slot.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        if data.shape[1] < self._min_shard_columns:
            self._local.forward_inplace(data, inverse=inverse)
            return
        net = self.network
        if not np.iscomplexobj(data) and np.any(net._params[1:]):
            # Same contract as the loop/fused kernels, checked before any
            # scatter so the error surfaces in the calling process.
            raise GateError(
                "a non-zero phase alpha requires a complex state batch; the "
                "paper's real network fixes alpha = 0 (Section III-A)"
            )
        from repro.parallel.reducer import _network_struct

        self._slot.ensure().scatter_gather(
            _forward_block,
            data,
            extra=(_network_struct(net), net.get_flat_params(), bool(inverse)),
            min_columns=self._min_shard_columns,
        )

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------
    def gradient_workspace(self, inputs: np.ndarray) -> PrefixSuffixWorkspace:
        return self._local.gradient_workspace(inputs)

    def __repr__(self) -> str:
        bound = "bound" if self._network is not None else "unbound"
        workers = (
            self._slot.num_workers
            if self._slot.pool is None
            else self._slot.pool.processes
        )
        shown = "auto" if workers is None else workers
        return f"ShardedBackend(name={self.name!r}, workers={shown}, {bound})"
