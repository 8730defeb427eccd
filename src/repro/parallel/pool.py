"""Persistent multi-process execution: :class:`WorkerPool`.

Serving and data-parallel training need the same workers to survive
across many scattered batches, so the pool is a reusable engine:

- **Lifecycle** — construction is free; workers spawn lazily on first
  use, survive across calls, shut down via :meth:`WorkerPool.close` /
  the context manager, and are reaped by a ``weakref`` finalizer as a
  last resort (no leaked processes, no leaked shared memory).
- **Shared-memory block transfer** — ``(N, M)`` float64/complex128
  batches move through :mod:`multiprocessing.shared_memory` segments,
  not pickles: :meth:`WorkerPool.scatter_gather` scatters column shards
  to workers that mutate them in place, :meth:`WorkerPool.apply_dense`
  fans a dense-operator GEMM out over shards (operators are shipped
  once per pool and cached worker-side).

Workers are always ``spawn``-context (fork-safety with BLAS threads) and
are pinned to single-threaded BLAS so ``K`` workers use ``K`` cores
instead of fighting over ``K x num_blas_threads``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import time
import weakref
from multiprocessing import get_context, process, shared_memory
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import DimensionError, ExperimentError, WorkerSpawnError
from repro.parallel.sharding import plan_shards

__all__ = ["WorkerPool", "default_worker_count"]

#: Environment knobs that pin spawned workers to one BLAS thread.
_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def default_worker_count() -> int:
    """Usable CPUs for this process — affinity-aware, never zero.

    ``len(os.sched_getaffinity(0))`` respects cgroup/container CPU masks
    (a CI job pinned to 2 cores reports 2, where ``mp.cpu_count()``
    reports the host's full core count and oversubscribes); platforms
    without ``sched_getaffinity`` fall back to ``os.cpu_count()``.

    Examples
    --------
    >>> default_worker_count() >= 1
    True
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def attach_shared_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    On Python < 3.13 every ``SharedMemory`` attach *registers* the
    segment with the resource tracker.  Workers share the pool owner's
    tracker process, whose per-type cache is a set, so those duplicate
    registrations are no-ops — but attaching must never *unregister*
    (that would yank the owner's bookkeeping and leak the segment at
    shutdown).  Python 3.13's ``track=False`` would skip registration
    entirely; until then a plain attach is the correct, warning-free
    behaviour, and this helper is the single place to change when the
    stdlib contract moves again.
    """
    return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# worker-side task functions (module-level: picklable by reference)
# ----------------------------------------------------------------------
#: Per-worker-process cache of dense operators, keyed by the (unique)
#: shared-memory segment name the parent shipped them in.
_OPERATOR_CACHE: Dict[str, np.ndarray] = {}


def _check_main_importable() -> None:
    """Raise if spawned workers could not re-import ``__main__``.

    ``multiprocessing.spawn``'s test: a main module without a ``__spec__``
    name is re-run in each worker from its ``__file__``.  A missing file
    (``'<stdin>'`` under ``python -``) kills every worker on start-up and
    the pool would replace them forever.
    """
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main.__spec__, "name", None) is not None or path is None:
        return
    path = os.path.join(process.ORIGINAL_DIR or "", path)
    if not os.path.exists(path):
        raise WorkerSpawnError(
            f"workers re-import the main module from {path!r}, which does "
            "not exist (a script read from stdin?); run it from a file "
            "with an 'if __name__ == \"__main__\":' guard"
        )


def _apply_dense_task(payload: Tuple) -> Tuple[int, int]:
    """Compute ``out[:, a:b] = op @ data[:, a:b]`` for one shard."""
    (
        op_name,
        op_shape,
        op_dtype,
        in_name,
        in_shape,
        in_dtype,
        out_name,
        out_dtype,
        start,
        stop,
    ) = payload
    op = _OPERATOR_CACHE.get(op_name)
    if op is None:
        shm = attach_shared_block(op_name)
        try:
            view = np.ndarray(op_shape, dtype=op_dtype, buffer=shm.buf)
            op = np.array(view, copy=True)
            del view
        finally:
            shm.close()
        _OPERATOR_CACHE[op_name] = op
    in_shm = attach_shared_block(in_name)
    out_shm = attach_shared_block(out_name)
    try:
        data = np.ndarray(in_shape, dtype=in_dtype, buffer=in_shm.buf)
        out = np.ndarray(
            (op_shape[0], in_shape[1]), dtype=out_dtype, buffer=out_shm.buf
        )
        np.matmul(op, data[:, start:stop], out=out[:, start:stop])
        del data, out
    finally:
        in_shm.close()
        out_shm.close()
    return start, stop


def _run_shard_task(payload: Tuple) -> Tuple[int, int]:
    """Apply ``fn(block, *extra)`` in place to one shared-memory shard."""
    fn, name, shape, dtype, start, stop, extra = payload
    shm = attach_shared_block(name)
    try:
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        # Contiguous private block: kernels may assume C layout, and the
        # copy keeps each worker's writes confined to its own columns.
        block = np.array(arr[:, start:stop], order="C", copy=True)
        fn(block, *extra)
        arr[:, start:stop] = block
        del arr
    finally:
        shm.close()
    return start, stop


def _shutdown(state: dict) -> None:
    """Idempotent teardown shared by close(), __exit__ and the finalizer."""
    pool = state.get("pool")
    state["pool"] = None
    if pool is not None:
        pool.close()
        pool.join()
    segments = state.get("segments") or {}
    for shm in segments.values():
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    segments.clear()


class WorkerPool:
    """A persistent, lazily-spawned pool of worker processes.

    Parameters
    ----------
    processes:
        Worker count; ``None`` uses :func:`default_worker_count` (the
        CPU-affinity mask, not the host core count).

    Examples
    --------
    >>> with WorkerPool(processes=2) as pool:
    ...     pool.map(len, [[1, 2], [3], []])
    [2, 1, 0]
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is not None and processes < 1:
            raise ExperimentError(
                f"processes must be >= 1, got {processes}"
            )
        self.processes = (
            int(processes) if processes is not None else default_worker_count()
        )
        # Mutable state shared with the weakref finalizer so teardown
        # never needs (and never resurrects) self.
        self._state: dict = {"pool": None, "segments": {}}
        self._operator_names: Dict[Tuple, str] = {}
        self._finalizer = weakref.finalize(self, _shutdown, self._state)
        # In-flight task accounting for graceful drain: map() calls may
        # arrive from several threads (a serving executor plus the
        # training loop), and a shutdown wants to wait them out instead
        # of yanking workers mid-GEMM.
        self._inflight = 0
        self._idle = threading.Condition()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._state["pool"] is not None

    def start(self) -> "WorkerPool":
        """Spawn the workers now (otherwise the first task does it)."""
        if self._state["pool"] is not None:
            return self
        _check_main_importable()
        saved = {var: os.environ.get(var) for var in _BLAS_ENV_VARS}
        try:
            for var in _BLAS_ENV_VARS:
                os.environ[var] = "1"
            # 'spawn' keeps workers free of inherited state (fork-safety
            # with BLAS threads); children re-import, reading the capped
            # thread environment above.
            self._state["pool"] = get_context("spawn").Pool(
                processes=self.processes
            )
        finally:
            for var, value in saved.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
        return self

    def close(self) -> None:
        """Stop the workers and release every shared-memory segment.

        Idempotent; the pool may be used again afterwards (workers
        respawn lazily), so a serving process can cycle pools across
        deploys without rebuilding the owning objects.
        """
        _shutdown(self._state)
        self._operator_names.clear()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return f"WorkerPool(processes={self.processes}, {state})"

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def map(self, fn: Callable, payloads: Iterable) -> List:
        """Ordered ``[fn(p) for p in payloads]`` across the workers.

        ``fn`` must be picklable by reference (a module-level callable);
        one payload per task, chunk size 1 so shards spread evenly.
        An empty payload list returns ``[]`` without spawning workers.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        self.start()
        with self._idle:
            self._inflight += 1
        try:
            return self._state["pool"].map(fn, payloads, chunksize=1)
        finally:
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    @property
    def inflight(self) -> int:
        """Concurrent :meth:`map` calls currently executing."""
        with self._idle:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no :meth:`map` call is in flight (graceful drain).

        The shutdown hook for serving front-ends: lets every scattered
        tick finish before :meth:`close` reaps the workers, so an
        in-flight batch is never lost to a deploy.  Returns ``True``
        when the pool went idle within ``timeout`` seconds (``None`` =
        wait forever); the pool stays usable either way.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    # ------------------------------------------------------------------
    # shared-memory block transfer
    # ------------------------------------------------------------------
    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._state["segments"][shm.name] = shm
        return shm

    def _release_segment(self, shm: shared_memory.SharedMemory) -> None:
        self._state["segments"].pop(shm.name, None)
        shm.close()
        shm.unlink()

    def scatter_gather(
        self,
        fn: Callable[..., None],
        data: np.ndarray,
        extra: Tuple = (),
        min_columns: int = 1,
    ) -> np.ndarray:
        """Mutate ``data`` in place via ``fn(block, *extra)`` per shard.

        ``data`` (``(N, M)``, any float/complex dtype) is copied into one
        shared-memory segment; each worker runs ``fn`` — a module-level
        callable — on a private contiguous copy of its column shard and
        writes the result back; the gathered segment is copied into
        ``data``.  ``fn`` must preserve the block's shape and dtype.
        """
        if data.ndim != 2:
            raise DimensionError(
                f"expected a 2-D (N, M) batch, got shape {data.shape}"
            )
        if data.shape[1] == 0:
            return data  # nothing to scatter; match chunked semantics
        shards = plan_shards(
            data.shape[1], self.processes, min_columns=min_columns
        )
        self.start()
        shm = self._new_segment(data.nbytes)
        try:
            arr = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
            arr[:] = data
            payloads = [
                (fn, shm.name, data.shape, data.dtype.str, s.start, s.stop,
                 extra)
                for s in shards
            ]
            self.map(_run_shard_task, payloads)
            data[:] = arr
            del arr
        finally:
            self._release_segment(shm)
        return data

    def _share_operator(self, matrix: np.ndarray) -> Tuple[str, Tuple, str]:
        """Ship a dense operator once; returns (segment name, shape, dtype).

        Content-addressed: the same matrix (by bytes) reuses its segment
        for the life of the pool, and workers cache their private copy
        keyed by segment name, so a serving loop pays the operator
        transfer once, not per tick.
        """
        mat = np.ascontiguousarray(matrix)
        digest = (
            hashlib.blake2b(mat.tobytes(), digest_size=16).hexdigest(),
            mat.shape,
            mat.dtype.str,
        )
        name = self._operator_names.get(digest)
        if name is None or name not in self._state["segments"]:
            shm = self._new_segment(mat.nbytes)
            view = np.ndarray(mat.shape, dtype=mat.dtype, buffer=shm.buf)
            view[:] = mat
            del view
            name = shm.name
            self._operator_names[digest] = name
        return name, mat.shape, mat.dtype.str

    def apply_dense(
        self,
        matrix: np.ndarray,
        data: np.ndarray,
        out: Optional[np.ndarray] = None,
        min_columns: int = 1,
    ) -> np.ndarray:
        """``matrix @ data`` scattered over column shards of ``data``.

        The multi-process analogue of
        :func:`repro.parallel.batch.chunked_apply`: same shape/dtype
        contract (including the caller-owned ``out`` buffer), but the
        shards run concurrently in the worker processes with the
        operator shipped once per pool.

        Examples
        --------
        >>> import numpy as np
        >>> rng = np.random.default_rng(0)
        >>> m, x = rng.normal(size=(3, 4)), rng.normal(size=(4, 64))
        >>> with WorkerPool(processes=2) as pool:
        ...     bool(np.allclose(pool.apply_dense(m, x), m @ x))
        True
        """
        mat = np.asarray(matrix)
        arr = np.asarray(data)
        if mat.ndim != 2 or arr.ndim != 2 or mat.shape[1] != arr.shape[0]:
            raise DimensionError(
                f"cannot apply {mat.shape} operator to {arr.shape} batch"
            )
        dtype = np.result_type(mat.dtype, arr.dtype)
        shape = (mat.shape[0], arr.shape[1])
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif out.shape != shape:
            raise DimensionError(
                f"out shape {out.shape} != result shape {shape}"
            )
        elif not np.can_cast(dtype, out.dtype, casting="safe"):
            raise DimensionError(
                f"out buffer dtype {out.dtype} cannot safely hold the "
                f"{dtype} product"
            )
        if arr.shape[1] == 0:
            return out  # empty batch: same contract as chunked_apply
        self.start()
        op_name, op_shape, op_dtype = self._share_operator(mat)
        shards = plan_shards(arr.shape[1], self.processes,
                             min_columns=min_columns)
        in_shm = self._new_segment(arr.nbytes)
        out_shm = self._new_segment(
            int(np.dtype(out.dtype).itemsize) * shape[0] * shape[1]
        )
        try:
            in_view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=in_shm.buf)
            in_view[:] = arr
            out_view = np.ndarray(shape, dtype=out.dtype, buffer=out_shm.buf)
            payloads = [
                (op_name, op_shape, op_dtype,
                 in_shm.name, arr.shape, arr.dtype.str,
                 out_shm.name, np.dtype(out.dtype).str,
                 s.start, s.stop)
                for s in shards
            ]
            self.map(_apply_dense_task, payloads)
            out[:] = out_view
            del in_view, out_view
        finally:
            self._release_segment(in_shm)
            self._release_segment(out_shm)
        return out
