""":class:`MicroBatcher` — accumulate single requests into GEMM-sized ticks.

The ROADMAP's serving item: individual inference requests (one image
each) are worth almost nothing to a BLAS-backed pipeline — the win comes
from batching them into one ``(N, M)`` tick and serving the tick with a
single matrix product.  The batcher implements the standard micro-batching
policy:

- a tick flushes as soon as ``max_batch_size`` requests are pending
  (*size trigger*, served inline on the submitting thread — no idle wait
  under load), or
- ``flush_latency`` seconds after the first pending request arrived
  (*latency trigger*, a daemon timer — bounded tail latency under trickle
  traffic), or
- when the caller invokes :meth:`flush` / :meth:`close` explicitly.

Each :meth:`submit` returns a :class:`concurrent.futures.Future`
resolving to that request's reconstructed ``(N,)`` vector, so callers
from any threading model can await results.  Ticks wider than the
session's ``chunk_size`` are transparently streamed in column chunks
(:func:`repro.parallel.batch.chunked_apply`) — an oversized burst costs
memory-bounded GEMMs, never an error.

Requests may carry a **deadline** (an absolute ``time.monotonic()``
instant).  Expired requests are dropped at *drain* time — before the
GEMM, so dead work never widens a tick — and their futures fail with
:class:`~repro.exceptions.DeadlineExpired`.  :attr:`stats` exposes the
full `/healthz` surface: queue depth, served/rejected/expired counters
(all monotone non-decreasing) and a per-flush latency histogram.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from typing import List, Optional, Tuple

import numpy as np

from repro.encoding.amplitude import _ZERO_NORM_ATOL
from repro.exceptions import DeadlineExpired, ServingError
from repro.serving.stats import LatencyHistogram

__all__ = ["MicroBatcher"]

#: (sample, future, absolute monotonic deadline or None)
_Entry = Tuple[np.ndarray, Future, Optional[float]]


class MicroBatcher:
    """Request accumulator in front of an :class:`InferenceSession`.

    Parameters
    ----------
    session:
        Any object with ``reconstruct((M, N)) -> (M, N)`` and a ``dim``
        attribute — in practice an
        :class:`~repro.api.session.InferenceSession`.
    max_batch_size:
        Tick width that triggers an immediate flush.
    flush_latency:
        Seconds after the first pending request before a timer flush;
        ``None`` disables the timer (size/manual flushes only — the
        deterministic mode the tests and benchmarks use).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.autoencoder import QuantumAutoencoder
    >>> from repro.api.session import InferenceSession
    >>> ae = QuantumAutoencoder(4, 2, 2, 2).initialize(rng=np.random.default_rng(0))
    >>> batcher = MicroBatcher(InferenceSession(ae), max_batch_size=8,
    ...                        flush_latency=None)
    >>> futures = [batcher.submit([1.0, 0.0, 0.0, float(i)]) for i in range(3)]
    >>> batcher.flush()
    3
    >>> futures[0].result().shape
    (4,)
    >>> batcher.stats["queue_depth"], batcher.stats["rejected_requests"]
    (0, 0)
    """

    def __init__(
        self,
        session,
        max_batch_size: int = 64,
        flush_latency: Optional[float] = 0.005,
    ) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if flush_latency is not None and flush_latency <= 0:
            raise ServingError(
                f"flush_latency must be > 0 or None, got {flush_latency}"
            )
        self.session = session
        self.max_batch_size = int(max_batch_size)
        self.flush_latency = flush_latency
        self._lock = threading.Lock()
        self._pending: List[_Entry] = []
        self._timer: Optional[threading.Timer] = None
        self._closed = False
        # -- stats (read via the `stats` property) ---------------------
        self._served = 0
        self._ticks = 0
        self._largest_tick = 0
        self._rejected = 0
        self._expired = 0
        self._flush_hist = LatencyHistogram()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests waiting for the next tick."""
        with self._lock:
            return len(self._pending)

    @property
    def oldest_pending_deadline(self) -> Optional[float]:
        """Earliest absolute deadline among queued requests (``None``
        when empty or none carry deadlines) — the front-end's adaptive
        flusher reads this to fire ticks before work goes stale."""
        with self._lock:
            deadlines = [d for _, _, d in self._pending if d is not None]
        return min(deadlines) if deadlines else None

    @property
    def stats(self) -> dict:
        """Counters + per-flush latency histogram for capacity planning.

        Every counter is monotone non-decreasing over the batcher's
        lifetime; ``queue_depth`` (= ``pending``, kept for
        back-compat) is the only gauge.  ``flush_latency`` is the
        :meth:`~repro.serving.stats.LatencyHistogram.summary` of
        wall-clock seconds each tick spent in the session call.
        """
        with self._lock:
            return {
                "served_requests": self._served,
                "ticks": self._ticks,
                "largest_tick": self._largest_tick,
                "pending": len(self._pending),
                "queue_depth": len(self._pending),
                "rejected_requests": self._rejected,
                "expired_requests": self._expired,
                "flush_latency": self._flush_hist.summary(),
            }

    # ------------------------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline: Optional[float] = None
    ) -> Future:
        """Enqueue one ``(N,)`` classical sample; returns its Future.

        Shape and encodability are validated here, per request, with one
        scalar ``sum x^2``: a NaN/Inf entry, a norm that overflows
        ``float64`` and an all-zero sample all show in it.  Those failures
        raise :class:`~repro.exceptions.ServingError` at their own submit
        call instead of poisoning a whole tick (each such raise counts as
        a *rejection* in :attr:`stats`).  Failures only detectable inside
        the batched pass (a ``renormalize`` session hitting a sample with
        near-zero mass in the kept subspace) still fail tick-wide: the
        exception is set on every future of that tick.

        ``deadline`` is an absolute :func:`time.monotonic` instant; a
        request still queued when it passes is dropped at drain time
        (before the GEMM) and its future fails with
        :class:`~repro.exceptions.DeadlineExpired`.
        """
        try:
            arr = np.asarray(x, dtype=np.float64).ravel()
            if arr.size != self.session.dim:
                raise ServingError(
                    f"request length {arr.size} != session dim "
                    f"{self.session.dim}"
                )
            sq = float(arr @ arr)
            if not math.isfinite(sq):
                raise ServingError(
                    "request contains NaN or Inf"
                    if not np.isfinite(arr).all()
                    else "request's squared norm overflows float64"
                )
            if sq <= _ZERO_NORM_ATOL:
                raise ServingError(
                    "all-zero request cannot be amplitude-encoded (Eq. 1 "
                    "divides by its norm)"
                )
        except ServingError:
            with self._lock:
                self._rejected += 1
            raise
        future: Future = Future()
        batch = None
        with self._lock:
            if self._closed:
                self._rejected += 1
                raise ServingError("micro-batcher is closed")
            self._pending.append((arr, future, deadline))
            if len(self._pending) >= self.max_batch_size:
                batch = self._drain_locked()
            elif self.flush_latency is not None and self._timer is None:
                # The callback closes over its own timer object so a
                # stale firing (cancelled after it already started) can
                # recognise it was superseded and stand down.
                timer = threading.Timer(
                    self.flush_latency,
                    lambda: self._timer_flush(timer),
                )
                timer.daemon = True
                timer.start()
                self._timer = timer
        if batch is not None:
            self._serve(batch)
        return future

    def flush(self) -> int:
        """Serve everything pending now; returns how many requests were
        actually delivered (caller-cancelled and deadline-expired ones
        are excluded, matching ``stats['served_requests']``)."""
        with self._lock:
            batch = self._drain_locked()
        return self._serve(batch)

    def close(self) -> None:
        """Flush pending requests and reject future submits (idempotent)."""
        with self._lock:
            self._closed = True
            batch = self._drain_locked()
        self._serve(batch)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _drain_locked(self) -> List[_Entry]:
        """Take the pending list and disarm the timer; caller holds lock."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        return batch

    def _timer_flush(self, timer: threading.Timer) -> None:
        with self._lock:
            if self._timer is not timer:
                # A size-triggered or manual drain already consumed the
                # requests this timer was armed for (cancel() cannot stop
                # a timer that has started firing) — possibly arming a
                # newer timer for fresher requests.  Stand down rather
                # than flush someone else's partial tick early.
                return
            batch = self._drain_locked()
        self._serve(batch)

    def _serve(self, batch: List[_Entry]) -> int:
        """Run one tick outside the lock: one GEMM for the whole batch.

        Returns the number of requests delivered (cancelled and expired
        excluded).  Expired requests are failed *before* the GEMM so a
        tick never spends FLOPs on work nobody is waiting for.
        """
        if not batch:
            return 0
        now = time.monotonic()
        expired = [
            (arr, future)
            for arr, future, deadline in batch
            if deadline is not None and deadline <= now
        ]
        for _, future in expired:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    DeadlineExpired(
                        "request deadline passed while queued for a tick"
                    )
                )
        if expired:
            with self._lock:
                self._expired += len(expired)
            alive = [
                entry for entry in batch
                if not (entry[2] is not None and entry[2] <= now)
            ]
        else:
            alive = batch
        # Claim each future first; a caller-cancelled one must neither
        # raise InvalidStateError here nor strand the rest of its tick.
        live = [
            (i, future)
            for i, (_, future, _) in enumerate(alive)
            if future.set_running_or_notify_cancel()
        ]
        if not live:
            return 0  # every request cancelled/expired; skip the GEMM
        tick = np.array([arr for arr, _, _ in alive])
        t0 = time.perf_counter()
        try:
            out = self.session.reconstruct(tick)
        except Exception as exc:
            with self._lock:
                self._flush_hist.record(time.perf_counter() - t0)
            for _, future in live:
                future.set_exception(exc)
            return 0
        seconds = time.perf_counter() - t0
        for i, future in live:
            future.set_result(out[i])
        with self._lock:
            self._served += len(live)
            self._ticks += 1
            self._largest_tick = max(self._largest_tick, len(alive))
            self._flush_hist.record(seconds)
        return len(live)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"MicroBatcher(max_batch_size={self.max_batch_size}, "
            f"flush_latency={self.flush_latency}, {state})"
        )
