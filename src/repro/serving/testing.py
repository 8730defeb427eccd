"""Fault-injection harness for the serving front-end.

Serving code earns its keep in the failure modes, so those must be
drivable deterministically: a tick that dies because the worker pool was
torn down mid-flight, a tick that stalls long enough for queued
deadlines to expire, a client that dribbles bytes or disconnects
mid-frame.  This module packages those levers for the test suite (and
for anyone reproducing an incident locally):

- :class:`FaultInjectingSession` — wraps an
  :class:`~repro.api.session.InferenceSession`, forwarding everything
  while optionally delaying or failing the next K serving calls;
- :class:`ServerHarness` — runs a :class:`ServingFrontend` on a real
  socket in a background event-loop thread, so blocking tests can use
  the plain :class:`~repro.serving.client.ServingClient` against it;
- byte-level helpers for malformed/partial frames.

Nothing here is imported by the server itself — the harness drives
production code paths, it does not add test-only branches to them.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Optional

import numpy as np

from repro.exceptions import ServingError
from repro.serving.server import ServingFrontend

__all__ = [
    "FaultInjectingSession",
    "ServerHarness",
    "truncated_frame_bytes",
    "garbage_frame_bytes",
]


class FaultInjectingSession:
    """A serving-session proxy with programmable failures.

    Wraps any object exposing the :class:`InferenceSession` serving
    surface.  ``fail_next(n, exc)`` makes the next ``n`` serving calls
    raise ``exc`` (what a torn-down worker pool or a poisoned operator
    looks like from the tick's perspective); ``delay_next(n, seconds)``
    stalls them first (a saturated BLAS, a slow NUMA node).  The
    batcher is rebuilt around the proxy so micro-batched ticks route
    through the injected faults too.
    """

    def __init__(self, session) -> None:
        from repro.api.batcher import MicroBatcher

        self._session = session
        self._lock = threading.Lock()
        self._fail_remaining = 0
        self._fail_exc: Optional[Exception] = None
        self._delay_remaining = 0
        self._delay_seconds = 0.0
        self.calls = 0
        self._batcher = MicroBatcher(
            self,
            max_batch_size=session.batcher.max_batch_size,
            flush_latency=session.batcher.flush_latency,
        )

    # -- fault programming ---------------------------------------------
    def fail_next(self, n: int = 1, exc: Optional[Exception] = None) -> None:
        """Fail the next ``n`` serving calls with ``exc``."""
        with self._lock:
            self._fail_remaining = int(n)
            self._fail_exc = exc if exc is not None else ServingError(
                "injected fault: worker pool torn down mid-tick"
            )

    def delay_next(self, n: int, seconds: float) -> None:
        """Stall the next ``n`` serving calls by ``seconds`` each."""
        with self._lock:
            self._delay_remaining = int(n)
            self._delay_seconds = float(seconds)

    def _checkpoint(self) -> None:
        with self._lock:
            self.calls += 1
            delay = 0.0
            if self._delay_remaining > 0:
                self._delay_remaining -= 1
                delay = self._delay_seconds
            fail = None
            if self._fail_remaining > 0:
                self._fail_remaining -= 1
                fail = self._fail_exc
        if delay:
            time.sleep(delay)
        if fail is not None:
            raise fail

    # -- the serving surface -------------------------------------------
    @property
    def batcher(self):
        return self._batcher

    def submit(self, x: np.ndarray, deadline: Optional[float] = None):
        return self._batcher.submit(x, deadline=deadline)

    def flush(self) -> int:
        return self._batcher.flush()

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        self._checkpoint()
        return self._session.reconstruct(X)

    def compress(self, X: np.ndarray):
        self._checkpoint()
        return self._session.compress(X)

    def decompress(self, *args, **kwargs) -> np.ndarray:
        self._checkpoint()
        return self._session.decompress(*args, **kwargs)

    def __getattr__(self, name):
        # dim, compressed_dim, pool, chunk_size, ... fall through.
        return getattr(self._session, name)


class ServerHarness:
    """Run a :class:`ServingFrontend` in a background event-loop thread.

    The front-end binds port 0 on localhost; :attr:`port` is valid once
    the context manager body runs.  Exit performs the graceful drain.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import Codec
    >>> codec = Codec(dim=4, compressed_dim=2, compression_layers=2,
    ...               reconstruction_layers=2)
    >>> session = codec.session(flush_latency=None)
    >>> from repro.serving.client import ServingClient
    >>> with ServerHarness(session) as harness:
    ...     with ServingClient(harness.host, harness.port) as client:
    ...         client.ping()
    True
    """

    def __init__(self, session, **frontend_kwargs) -> None:
        frontend_kwargs.setdefault("host", "127.0.0.1")
        frontend_kwargs.setdefault("port", 0)
        self._kwargs = frontend_kwargs
        self._session = session
        self.frontend: Optional[ServingFrontend] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.frontend.host

    @property
    def port(self) -> int:
        return self.frontend.port

    def begin_drain(self) -> None:
        """Start the graceful drain without waiting for it to finish —
        for tests that need to observe the *draining* state (503s for
        new work while admitted work is still being served)."""
        asyncio.run_coroutine_threadsafe(self.frontend.stop(), self._loop)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServerHarness":
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-harness", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServingError("serving harness failed to start in 30s")
        if self._startup_error is not None:
            raise ServingError(
                f"serving harness startup failed: {self._startup_error}"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self.frontend is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.frontend.stop(), self._loop
            )
            try:
                future.result(timeout=30.0)
            finally:
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        async def _serve() -> None:
            self._stop_event = asyncio.Event()
            try:
                self.frontend = ServingFrontend(
                    self._session, **self._kwargs
                )
                await self.frontend.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # noqa: BLE001 - surfaced to test
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop_event.wait()

        asyncio.run(_serve())


# ----------------------------------------------------------------------
# malformed-bytes helpers
# ----------------------------------------------------------------------
def truncated_frame_bytes(num_bytes: int = 12) -> bytes:
    """A valid frame prefix cut short (slow-client / disconnect tests)."""
    from repro.serving.protocol import Frame, FrameType, encode_frame

    data = encode_frame(Frame(
        type=FrameType.RECONSTRUCT, req_id=99,
        payload=b"\x01" + b"\x00" * 32,
    ))
    return data[: max(1, min(num_bytes, len(data) - 1))]


def garbage_frame_bytes(num_bytes: int = 24) -> bytes:
    """Bytes that can never parse as a frame header (bad magic)."""
    pattern = b"\xde\xad\xbe\xef"
    return (pattern * (num_bytes // len(pattern) + 1))[:num_bytes]
