"""Front-end behaviour: routing, stats endpoints, backpressure, fairness.

Everything runs against a real socket via :class:`ServerHarness`; the
backpressure group throttles the session with
:class:`FaultInjectingSession` so capacity (and therefore overload) is
deterministic rather than machine-dependent.
"""

import asyncio
import socket
import time

import numpy as np
import pytest

from repro.api import Codec
from repro.api.codec import CompressedBatch
from repro.exceptions import ServingError
from repro.serving import (
    AsyncServingClient,
    FaultInjectingSession,
    RequestShed,
    ServerError,
    ServerHarness,
    ServingClient,
    fetch_json,
)
from repro.serving import protocol
from repro.serving.protocol import ErrorCode, Frame, FrameType


def _codec(seed=11):
    return Codec(dim=8, compressed_dim=2, compression_layers=3,
                 reconstruction_layers=3, seed=seed)


def _requests(m=6, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, 8))) + 0.1


@pytest.fixture()
def codec_session():
    codec = _codec()
    session = codec.session(flush_latency=None)
    yield codec, session
    session.close()


class TestBasics:
    def test_ping_and_reconstruct_paths(self, codec_session):
        codec, session = codec_session
        X = _requests()
        expected = session.reconstruct(X)
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                assert client.ping()
                # single-sample path (micro-batcher)
                one = client.reconstruct(X[0])
                assert np.max(np.abs(one - expected[0])) <= 1e-10
                # batch path (own tick on the executor)
                batch = client.reconstruct(X)
                assert np.max(np.abs(batch - expected)) <= 1e-10

    def test_compress_decompress_round_trip(self, codec_session):
        codec, session = codec_session
        X = _requests()
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                payload = client.compress(X)
                x_hat = client.decompress(payload)
        assert np.max(np.abs(x_hat - codec.forward(X).x_hat)) <= 1e-10

    def test_healthz_and_stats_endpoints(self, codec_session):
        _, session = codec_session
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                client.reconstruct(_requests()[0])
            health = fetch_json(harness.host, harness.port, "/healthz")
            stats = fetch_json(harness.host, harness.port, "/stats")
        assert health["status"] == "ok"
        server = stats["server"]
        assert server["accepted"] >= server["served"] >= 1
        assert server["dim"] == 8 and server["compressed_dim"] == 2
        assert server["request_latency"]["count"] >= 1
        assert stats["batcher"]["served_requests"] >= 1

    def test_unknown_http_path_is_404(self, codec_session):
        _, session = codec_session
        with ServerHarness(session) as harness:
            with pytest.raises(ServingError, match="404"):
                fetch_json(harness.host, harness.port, "/nope")

    def test_bad_request_is_answered_not_fatal(self, codec_session):
        _, session = codec_session
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                with pytest.raises(ServingError):
                    client.reconstruct(np.ones(3))  # wrong dim
                # the connection survives the rejected request
                assert client.ping()

    def test_client_input_errors_answer_400_not_500(self, codec_session):
        """Rows Eq. 1 cannot encode and payloads Eq. 2 cannot decode are
        the client's to fix: 400 ``bad-request``, never 500 ``internal``."""
        _, session = codec_session
        X = _requests()
        zero_row = X.copy()
        zero_row[2] = 0.0
        with ServerHarness(session) as harness:
            with ServingClient(harness.host, harness.port) as client:
                payload = client.compress(X)
                bad_norms = CompressedBatch(
                    codes=payload.codes,
                    squared_norms=np.where(
                        np.arange(len(X)) == 1, -1.0, payload.squared_norms
                    ),
                )
                nan_codes = payload.codes.copy()
                nan_codes[0, 0] = np.nan
                requests = [
                    lambda: client.reconstruct(zero_row),
                    lambda: client.compress(zero_row),
                    lambda: client.decompress(bad_norms),
                    lambda: client.decompress(CompressedBatch(
                        codes=nan_codes,
                        squared_norms=payload.squared_norms,
                    )),
                ]
                for request in requests:
                    with pytest.raises(ServingError) as info:
                        request()
                    assert not isinstance(info.value, ServerError)
                assert client.reconstruct(X).shape == X.shape
            server = fetch_json(harness.host, harness.port, "/stats")["server"]
        assert server["internal_errors"] == 0
        assert server["bad_request"] == len(requests)

    def test_stats_visible_after_drain(self, codec_session):
        _, session = codec_session
        harness = ServerHarness(session)
        with harness:
            with ServingClient(harness.host, harness.port) as client:
                client.reconstruct(_requests()[0])
        final = harness.frontend.stats()["server"]
        assert final["draining"] is True
        assert final["inflight"] == 0
        assert final["served"] == final["accepted"] == 1


class TestBackpressure:
    def test_queue_bounded_and_shed_distinguishable(self, codec_session):
        """N pipelined clients against a deliberately slow 1-worker
        server: admissions never exceed ``max_inflight``, overload
        surfaces as :class:`RequestShed` (not some generic failure), and
        accepted requests still complete correctly."""
        _, session = codec_session
        faulty = FaultInjectingSession(session)
        faulty.delay_next(10 ** 6, 0.05)  # every tick costs >= 50 ms
        x = _requests()[0]

        async def drive(host, port, n=12):
            clients = [await AsyncServingClient.connect(host, port)
                       for _ in range(3)]
            try:
                futures = []
                for i in range(n):
                    client = clients[i % len(clients)]
                    futures.append(await client.submit_reconstruct(x))
                return await asyncio.gather(*futures,
                                            return_exceptions=True)
            finally:
                for client in clients:
                    await client.close()

        with ServerHarness(faulty, max_inflight=2) as harness:
            outcomes = asyncio.run(drive(harness.host, harness.port))
            stats = fetch_json(harness.host, harness.port, "/stats")
        sheds = [r for r in outcomes if isinstance(r, RequestShed)]
        served = [r for r in outcomes if isinstance(r, list)]
        others = [r for r in outcomes
                  if isinstance(r, Exception) and
                  not isinstance(r, RequestShed)]
        assert sheds, "overload never shed"
        assert served, "overload starved every request"
        assert not others, f"unexpected failures: {others!r}"
        server = stats["server"]
        assert server["shed"] == len(sheds)
        assert server["max_inflight_observed"] <= 2
        assert server["accepted"] == len(served)

    def test_fifo_within_deadline_class(self, codec_session):
        """Same-deadline requests on one connection are answered in
        submission order — admission is a FIFO queue, not a free-for-all."""
        _, session = codec_session
        x = _requests()[0]
        n = 8
        with ServerHarness(session) as harness:
            with socket.create_connection(
                (harness.host, harness.port), timeout=10.0
            ) as sock:
                for req_id in range(1, n + 1):
                    sock.sendall(protocol.encode_frame(Frame(
                        type=FrameType.RECONSTRUCT,
                        req_id=req_id,
                        payload=protocol.encode_arrays([x]),
                    )))
                stream = sock.makefile("rb")
                replies = [protocol.read_frame(stream)
                           for _ in range(n)]
        assert all(r is not None and r.type == FrameType.RESULT
                   for r in replies)
        assert [r.req_id for r in replies] == list(range(1, n + 1))

    def test_shed_error_code_on_wire(self, codec_session):
        """The wire-level error code for a shed is 429 — scripts that
        speak raw frames can implement backoff without string-matching."""
        _, session = codec_session
        faulty = FaultInjectingSession(session)
        faulty.delay_next(10 ** 6, 0.1)
        x = _requests()[0]
        with ServerHarness(faulty, max_inflight=1) as harness:
            with socket.create_connection(
                (harness.host, harness.port), timeout=10.0
            ) as sock:
                for req_id in range(1, 7):
                    sock.sendall(protocol.encode_frame(Frame(
                        type=FrameType.RECONSTRUCT,
                        req_id=req_id,
                        payload=protocol.encode_arrays([x]),
                    )))
                stream = sock.makefile("rb")
                replies = [protocol.read_frame(stream) for _ in range(6)]
        codes = [r.error()[0] for r in replies
                 if r.type == FrameType.ERROR]
        assert codes and set(codes) == {ErrorCode.SHED}

    def test_draining_server_refuses_with_503(self, codec_session):
        """During a graceful drain, already-admitted work is still
        served while new submissions are refused with 503."""
        _, session = codec_session
        faulty = FaultInjectingSession(session)
        x = _requests()[0]
        with ServerHarness(faulty) as harness:
            with socket.create_connection(
                (harness.host, harness.port), timeout=10.0
            ) as sock:
                stream = sock.makefile("rb")
                faulty.delay_next(1, 0.5)  # hold the drain open
                sock.sendall(protocol.encode_frame(Frame(
                    type=FrameType.RECONSTRUCT, req_id=1,
                    payload=protocol.encode_arrays([x]),
                )))
                time.sleep(0.15)  # request 1 admitted, its tick stalling
                harness.begin_drain()
                time.sleep(0.05)
                sock.sendall(protocol.encode_frame(Frame(
                    type=FrameType.RECONSTRUCT, req_id=2,
                    payload=protocol.encode_arrays([x]),
                )))
                replies = [protocol.read_frame(stream) for _ in range(2)]
        by_id = {r.req_id: r for r in replies}
        assert by_id[2].type == FrameType.ERROR
        assert by_id[2].error()[0] == ErrorCode.CLOSING
        assert by_id[1].type == FrameType.RESULT  # admitted work served


class TestAdaptiveTicks:
    def test_burst_widens_ticks(self, codec_session):
        """A pipelined burst must be served in fewer, wider ticks than
        one-request-per-tick — the GEMM amortisation the batcher exists
        for."""
        _, session = codec_session
        x = _requests()[0]

        async def burst(host, port, n=32):
            client = await AsyncServingClient.connect(host, port)
            try:
                futures = [await client.submit_reconstruct(x)
                           for _ in range(n)]
                await asyncio.gather(*futures)
            finally:
                await client.close()

        with ServerHarness(session, batch_window=0.01) as harness:
            asyncio.run(burst(harness.host, harness.port))
            stats = fetch_json(harness.host, harness.port, "/stats")
        batcher = stats["batcher"]
        assert batcher["served_requests"] == 32
        assert batcher["largest_tick"] >= 2
        assert batcher["ticks"] < 32
