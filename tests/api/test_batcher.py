"""Tests for repro.api.batcher (MicroBatcher)."""

import time

import numpy as np
import pytest

from repro.api import InferenceSession, MicroBatcher
from repro.exceptions import ServingError
from repro.network.autoencoder import QuantumAutoencoder


def _session(**kwargs):
    ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
        "uniform", rng=np.random.default_rng(0)
    )
    return InferenceSession(ae, **kwargs)


def _requests(m=5, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, 4))) + 0.1


class TestValidation:
    def test_bad_construction(self):
        session = _session()
        with pytest.raises(ServingError):
            MicroBatcher(session, max_batch_size=0)
        with pytest.raises(ServingError):
            MicroBatcher(session, flush_latency=0.0)

    def test_bad_requests_rejected_at_submit(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        with pytest.raises(ServingError):
            batcher.submit(np.ones(3))  # wrong length
        with pytest.raises(ServingError):
            batcher.submit(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(ServingError):
            batcher.submit(np.zeros(4))  # not encodable
        assert batcher.pending == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_rejected_and_neighbour_served(self):
        """Finite entries whose ``sum x^2`` overflows are refused at their
        own submit; the requests around it share a tick and are served."""
        session = _session()
        batcher = MicroBatcher(session, max_batch_size=2, flush_latency=None)
        good = _requests(m=2)
        first = batcher.submit(good[0])
        with pytest.raises(ServingError, match="overflow"):
            batcher.submit(np.full(4, 1e200))
        second = batcher.submit(good[1])  # fills the tick
        expected = session.reconstruct(good)
        assert np.array_equal(first.result(timeout=1.0), expected[0])
        assert np.array_equal(second.result(timeout=1.0), expected[1])
        stats = batcher.stats
        assert stats["rejected_requests"] == 1
        assert stats["served_requests"] == 2
        assert stats["ticks"] == 1


class TestFlushTriggers:
    def test_manual_flush_serves_everything(self):
        session = _session()
        batcher = MicroBatcher(session, max_batch_size=64, flush_latency=None)
        X = _requests()
        futures = [batcher.submit(x) for x in X]
        assert batcher.pending == len(X)
        assert not futures[0].done()
        assert batcher.flush() == len(X)
        expected = session.reconstruct(X)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=1.0), expected[i])

    def test_size_trigger_flushes_inline(self):
        batcher = MicroBatcher(_session(), max_batch_size=3,
                               flush_latency=None)
        X = _requests(m=7)
        futures = [batcher.submit(x) for x in X]
        # 7 submits with max 3 -> two full ticks served, one pending.
        assert [f.done() for f in futures] == [True] * 6 + [False]
        assert batcher.pending == 1
        assert batcher.flush() == 1
        stats = batcher.stats
        assert stats["ticks"] == 3
        assert stats["largest_tick"] == 3
        assert stats["served_requests"] == 7

    def test_latency_trigger_fires(self):
        batcher = MicroBatcher(_session(), max_batch_size=1024,
                               flush_latency=0.02)
        future = batcher.submit(_requests(m=1)[0])
        assert future.result(timeout=5.0).shape == (4,)
        assert batcher.stats["ticks"] == 1

    def test_results_are_per_request_rows(self):
        session = _session()
        batcher = MicroBatcher(session, flush_latency=None)
        X = _requests(m=4)
        futures = [batcher.submit(x) for x in X]
        batcher.flush()
        # Order must be preserved: request i gets row i of the tick.
        expected = session.reconstruct(X)
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=1.0), expected[i])


class TestCancellation:
    def test_cancelled_future_does_not_poison_tick(self):
        session = _session()
        batcher = MicroBatcher(session, flush_latency=None)
        X = _requests(m=3)
        futures = [batcher.submit(x) for x in X]
        assert futures[0].cancel()
        # The tick still runs for everyone else; the return value counts
        # deliveries, consistent with stats["served_requests"].
        assert batcher.flush() == 2
        assert futures[0].cancelled()
        expected = session.reconstruct(X)
        for i in (1, 2):
            assert np.array_equal(futures[i].result(timeout=1.0), expected[i])
        assert batcher.stats["served_requests"] == 2


class TestLifecycle:
    def test_close_flushes_then_rejects(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        future = batcher.submit(_requests(m=1)[0])
        batcher.close()
        assert future.result(timeout=1.0).shape == (4,)
        with pytest.raises(ServingError):
            batcher.submit(_requests(m=1)[0])
        batcher.close()  # idempotent

    def test_context_manager(self):
        with MicroBatcher(_session(), flush_latency=None) as batcher:
            future = batcher.submit(_requests(m=1)[0])
        assert future.done()

    def test_flush_empty_is_zero(self):
        assert MicroBatcher(_session(), flush_latency=None).flush() == 0

    def test_repr(self):
        assert "open" in repr(MicroBatcher(_session(), flush_latency=None))


class TestSessionIntegration:
    def test_submit_via_session(self):
        session = _session(max_batch_size=2, flush_latency=None)
        X = _requests(m=4)
        futures = [session.submit(x) for x in X]
        assert all(f.done() for f in futures)  # two size-triggered ticks
        expected_a = session.reconstruct(X[:2])
        expected_b = session.reconstruct(X[2:])
        assert np.array_equal(futures[0].result(), expected_a[0])
        assert np.array_equal(futures[3].result(), expected_b[1])
        assert session.batcher.stats["ticks"] == 2
