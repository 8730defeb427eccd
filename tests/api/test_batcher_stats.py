"""Stats surface of MicroBatcher + the LatencyHistogram it reports.

Satellite contract: ``MicroBatcher.stats`` exposes queue depth, the
rejection/expiry counters and a per-flush latency histogram, and every
counter is monotone non-decreasing over the batcher's lifetime.
"""

import time

import numpy as np
import pytest

from repro.api import InferenceSession, MicroBatcher
from repro.exceptions import DeadlineExpired, ServingError
from repro.network.autoencoder import QuantumAutoencoder
from repro.serving import FaultInjectingSession, LatencyHistogram


def _session(**kwargs):
    ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
        "uniform", rng=np.random.default_rng(0)
    )
    return InferenceSession(ae, **kwargs)


def _requests(m=5, seed=1):
    return np.abs(np.random.default_rng(seed).normal(size=(m, 4))) + 0.1


#: Keys in MicroBatcher.stats that may never decrease.
MONOTONE_KEYS = ("served_requests", "ticks", "largest_tick",
                 "rejected_requests", "expired_requests")


class TestLatencyHistogram:
    def test_empty_summary(self):
        hist = LatencyHistogram()
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50_s"] == 0.0 and summary["p99_s"] == 0.0

    def test_percentiles_ordered_and_conservative(self):
        hist = LatencyHistogram()
        samples = [0.001, 0.002, 0.004, 0.008, 0.5]
        for s in samples:
            hist.record(s)
        summary = hist.summary()
        assert summary["count"] == len(samples)
        assert summary["p50_s"] <= summary["p99_s"] <= summary["max_s"]
        assert summary["max_s"] == max(samples)
        # conservative: a reported percentile never understates the
        # true one (bucket upper bounds, capped at the observed max)
        assert hist.percentile(0.5) >= 0.002
        assert hist.percentile(0.99) <= max(samples)

    def test_out_of_range_samples_are_counted(self):
        hist = LatencyHistogram()
        for s in (1e-9, 1e-3, 1.0, 500.0):  # below/above the bounds too
            hist.record(s)
        assert hist.count == 4
        # clamped into the first and the overflow bucket, not dropped
        assert hist.percentile(0.25) <= 1e-5
        assert hist.percentile(1.0) == 500.0

    def test_zero_samples_report_zero(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        assert hist.percentile(0.99) == 0.0


class TestCounterMonotonicity:
    def test_counters_never_decrease_across_workload(self):
        """Drive a mixed workload (serves, rejections, expiries, manual
        flushes) snapshotting stats at every step."""
        batcher = MicroBatcher(_session(), max_batch_size=3,
                               flush_latency=None)
        snapshots = [batcher.stats]

        def step(fn):
            try:
                fn()
            except (ServingError, DeadlineExpired):
                pass
            snapshots.append(batcher.stats)

        X = _requests(m=8)
        for x in X[:4]:
            step(lambda x=x: batcher.submit(x))
        step(lambda: batcher.submit(np.zeros(4)))          # rejected
        step(lambda: batcher.submit(np.ones(3)))           # rejected
        step(lambda: batcher.submit(
            X[4], deadline=time.monotonic() - 1.0))        # will expire
        step(batcher.flush)
        for x in X[5:]:
            step(lambda x=x: batcher.submit(x))
        step(batcher.close)

        for before, after in zip(snapshots, snapshots[1:]):
            for key in MONOTONE_KEYS:
                assert after[key] >= before[key], key
            assert (after["flush_latency"]["count"]
                    >= before["flush_latency"]["count"])

        final = snapshots[-1]
        assert final["served_requests"] == 7
        assert final["rejected_requests"] == 2
        assert final["expired_requests"] == 1
        assert final["queue_depth"] == 0


class TestQueueDepth:
    def test_queue_depth_tracks_pending(self):
        batcher = MicroBatcher(_session(), max_batch_size=64,
                               flush_latency=None)
        X = _requests(m=4)
        for i, x in enumerate(X):
            batcher.submit(x)
            assert batcher.stats["queue_depth"] == i + 1
        assert batcher.stats["pending"] == 4  # back-compat alias
        batcher.flush()
        assert batcher.stats["queue_depth"] == 0


class TestRejections:
    def test_each_invalid_submit_counts_once(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        bad = [np.ones(3), np.array([1.0, np.nan, 0.0, 0.0]), np.zeros(4)]
        for i, x in enumerate(bad):
            with pytest.raises(ServingError):
                batcher.submit(x)
            assert batcher.stats["rejected_requests"] == i + 1
        assert batcher.stats["queue_depth"] == 0

    def test_closed_submit_counts_as_rejection(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        batcher.close()
        with pytest.raises(ServingError):
            batcher.submit(_requests(m=1)[0])
        assert batcher.stats["rejected_requests"] == 1


class TestDeadlines:
    def test_expired_request_dropped_before_the_gemm(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        X = _requests(m=3)
        alive = [batcher.submit(x) for x in X[:2]]
        doomed = batcher.submit(X[2], deadline=time.monotonic() - 0.01)
        assert batcher.flush() == 2  # expired work is not "served"
        with pytest.raises(DeadlineExpired):
            doomed.result(timeout=1.0)
        for future in alive:
            assert future.result(timeout=1.0).shape == (4,)
        stats = batcher.stats
        assert stats["expired_requests"] == 1
        assert stats["served_requests"] == 2
        assert stats["largest_tick"] == 2  # the tick shrank pre-GEMM

    def test_future_deadline_is_served_normally(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        future = batcher.submit(_requests(m=1)[0],
                                deadline=time.monotonic() + 60.0)
        batcher.flush()
        assert future.result(timeout=1.0).shape == (4,)
        assert batcher.stats["expired_requests"] == 0

    def test_oldest_pending_deadline(self):
        batcher = MicroBatcher(_session(), flush_latency=None)
        assert batcher.oldest_pending_deadline is None
        batcher.submit(_requests(m=1)[0])
        assert batcher.oldest_pending_deadline is None
        t1 = time.monotonic() + 5.0
        t2 = time.monotonic() + 1.0
        batcher.submit(_requests(m=1)[0], deadline=t1)
        batcher.submit(_requests(m=1)[0], deadline=t2)
        assert batcher.oldest_pending_deadline == t2
        batcher.flush()
        assert batcher.oldest_pending_deadline is None


class TestFlushHistogram:
    def test_histogram_counts_ticks(self):
        batcher = MicroBatcher(_session(), max_batch_size=2,
                               flush_latency=None)
        for x in _requests(m=6):
            batcher.submit(x)
        stats = batcher.stats
        assert stats["ticks"] == 3
        assert stats["flush_latency"]["count"] == 3
        assert stats["flush_latency"]["max_s"] > 0.0
        assert (stats["flush_latency"]["p50_s"]
                <= stats["flush_latency"]["p99_s"])

    def test_failed_tick_still_recorded(self):
        """A tick that dies in the session call still contributes a
        flush-latency sample — failure time is capacity too."""
        faulty = FaultInjectingSession(_session())
        batcher = MicroBatcher(faulty, flush_latency=None)
        faulty.fail_next(1, RuntimeError("boom"))
        future = batcher.submit(_requests(m=1)[0])
        assert batcher.flush() == 0
        with pytest.raises(RuntimeError):
            future.result(timeout=1.0)
        stats = batcher.stats
        assert stats["flush_latency"]["count"] == 1
        assert stats["served_requests"] == 0
