"""Serving telemetry primitives shared by every serving surface.

The `/healthz`-style endpoint (and capacity planning generally) needs
more than counters: overload shows up in the *tail* of the per-flush
latency distribution long before it moves the mean.  This module holds
the one histogram implementation both the in-process
:class:`~repro.api.batcher.MicroBatcher` and the network front-end
(:mod:`repro.serving.server`) record into, so their stats payloads stay
mergeable.

The histogram is fixed-size and log-spaced (constant memory, O(1)
record), the standard shape for latency telemetry: percentiles are read
as the upper bound of the bucket where the cumulative count crosses the
quantile, i.e. conservative (never under-reported) estimates with
bounded relative error set by ``buckets_per_decade``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Log-spaced latency histogram over ``[lowest, highest]`` seconds.

    Not thread-safe by itself — recording surfaces (the micro-batcher,
    the async front-end) already serialise their stats updates, so the
    histogram stays lock-free.

    Parameters
    ----------
    lowest, highest:
        The tracked range in seconds; samples outside clamp into the
        first/last bucket (the count is never dropped).
    buckets_per_decade:
        Resolution: bucket upper bounds grow by ``10**(1/bpd)``, so 5
        gives ~58% relative spacing — coarse but plenty to tell a 2 ms
        flush from a 200 ms one.

    Examples
    --------
    >>> h = LatencyHistogram()
    >>> for ms in (1, 2, 3, 500):
    ...     h.record(ms / 1000.0)
    >>> h.count
    4
    >>> h.percentile(0.5) <= 0.01 and h.percentile(0.99) >= 0.5
    True
    >>> sorted(h.summary())
    ['count', 'max_s', 'mean_s', 'p50_s', 'p99_s']
    """

    def __init__(
        self,
        lowest: float = 1e-6,
        highest: float = 120.0,
        buckets_per_decade: int = 5,
    ) -> None:
        if not (0 < lowest < highest):
            raise ValueError(
                f"need 0 < lowest < highest, got ({lowest}, {highest})"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        decades = math.log10(highest / lowest)
        num = max(1, int(math.ceil(decades * buckets_per_decade)))
        self._bounds: List[float] = [
            lowest * 10.0 ** ((i + 1) / buckets_per_decade)
            for i in range(num)
        ]
        self._bounds[-1] = max(self._bounds[-1], highest)
        self._counts: List[int] = [0] * (num + 1)  # +1: overflow bucket
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total samples recorded (monotone non-decreasing)."""
        return self._count

    def record(self, seconds: float) -> None:
        """Add one sample (negative values clamp to zero)."""
        seconds = max(0.0, float(seconds))
        index = self._bucket_index(seconds)
        self._counts[index] += 1
        self._count += 1
        self._total += seconds
        self._max = max(self._max, seconds)

    def _bucket_index(self, seconds: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:  # first bucket whose upper bound >= sample
            mid = (lo + hi) // 2
            if self._bounds[mid] >= seconds:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> Optional[float]:
        """Upper-bound estimate of the ``q`` quantile in seconds.

        Returns ``None`` when empty.  ``q`` is a fraction (0.99 = p99);
        the true max is used for the overflow bucket so the estimate
        never exceeds an observed value's bucket ceiling.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._count == 0:
            return None
        rank = q * self._count
        cumulative = 0
        for i, n in enumerate(self._counts):
            cumulative += n
            if cumulative >= rank and n:
                if i == len(self._bounds):
                    return self._max
                return min(self._bounds[i], self._max)
        return self._max

    def summary(self) -> Dict[str, float]:
        """The JSON-ready digest every stats payload embeds."""
        if self._count == 0:
            return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0,
                    "max_s": 0.0}
        return {
            "count": self._count,
            "mean_s": self._total / self._count,
            "p50_s": float(self.percentile(0.5)),
            "p99_s": float(self.percentile(0.99)),
            "max_s": self._max,
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self._count}, "
            f"buckets={len(self._counts)})"
        )
