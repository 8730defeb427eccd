"""Column-shard planning for ``(N, M)`` amplitude batches.

The paper's pipeline is embarrassingly parallel across batch columns:
``U @ X[:, a:b]`` never reads outside its own column range, so a wide
batch can be *scattered* over worker processes, each worker computing one
contiguous column shard, and the results *gathered* back by plain slice
assignment.  This module is the planning half of that story — pure
index arithmetic with no processes or shared memory involved — used by
:class:`repro.parallel.pool.WorkerPool` and
:class:`repro.backends.sharded.ShardedBackend`.

Shards are balanced to within one column (the first ``M mod K`` shards
get the extra column), contiguous, ordered, and never empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.exceptions import DimensionError

__all__ = ["Shard", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One contiguous column range ``[start, stop)`` of a batch."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.stop):
            raise DimensionError(
                f"shard needs 0 <= start < stop, got [{self.start}, "
                f"{self.stop})"
            )

    @property
    def num_columns(self) -> int:
        return self.stop - self.start

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)


def plan_shards(
    num_columns: int, num_shards: int, min_columns: int = 1
) -> List[Shard]:
    """Partition ``num_columns`` into at most ``num_shards`` balanced shards.

    Parameters
    ----------
    num_columns:
        Batch width ``M`` to split.
    num_shards:
        Target shard count (typically the worker count).
    min_columns:
        Lower bound on shard width: the plan is narrowed until every
        shard holds at least this many columns (scattering a shard
        cheaper than the scatter itself is pure overhead).

    Returns
    -------
    Ordered, contiguous, non-empty :class:`Shard` list covering
    ``[0, num_columns)`` exactly; widths differ by at most one column.

    Examples
    --------
    >>> [s.num_columns for s in plan_shards(10, 3)]
    [4, 3, 3]
    >>> plan_shards(5, 8)  # never more shards than columns
    [Shard(index=0, start=0, stop=1), Shard(index=1, start=1, stop=2), \
Shard(index=2, start=2, stop=3), Shard(index=3, start=3, stop=4), \
Shard(index=4, start=4, stop=5)]
    >>> [s.num_columns for s in plan_shards(100, 4, min_columns=40)]
    [50, 50]
    """
    if num_columns < 1:
        raise DimensionError(
            f"num_columns must be >= 1, got {num_columns}"
        )
    if num_shards < 1:
        raise DimensionError(f"num_shards must be >= 1, got {num_shards}")
    if min_columns < 1:
        raise DimensionError(f"min_columns must be >= 1, got {min_columns}")
    k = min(num_shards, max(1, num_columns // min_columns), num_columns)
    base, extra = divmod(num_columns, k)
    shards: List[Shard] = []
    start = 0
    for i in range(k):
        width = base + (1 if i < extra else 0)
        shards.append(Shard(index=i, start=start, stop=start + width))
        start += width
    assert start == num_columns
    return shards
