"""Tests for repro.parallel.sharding (pure planning, no processes)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.parallel.sharding import Shard, plan_shards


class TestPlanShards:
    def test_balanced_partition(self):
        widths = [s.num_columns for s in plan_shards(10, 3)]
        assert widths == [4, 3, 3]

    def test_exact_division(self):
        assert [s.num_columns for s in plan_shards(8, 4)] == [2, 2, 2, 2]

    def test_never_more_shards_than_columns(self):
        plan = plan_shards(3, 8)
        assert len(plan) == 3
        assert all(s.num_columns == 1 for s in plan)

    def test_min_columns_narrows_plan(self):
        plan = plan_shards(100, 4, min_columns=40)
        assert len(plan) == 2
        assert [s.num_columns for s in plan] == [50, 50]

    def test_min_columns_always_yields_one_shard(self):
        plan = plan_shards(10, 4, min_columns=1000)
        assert len(plan) == 1
        assert plan[0].slice == slice(0, 10)

    def test_indices_sequential(self):
        assert [s.index for s in plan_shards(20, 5)] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(DimensionError):
            plan_shards(bad, 2)
        with pytest.raises(DimensionError):
            plan_shards(4, bad)
        with pytest.raises(DimensionError):
            plan_shards(4, 2, min_columns=bad)

    def test_shard_validates_range(self):
        with pytest.raises(DimensionError):
            Shard(index=0, start=3, stop=3)
        with pytest.raises(DimensionError):
            Shard(index=0, start=-1, stop=2)

    @given(
        m=st.integers(min_value=1, max_value=500),
        k=st.integers(min_value=1, max_value=32),
        min_cols=st.integers(min_value=1, max_value=64),
    )
    def test_plan_covers_exactly_and_balances(self, m, k, min_cols):
        plan = plan_shards(m, k, min_columns=min_cols)
        # Contiguous, ordered, complete cover of [0, m).
        assert plan[0].start == 0 and plan[-1].stop == m
        for prev, cur in zip(plan, plan[1:]):
            assert prev.stop == cur.start
        widths = [s.num_columns for s in plan]
        assert min(widths) >= 1
        assert max(widths) - min(widths) <= 1
        assert len(plan) <= k
        if len(plan) > 1:
            assert min(widths) >= min_cols
