"""Tests for repro.parallel.reducer — spec parsing, deterministic
reduction, and multi-process gradient agreement.

Pool-spawning tests are marked ``slow`` and share one 2-worker reducer
per class; the contract checks (spec validation, tree topology, the
single-worker in-process short-circuit) run unconditionally.
"""

import numpy as np
import pytest
from gradient_oracle import looped_loss_and_gradient

from repro.exceptions import ExperimentError, GradientError
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.parallel.reducer import (
    GradientReducer,
    resolve_parallel_workers,
    tree_reduce,
    validate_parallel_spec,
)
from repro.parallel.pool import WorkerPool, default_worker_count
from repro.training.gradients import loss_and_gradient
from repro.training.loss import SquaredErrorLoss


def _network(seed=11, dim=8, layers=3, backend="fused"):
    return QuantumNetwork(dim, layers, backend=backend).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


def _batch(dim=8, m=12, seed=7):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(dim, m))) + 0.1
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    t = np.abs(rng.normal(size=(dim, m))) + 0.1
    t /= np.linalg.norm(t, axis=0, keepdims=True)
    return x, t


class TestParallelSpec:
    @pytest.mark.parametrize("value", [None, "", "none", "off", "NONE"])
    def test_disabled_spellings(self, value):
        assert validate_parallel_spec(value) is None

    def test_pool_spellings_normalised(self):
        assert validate_parallel_spec("pool") == "pool"
        assert validate_parallel_spec("POOL:3") == "pool:3"
        assert validate_parallel_spec(" pool:2 ") == "pool:2"

    @pytest.mark.parametrize("bad", ["pool:x", "pool:0", "pool:-1", "mpi"])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(GradientError):
            validate_parallel_spec(bad)

    def test_custom_error_class(self):
        with pytest.raises(ExperimentError):
            validate_parallel_spec("nope", ExperimentError)

    def test_resolve_workers(self):
        assert resolve_parallel_workers(None) is None
        assert resolve_parallel_workers("pool:5") == 5
        assert resolve_parallel_workers("pool") == default_worker_count()


class TestTreeReduce:
    def test_single_value(self):
        assert tree_reduce([3.5]) == 3.5

    def test_fixed_topology_fold(self):
        # [a, b, c, d, e] -> ((a+b) + (c+d)) + e, bitwise.
        vals = [0.1, 0.7, 1e-9, 3.3, 2.2]
        a, b, c, d, e = vals
        assert tree_reduce(vals) == ((a + b) + (c + d)) + e

    def test_arrays_reduce_elementwise(self):
        arrays = [np.full(3, float(i)) for i in range(4)]
        assert np.array_equal(tree_reduce(arrays), np.full(3, 6.0))

    def test_empty_rejected(self):
        with pytest.raises(GradientError):
            tree_reduce([])


class TestReducerContracts:
    def test_invalid_worker_count(self):
        with pytest.raises(GradientError):
            GradientReducer(num_workers=0)

    def test_unknown_method_rejected(self):
        net = _network()
        x, t = _batch()
        with pytest.raises(GradientError):
            GradientReducer(num_workers=1).loss_and_gradient(
                net, x, t, method="nope"
            )

    def test_unknown_shard_mode_rejected(self):
        net = _network()
        x, t = _batch()
        with pytest.raises(GradientError):
            GradientReducer(num_workers=1).loss_and_gradient(
                net, x, t, shard="rows"
            )

    def test_adjoint_param_sharding_rejected(self):
        net = _network()
        x, t = _batch()
        with pytest.raises(GradientError):
            GradientReducer(num_workers=2).loss_and_gradient(
                net, x, t, method="adjoint", shard="params"
            )

    def test_single_worker_short_circuits_in_process(self):
        """num_workers=1 never spawns: bit-identical to the plain engine."""
        net = _network()
        x, t = _batch()
        reducer = GradientReducer(num_workers=1)
        value, grad = reducer.loss_and_gradient(net, x, t)
        ref_v, ref_g = loss_and_gradient(net, x, t)
        assert value == ref_v
        assert np.array_equal(grad, ref_g)
        assert reducer._pool is None  # lazy pool never materialised
        reducer.close()

    def test_single_column_short_circuits(self):
        """One shard is no scatter: runs in-process even at 4 workers."""
        net = _network()
        x, t = _batch(m=1)
        reducer = GradientReducer(num_workers=4)
        value, grad = reducer.loss_and_gradient(net, x, t)
        assert reducer._pool is None
        ref_v, ref_g = loss_and_gradient(net, x, t)
        assert value == ref_v
        assert np.array_equal(grad, ref_g)

    def test_context_manager_and_repr(self):
        with GradientReducer(num_workers=2) as reducer:
            assert "owned" in repr(reducer)
        borrowed_pool = WorkerPool(processes=2)
        reducer = GradientReducer(pool=borrowed_pool)
        assert reducer.num_workers == 2
        assert "borrowed" in repr(reducer)
        reducer.close()  # must leave the borrowed pool untouched
        assert not borrowed_pool.running


@pytest.mark.slow
class TestReducerAgreement:
    """2-worker reduced gradients vs the single-process engine."""

    @pytest.fixture(scope="class")
    def reducer(self):
        with GradientReducer(num_workers=2) as reducer:
            yield reducer

    @pytest.mark.parametrize("reference", ["adjoint", "derivative"])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_batch_sharded_methods_match(self, reducer, reference, reduction):
        """The batch-sharded adjoint vs the one-process adjoint, and vs the
        per-gate oracle's derivative-gate gradient."""
        net = _network()
        x, t = _batch()
        loss = SquaredErrorLoss(reduction=reduction)
        drive = (
            looped_loss_and_gradient
            if reference == "derivative"
            else loss_and_gradient
        )
        ref_v, ref_g = drive(net, x, t, loss=loss, method=reference)
        value, grad = reducer.loss_and_gradient(
            net, x, t, loss=loss, method="adjoint"
        )
        assert value == pytest.approx(ref_v, abs=1e-12)
        assert np.max(np.abs(grad - ref_g)) < 1e-10

    @pytest.mark.parametrize("method", ["fd", "central"])
    def test_param_sharded_methods_bitwise(self, reducer, method):
        """Perturbation-stack shards reproduce the one-process stencil
        arithmetic parameter-by-parameter — exactly, not approximately."""
        net = _network()
        x, t = _batch()
        loss = SquaredErrorLoss(reduction="sum")
        ref_v, ref_g = loss_and_gradient(net, x, t, loss=loss, method=method)
        value, grad = reducer.loss_and_gradient(
            net, x, t, loss=loss, method=method
        )
        assert value == ref_v
        assert np.array_equal(grad, ref_g)

    def test_projection_masked_gradient_matches(self, reducer):
        net = _network()
        x, t = _batch()
        projection = Projection.last(8, 2)
        t_proj = projection.apply(t)
        ref_v, ref_g = loss_and_gradient(net, x, t_proj, projection=projection)
        value, grad = reducer.loss_and_gradient(
            net, x, t_proj, projection=projection
        )
        assert value == pytest.approx(ref_v, abs=1e-12)
        assert np.max(np.abs(grad - ref_g)) < 1e-10

    def test_rerun_bitwise_deterministic(self, reducer):
        """The determinism contract: same inputs -> same bits, rerun."""
        net = _network()
        x, t = _batch()
        first = reducer.loss_and_gradient(net, x, t)
        second = reducer.loss_and_gradient(net, x, t)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

