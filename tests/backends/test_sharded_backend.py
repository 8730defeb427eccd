"""Tests for the sharded multi-process backend.

Cheap contract checks (spec parsing, lazy pools, fused fallback) run
everywhere; tests that spawn worker processes are marked ``slow``.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.backends import (
    FusedBackend,
    ShardedBackend,
    make_backend,
    validate_backend_name,
)
from repro.backends.sharded import _PoolSlot
from repro.exceptions import BackendError, GateError
from repro.network import QuantumAutoencoder, QuantumNetwork


def sharded_net(dim=6, layers=3, seed=4, workers=2, min_shard=64, **kwargs):
    backend = ShardedBackend(
        num_workers=workers, min_shard_columns=min_shard
    )
    return QuantumNetwork(dim, layers, backend=backend, **kwargs).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


def fused_twin(net):
    twin = QuantumNetwork(
        net.dim,
        net.num_layers,
        descending=net.descending,
        allow_phase=net.allow_phase,
        backend="fused",
    )
    twin.set_flat_params(net.get_flat_params())
    return twin


class TestSpecParsing:
    def test_registry_spelling(self):
        backend = make_backend("sharded:3")
        assert isinstance(backend, ShardedBackend)
        assert backend.worker_count == 3

    def test_plain_name_uses_affinity_default(self):
        from repro.parallel.pool import default_worker_count

        assert make_backend("sharded").worker_count == default_worker_count()

    def test_validate_normalises(self):
        assert validate_backend_name("SHARDED:2") == "sharded:2"

    @pytest.mark.parametrize("bad", ["sharded:x", "sharded:", "sharded:0",
                                     "sharded:-1", "sharded:2:3",
                                     "sharded:2:numba", "sharded:fused",
                                     "sharded:3:fused", "sharded:turbo",
                                     "sharded:fused:fused"])
    def test_bad_worker_count_rejected(self, bad):
        with pytest.raises(BackendError, match="worker count"):
            make_backend(bad)

    def test_validate_uses_caller_error_class(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            validate_backend_name("sharded:zero", ExperimentError)

    def test_in_process_backend_is_fused(self):
        backend = make_backend("sharded:2")
        assert isinstance(backend._local, FusedBackend)
        assert isinstance(backend.spawn()._local, FusedBackend)

    def test_constructor_takes_no_delegate(self):
        with pytest.raises(TypeError):
            ShardedBackend(num_workers=2, delegate="fused")

    def test_constructor_validation(self):
        with pytest.raises(BackendError):
            ShardedBackend(num_workers=0)
        with pytest.raises(BackendError):
            ShardedBackend(min_shard_columns=0)


class TestLazyPool:
    def test_selection_spawns_nothing(self):
        net = QuantumNetwork(4, 2, backend="sharded:2")
        assert net.backend._slot.pool is None

    def test_narrow_batch_stays_in_process(self, rng):
        net = sharded_net(min_shard=1024)
        ref = fused_twin(net)
        x = rng.normal(size=(6, 10))
        assert np.allclose(net.forward(x), ref.forward(x))
        assert net.backend._slot.pool is None  # fused fallback, no pool

    def test_gradient_workspace_served_in_process(self, rng):
        net = sharded_net()
        ws = net.backend.gradient_workspace(rng.normal(size=(6, 5)))
        assert ws is not None
        assert net.backend.supports_cached_gradients
        assert net.backend._slot.pool is None

    def test_spawn_shares_pool_slot(self):
        backend = ShardedBackend(num_workers=2)
        clone = backend.spawn()
        assert isinstance(clone, ShardedBackend)
        assert clone._slot is backend._slot
        assert clone.min_shard_columns == backend.min_shard_columns

    def test_autoencoder_networks_share_one_slot(self):
        ae = QuantumAutoencoder(4, 2, 2, 2, backend="sharded:2")
        uc_backend, ur_backend = ae.uc.backend, ae.ur.backend
        assert isinstance(uc_backend, ShardedBackend)
        assert uc_backend is not ur_backend
        assert uc_backend._slot is ur_backend._slot

    def test_set_backend_shares_one_slot(self):
        ae = QuantumAutoencoder(4, 2, 2, 2).set_backend("sharded:2")
        assert ae.uc.backend._slot is ae.ur.backend._slot

    def test_pool_slot_close_without_pool_is_noop(self):
        slot = _PoolSlot(num_workers=2)
        slot.close()  # nothing spawned, nothing to do
        assert slot.pool is None

    def test_close_idempotent(self):
        backend = ShardedBackend(num_workers=2)
        backend.close()
        backend.close()


@pytest.mark.slow
class TestShardedExecution:
    def test_wide_real_batch_matches_fused(self, rng):
        net = sharded_net()
        ref = fused_twin(net)
        x = rng.normal(size=(6, 300))
        try:
            assert np.allclose(
                net.forward(x), ref.forward(x), atol=1e-12, rtol=0
            )
            rt = net.forward(net.forward(x), inverse=True)
            assert np.allclose(rt, x, atol=1e-10, rtol=0)
        finally:
            net.backend.close()
        assert mp.active_children() == []

    def test_wide_complex_batch_matches_fused(self, rng):
        net = sharded_net(allow_phase=True, seed=9)
        ref = fused_twin(net)
        x = rng.normal(size=(6, 256)) + 1j * rng.normal(size=(6, 256))
        try:
            assert np.allclose(
                net.forward(x), ref.forward(x), atol=1e-12, rtol=0
            )
        finally:
            net.backend.close()

    def test_parameter_update_reaches_workers(self, rng):
        net = sharded_net()
        x = rng.normal(size=(6, 200))
        try:
            before = net.forward(x)
            net.set_flat_params(net.get_flat_params() * 0.5)
            after = net.forward(x)
            assert not np.allclose(before, after)
            assert np.allclose(after, fused_twin(net).forward(x), atol=1e-12)
        finally:
            net.backend.close()

    def test_phase_network_rejects_real_wide_batch(self, rng):
        net = sharded_net(allow_phase=True, seed=9)
        try:
            with pytest.raises(GateError, match="complex state batch"):
                net.forward_inplace(rng.normal(size=(6, 256)))
            # The contract error surfaces parent-side, before any spawn.
            assert net.backend._slot.pool is None
        finally:
            net.backend.close()

    def test_autoencoder_round_trip_on_shared_pool(self, rng):
        ae = QuantumAutoencoder(4, 2, 2, 2, backend="sharded:2")
        for netw in (ae.uc, ae.ur):
            netw.backend._min_shard_columns = 32
        ae.initialize("uniform", rng=np.random.default_rng(2))
        ref = QuantumAutoencoder(4, 2, 2, 2, backend="fused")
        ref.uc.set_flat_params(ae.uc.get_flat_params())
        ref.ur.set_flat_params(ae.ur.get_flat_params())
        X = np.abs(rng.normal(size=(120, 4))) + 0.1
        try:
            out = ae.forward(X)
            assert np.allclose(out.x_hat, ref.forward(X).x_hat, atol=1e-12)
            # Both networks ran on one pool.
            assert ae.uc.backend._slot.pool is ae.ur.backend._slot.pool
        finally:
            ae.uc.backend.close()
        assert mp.active_children() == []


class TestHigherLayerWiring:
    def test_codec_spec_accepts_sharded_spelling(self):
        from repro.api import CodecSpec

        spec = CodecSpec(backend="sharded:2")
        assert spec.backend == "sharded:2"
        assert CodecSpec.from_dict(spec.to_dict()) == spec

    def test_codec_spec_rejects_bad_worker_count(self):
        from repro.api import CodecSpec
        from repro.exceptions import NetworkConfigError

        with pytest.raises(NetworkConfigError):
            CodecSpec(backend="sharded:nope")

    def test_trainer_runs_on_sharded_backend(self, rng):
        """Narrow training batches fall through to the in-process fused
        backend — same losses, no worker processes spawned."""
        from repro.training.trainer import Trainer

        def train(backend):
            ae = QuantumAutoencoder(4, 2, 2, 2, backend=backend)
            ae.initialize("uniform", rng=np.random.default_rng(6))
            X = np.abs(np.random.default_rng(7).normal(size=(8, 4))) + 0.1
            return ae, Trainer(iterations=3).train(ae, X)

        sharded_ae, sharded_result = train("sharded:2")
        _, fused_result = train("fused")
        assert sharded_result.history.loss_r == pytest.approx(
            fused_result.history.loss_r
        )
        assert sharded_ae.uc.backend._slot.pool is None  # never spawned
