"""Tests for noise-aware training (repro.noise.training + Trainer wiring).

The PR's reproducibility contract, verified here at test scale:

- same ``(seed, noise, epoch)`` -> bitwise-identical averaged gradients,
  run to run;
- the worker-pool sharded average is bitwise identical to the
  single-process average at any pool size (pool:2 == pool:4 == none);
- ``theta_sigma = 0`` short-circuits to the plain (noise-blind) gradient.
"""

import numpy as np
import pytest

from repro.exceptions import NoiseError, TrainingError
from repro.network.quantum_network import QuantumNetwork
from repro.noise import NoiseModel, draw_jitter, noisy_loss_and_gradient
from repro.training.gradients import loss_and_gradient
from repro.training.trainer import Trainer


def _ae_params(ae):
    return np.concatenate(
        [ae.uc.get_flat_params(), ae.ur.get_flat_params()]
    )


def _network(seed=11, dim=8, layers=3, backend="fused", allow_phase=False):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(
        dim, layers, backend=backend, allow_phase=allow_phase
    ).initialize("uniform", rng=rng)
    if allow_phase:
        params = net.get_flat_params()
        params[net.num_thetas:] = rng.uniform(-np.pi, np.pi, net.num_thetas)
        net.set_flat_params(params)
    return net


def _batch(dim=8, m=10, seed=7):
    rng = np.random.default_rng(seed)
    x = np.abs(rng.normal(size=(dim, m))) + 0.1
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    t = np.abs(rng.normal(size=(dim, m))) + 0.1
    t /= np.linalg.norm(t, axis=0, keepdims=True)
    return x, t


JITTERY = NoiseModel(theta_sigma=0.05)


class TestDrawJitter:
    def test_only_thetas_perturbed(self):
        eps = draw_jitter(10, 6, 0.1, seed=3, epoch=0, realization=0)
        assert eps.shape == (10,)
        assert np.all(eps[6:] == 0.0)
        assert np.any(eps[:6] != 0.0)

    def test_keyed_on_realization_and_epoch(self):
        a = draw_jitter(8, 8, 0.1, seed=3, epoch=0, realization=0)
        b = draw_jitter(8, 8, 0.1, seed=3, epoch=0, realization=1)
        c = draw_jitter(8, 8, 0.1, seed=3, epoch=1, realization=0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(
            a, draw_jitter(8, 8, 0.1, seed=3, epoch=0, realization=0)
        )


class TestNoisyGradient:
    def test_zero_sigma_equals_plain_gradient_bitwise(self):
        net = _network()
        x, t = _batch()
        ref_v, ref_g = loss_and_gradient(net, x, t)
        value, grad = noisy_loss_and_gradient(
            net, x, t, model=NoiseModel(), trajectories=4, seed=0
        )
        assert value == ref_v
        assert np.array_equal(grad, ref_g)

    @pytest.mark.parametrize("network", ["fused", "fused-phase", "loop"])
    @pytest.mark.parametrize(
        "method", ["adjoint", "derivative", "fd", "central"]
    )
    def test_matches_manual_average(self, method, network):
        net = _network(
            backend="loop" if network == "loop" else "fused",
            allow_phase=network == "fused-phase",
        )
        x, t = _batch()
        K = 3
        kwargs = dict(method=method)
        base = net.get_flat_params().copy()
        grads, values = [], []
        for r in range(K):
            eps = draw_jitter(
                base.size, net.num_thetas, JITTERY.theta_sigma,
                seed=5, epoch=2, realization=r, stream=1,
            )
            net.set_flat_params(base + eps)
            v, g = loss_and_gradient(net, x, t, **kwargs)
            values.append(v)
            grads.append(g)
        net.set_flat_params(base)
        value, grad = noisy_loss_and_gradient(
            net, x, t, model=JITTERY, trajectories=K, seed=5, epoch=2,
            stream=1, **kwargs,
        )
        from repro.parallel.reducer import tree_reduce

        assert value == float(tree_reduce(values) / K)
        assert np.array_equal(grad, tree_reduce(grads) / K)

    def test_run_to_run_bitwise(self):
        net = _network()
        x, t = _batch()
        kwargs = dict(model=JITTERY, trajectories=4, seed=9, epoch=1)
        v1, g1 = noisy_loss_and_gradient(net, x, t, **kwargs)
        v2, g2 = noisy_loss_and_gradient(net, x, t, **kwargs)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_params_restored_after_call(self):
        net = _network()
        x, t = _batch()
        before = net.get_flat_params().copy()
        noisy_loss_and_gradient(
            net, x, t, model=JITTERY, trajectories=3, seed=0
        )
        assert np.array_equal(net.get_flat_params(), before)

    def test_epoch_decorrelates(self):
        net = _network()
        x, t = _batch()
        _, g0 = noisy_loss_and_gradient(
            net, x, t, model=JITTERY, trajectories=4, seed=9, epoch=0
        )
        _, g1 = noisy_loss_and_gradient(
            net, x, t, model=JITTERY, trajectories=4, seed=9, epoch=1
        )
        assert not np.array_equal(g0, g1)

    def test_bad_trajectories_rejected(self):
        net = _network()
        x, t = _batch()
        with pytest.raises(NoiseError):
            noisy_loss_and_gradient(
                net, x, t, model=JITTERY, trajectories=0, seed=0
            )


class TestTrainerWiring:
    def test_trainer_validates_noise(self):
        with pytest.raises(NoiseError):
            Trainer(noise="not-a-preset")
        with pytest.raises(TrainingError):
            Trainer(noise="mild", noise_trajectories=0)

    def test_noise_jitter_disables_fused_step(self):
        jittery = Trainer(noise="harsh", backend="fused")
        channel_only = Trainer(noise='{"dephasing": 0.05}', backend="fused")
        assert jittery._noise_jitter_active()
        assert not channel_only._noise_jitter_active()

    def test_noise_aware_training_is_deterministic(self):
        from repro.network.autoencoder import QuantumAutoencoder

        X = np.abs(np.random.default_rng(1).normal(size=(8, 16))) + 0.1

        def train_once():
            ae = QuantumAutoencoder(16, 4, 3, 3, backend="fused")
            ae.initialize("uniform", rng=np.random.default_rng(0))
            Trainer(
                iterations=3, backend="fused", noise="harsh",
                noise_trajectories=3,
            ).train(ae, X)
            return _ae_params(ae)

        assert np.array_equal(train_once(), train_once())

    def test_noise_aware_differs_from_blind(self):
        from repro.network.autoencoder import QuantumAutoencoder

        X = np.abs(np.random.default_rng(1).normal(size=(8, 16))) + 0.1

        def train_once(noise):
            ae = QuantumAutoencoder(16, 4, 3, 3, backend="fused")
            ae.initialize("uniform", rng=np.random.default_rng(0))
            Trainer(
                iterations=3, backend="fused", noise=noise,
                noise_trajectories=3,
            ).train(ae, X)
            return _ae_params(ae)

        assert not np.array_equal(train_once("harsh"), train_once(None))


@pytest.mark.slow
class TestPoolDeterminism:
    """The satellite contract: pool:2 == pool:4 == in-process, bitwise."""

    def test_pool_size_invariant_gradients(self):
        from repro.parallel.reducer import GradientReducer

        net = _network()
        x, t = _batch()
        kwargs = dict(model=JITTERY, trajectories=5, seed=3, epoch=2)
        ref_v, ref_g = noisy_loss_and_gradient(net, x, t, **kwargs)
        for workers in (2, 4):
            with GradientReducer(num_workers=workers) as reducer:
                v, g = reducer.noisy_loss_and_gradient(net, x, t, **kwargs)
            assert v == ref_v, workers
            assert np.array_equal(g, ref_g), workers

    def test_pool_trained_parameters_bitwise_equal(self):
        from repro.network.autoencoder import QuantumAutoencoder

        X = np.abs(np.random.default_rng(1).normal(size=(8, 16))) + 0.1

        def train_once(parallel):
            ae = QuantumAutoencoder(16, 4, 3, 3, backend="fused")
            ae.initialize("uniform", rng=np.random.default_rng(0))
            Trainer(
                iterations=2, backend="fused", noise="harsh",
                noise_trajectories=4, parallel=parallel,
            ).train(ae, X)
            return _ae_params(ae)

        single = train_once(None)
        assert np.array_equal(single, train_once("pool:2"))
        assert np.array_equal(single, train_once("pool:4"))
