"""Tests for the fused backend's caching, inspection, and error parity."""

import numpy as np
import pytest

from repro.backends import (
    FusedBackend,
    LoopBackend,
    available_backends,
    make_backend,
)
from repro.exceptions import BackendError, GateError
from repro.network import QuantumNetwork


def make_net(dim=5, layers=3, seed=2, **kwargs):
    return QuantumNetwork(dim, layers, backend="fused", **kwargs).initialize(
        "uniform", rng=np.random.default_rng(seed)
    )


class TestRegistry:
    def test_available(self):
        assert available_backends() == ["fused", "loop", "sharded"]

    def test_make_by_name(self):
        assert isinstance(make_backend("fused"), FusedBackend)
        assert isinstance(make_backend("LOOP"), LoopBackend)

    def test_spec_argument_rejected_without_parser(self):
        with pytest.raises(BackendError, match="takes no ':' argument"):
            make_backend("loop:3")
        with pytest.raises(BackendError, match="takes no ':' argument"):
            make_backend("fused:2")

    def test_make_by_class_and_instance(self):
        assert isinstance(make_backend(FusedBackend), FusedBackend)
        inst = FusedBackend()
        assert make_backend(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            make_backend("tensorflow")

    def test_backend_cannot_be_shared(self):
        net = make_net()
        with pytest.raises(BackendError, match="already bound"):
            QuantumNetwork(5, 3, backend=net.backend)

    def test_unbound_backend_rejects_use(self):
        with pytest.raises(BackendError, match="not bound"):
            FusedBackend().forward_inplace(np.eye(4))


class TestUnitaryCache:
    def test_unitary_matches_network(self):
        net = make_net()
        ref = QuantumNetwork(5, 3)
        ref.set_flat_params(net.get_flat_params())
        assert np.allclose(net.backend.unitary(), ref.unitary(), atol=1e-12)

    def test_layer_product_equals_network_unitary(self):
        net = make_net()
        prod = np.eye(net.dim)
        for lu in net.backend.layer_unitaries():
            prod = lu @ prod
        assert np.allclose(prod, net.backend.unitary(), atol=1e-12)

    def test_set_flat_params_invalidates(self):
        net = make_net()
        x = np.random.default_rng(0).normal(size=(5, 4))
        before = net.forward(x)
        params = net.get_flat_params()
        params[0] += 0.5
        net.set_flat_params(params)
        after = net.forward(x)
        assert not np.allclose(before, after)
        # And the refreshed result matches a fresh loop network.
        ref = QuantumNetwork(5, 3)
        ref.set_flat_params(params)
        assert np.allclose(after, ref.forward(x), atol=1e-12)

    def test_direct_theta_mutation_is_picked_up(self):
        """The cache validates against live parameters, not just invalidate()."""
        net = make_net()
        x = np.random.default_rng(0).normal(size=(5, 4))
        before = net.forward(x)
        net.layers[0].thetas[0] += 0.7  # bypasses set_flat_params
        after = net.forward(x)
        assert not np.allclose(before, after)
        ref = QuantumNetwork(5, 3)
        ref.set_flat_params(net.get_flat_params())
        assert np.allclose(after, ref.forward(x), atol=1e-12)

    def test_repeated_forward_is_consistent(self):
        net = make_net()
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert np.array_equal(net.forward(x), net.forward(x))


class TestErrorParity:
    def test_phase_network_real_buffer_raises(self):
        """Matches the loop kernel's GateError contract exactly."""
        net = QuantumNetwork(4, 2, allow_phase=True, backend="fused")
        params = net.get_flat_params()
        params[net.num_thetas :] = 0.3
        net.set_flat_params(params)
        buf = np.eye(4)  # real buffer, phase-bearing network
        with pytest.raises(GateError, match="complex state batch"):
            net.forward_inplace(buf)

    def test_zero_alpha_phase_network_real_buffer_ok(self):
        net = QuantumNetwork(4, 2, allow_phase=True, backend="fused")
        params = net.get_flat_params()
        params[: net.num_thetas] = np.random.default_rng(1).normal(
            size=net.num_thetas
        )
        net.set_flat_params(params)
        # alphas stay zero -> the network is real, real buffers are fine
        buf = np.eye(4)
        net.forward_inplace(buf)
        ref = QuantumNetwork(4, 2, allow_phase=True)
        ref.set_flat_params(net.get_flat_params())
        out = np.eye(4)
        ref.forward_inplace(out)
        assert np.allclose(buf, out, atol=1e-12)


class TestWorkspace:
    def test_base_output_matches_loop_forward(self):
        # The workspace assembles the forward pass from per-layer GEMMs
        # (vectorised construction), so it agrees with the loop kernel to
        # rounding rather than bitwise.
        net = make_net()
        x = np.random.default_rng(3).normal(size=(5, 6))
        ws = net.backend.gradient_workspace(x)
        loop = QuantumNetwork(5, 3)
        loop.set_flat_params(net.get_flat_params())
        assert np.allclose(ws.base_output, loop.forward(x), atol=1e-14)

    def test_perturbed_output_matches_full_rerun(self):
        net = make_net()
        x = np.random.default_rng(3).normal(size=(5, 6))
        ws = net.backend.gradient_workspace(x)
        delta = 1e-4
        for i in [0, 3, net.num_parameters - 1]:
            params = net.get_flat_params()
            params[i] += delta
            ref = QuantumNetwork(5, 3)
            ref.set_flat_params(params)
            assert np.allclose(
                ws.perturbed_outputs([i], delta)[0], ref.forward(x),
                atol=1e-12,
            )

    def test_bad_param_index_raises(self):
        from repro.exceptions import GradientError

        net = make_net()
        ws = net.backend.gradient_workspace(np.eye(5))
        with pytest.raises(GradientError, match="must lie in"):
            ws.perturbed_outputs([net.num_parameters], 1e-8)

    def test_bad_input_shape_raises(self):
        net = make_net()
        with pytest.raises(BackendError, match="inputs must be"):
            net.backend.gradient_workspace(np.eye(4))

    def test_loop_backend_has_no_workspace(self):
        net = QuantumNetwork(5, 3)
        assert not net.backend.supports_cached_gradients
        assert net.backend.gradient_workspace(np.eye(5)) is None
