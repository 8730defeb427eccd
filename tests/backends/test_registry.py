"""The backend name registry: which names exist and how specs resolve."""

import numpy as np
import pytest

from repro.backends import (
    Backend,
    FusedBackend,
    LoopBackend,
    PrefixSuffixWorkspace,
    ShardedBackend,
    available_backends,
    make_backend,
    register_backend,
    validate_backend_name,
)
from repro.exceptions import BackendError, NetworkConfigError
from repro.network.quantum_network import QuantumNetwork

CLASSES = {"fused": FusedBackend, "loop": LoopBackend,
           "sharded": ShardedBackend}


def test_registered_names():
    assert available_backends() == ["fused", "loop", "sharded"]


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_names_are_case_insensitive(name):
    assert isinstance(make_backend(name.upper()), CLASSES[name])
    assert validate_backend_name(name.title()) == name


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_each_spec_builds_a_fresh_unbound_instance(name):
    first, second = make_backend(name), make_backend(name)
    assert first is not second
    assert "unbound" in repr(first)
    with pytest.raises(BackendError, match="not bound"):
        first.program


@pytest.mark.parametrize("spec", ["fused:2", "loop:x", "fused:parallel",
                                  "loop:"])
def test_plain_backends_reject_spec_argument(spec):
    with pytest.raises(BackendError, match="takes no ':' argument"):
        make_backend(spec)


@pytest.mark.parametrize("name", ["numba", "jax"])
def test_removed_backend_names_are_unknown(name):
    """Names of deleted backends fail like any unknown name, at
    selection and at spec validation, not with an ImportError."""
    from repro.api.spec import CodecSpec

    with pytest.raises(BackendError, match=f"unknown backend '{name}'"):
        make_backend(name)
    with pytest.raises(NetworkConfigError, match="unknown backend"):
        CodecSpec(backend=name)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_every_backend_round_trips(name):
    net = QuantumNetwork(5, 3, backend=name).initialize(
        "uniform", rng=np.random.default_rng(2)
    )
    data = np.random.default_rng(3).normal(size=(5, 4))
    out = data.copy()
    net.backend.forward_inplace(out)
    assert not np.allclose(out, data)
    net.backend.forward_inplace(out, inverse=True)
    assert np.allclose(out, data, atol=1e-12)


@pytest.mark.parametrize("name, cached", [("fused", True), ("loop", False),
                                          ("sharded", True)])
def test_gradient_workspace_by_backend(name, cached):
    net = QuantumNetwork(4, 2, backend=name)
    workspace = net.backend.gradient_workspace(np.eye(4))
    assert isinstance(workspace, PrefixSuffixWorkspace) is cached
    assert net.backend.supports_cached_gradients is cached


def test_backend_is_per_network():
    backend = make_backend("fused")
    QuantumNetwork(4, 2, backend=backend)
    with pytest.raises(BackendError, match="already bound"):
        QuantumNetwork(4, 2, backend=backend)


def test_register_backend_requires_name():
    class Nameless(Backend):
        def forward_inplace(self, data, inverse=False):
            pass

    with pytest.raises(BackendError, match="must set a name"):
        register_backend(Nameless)
    assert available_backends() == ["fused", "loop", "sharded"]
