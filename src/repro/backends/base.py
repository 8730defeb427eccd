"""The :class:`Backend` protocol and backend registry.

A backend turns a compiled :class:`~repro.backends.program.GateProgram`
into execution.  Backends are *bound* to one network at a time (binding
compiles the program once); the network delegates every forward pass to its
backend.  Backends may cache parameter-derived artefacts (fused unitaries,
prefix/suffix products) between calls, checked against the network's live
parameter array before each use.

Three backends ship with the package:

``"loop"``
    :class:`~repro.backends.loop.LoopBackend` — the bit-exact reference:
    the original two-row Givens kernel applied gate by gate.
``"fused"``
    :class:`~repro.backends.fused.FusedBackend` — materialises the whole
    network as one ``N x N`` unitary (cached per parameter set) and applies
    it as a single GEMM; also provides the prefix/suffix gradient workspace
    used to accelerate the ``fd``/``central`` methods.
``"sharded"``
    :class:`~repro.backends.sharded.ShardedBackend` — scatters wide
    ``(N, M)`` batches over a persistent multi-process
    :class:`~repro.parallel.pool.WorkerPool` in column shards, one fused
    GEMM per worker; small batches fall through to an in-process
    :class:`~repro.backends.fused.FusedBackend`.

Select a backend at construction (``QuantumNetwork(..., backend="fused")``)
or later via ``set_backend``; experiment configs and the CLI expose the same
choice (``--backend``).  A name may carry a ``:argument`` suffix parsed by
the backend class (``"sharded:4"`` pins four workers); backends that take
no argument reject the suffix.
"""

from __future__ import annotations

import abc
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Type, Union

import numpy as np

from repro.backends.program import GateProgram, compile_program
from repro.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.cached import PrefixSuffixWorkspace
    from repro.backends.fold import MeshLayers
    from repro.network.quantum_network import QuantumNetwork

__all__ = [
    "Backend",
    "available_backends",
    "make_backend",
    "register_backend",
    "validate_backend_name",
]


class Backend(abc.ABC):
    """Execution engine for one bound :class:`QuantumNetwork`.

    Subclasses implement :meth:`forward_inplace`; everything else has
    working defaults.  A backend instance belongs to exactly one network
    (``set_backend`` builds a fresh instance per network).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether :meth:`gradient_workspace` returns a usable workspace.
    supports_cached_gradients: bool = False

    def __init__(self) -> None:
        self._network: Optional["weakref.ref[QuantumNetwork]"] = None
        self._program: Optional[GateProgram] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, network: "QuantumNetwork") -> "Backend":
        """Attach to ``network`` and compile its gate program.

        Called by ``QuantumNetwork.set_backend``; binding twice to the
        same network is a no-op, re-binding to another network raises.

        Examples
        --------
        >>> from repro.network.quantum_network import QuantumNetwork
        >>> backend = make_backend("loop")
        >>> net = QuantumNetwork(4, 2, backend=backend)  # binds internally
        >>> backend.program.num_gates
        6
        >>> backend.network is net
        True
        """
        if self._network is not None and self._network() is not network:
            raise BackendError(
                f"backend {self.name!r} is already bound; backends are "
                "per-network — construct a new instance (or pass the "
                "backend name) instead of sharing one"
            )
        # Weak: the network owns its backend, and a strong reference back
        # would leave every network (and its fold caches) to the cyclic
        # garbage collector.
        self._network = weakref.ref(network)
        self._program = compile_program(network)
        return self

    @property
    def network(self) -> "QuantumNetwork":
        network = None if self._network is None else self._network()
        if network is None:
            raise BackendError(f"backend {self.name!r} is not bound")
        return network

    def __getstate__(self) -> dict:
        # Copies and pickles carry the network itself, so a deep copy of a
        # network binds the copied backend to the copied network.
        state = self.__dict__.copy()
        if self._network is not None:
            state["_network"] = self._network()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._network is not None:
            self._network = weakref.ref(self._network)

    @property
    def program(self) -> GateProgram:
        if self._program is None:
            raise BackendError(f"backend {self.name!r} is not bound")
        return self._program

    def spawn(self) -> "Backend":
        """A fresh, unbound backend configured like this one.

        Used when a network clones itself (``copy``/``reversed_structure``)
        and needs an equivalent backend for the clone.  Backends whose
        constructor takes configuration must override this to carry it
        over (and may share heavyweight resources — the sharded backend's
        spawns execute on the same worker pool).
        """
        return type(self)()

    @classmethod
    def from_spec(cls, arg: str) -> "Backend":
        """Build an instance from a ``name:arg`` registry spelling.

        The default rejects any argument; backends that are configurable
        from the registry string (``"sharded:4"``) override this to
        parse it.
        """
        raise BackendError(
            f"backend {cls.name!r} takes no ':' argument (got "
            f"{cls.name}:{arg})"
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def forward_inplace(self, data: np.ndarray, inverse: bool = False) -> None:
        """Apply the bound network (or its inverse) in place to ``(N, M)``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.network.quantum_network import QuantumNetwork
        >>> net = QuantumNetwork(3, 1, backend="loop")
        >>> data = np.eye(3)
        >>> net.backend.forward_inplace(data)           # U @ I
        >>> round_trip = data.copy()
        >>> net.backend.forward_inplace(round_trip, inverse=True)
        >>> bool(np.allclose(round_trip, np.eye(3)))
        True
        """

    def cached_mesh(self) -> Optional["MeshLayers"]:
        """The chain recurrence of the bound network at its current
        parameters if the backend already holds it (the ``fused`` fold
        cache), else ``None``.

        The adjoint sweep of :mod:`repro.training.gradients` reads it so a
        training step folds each parameter set once.
        """
        return None

    def gradient_workspace(
        self, inputs: np.ndarray
    ) -> Optional["PrefixSuffixWorkspace"]:
        """Prefix/suffix workspace for cached gradients, or ``None``.

        Backends that return ``None`` fall back to the reference
        re-execution path in :mod:`repro.training.gradients`; backends
        that return a workspace additionally serve the batched gradient
        engine (see ``docs/gradients.md``).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.network.quantum_network import QuantumNetwork
        >>> loop = QuantumNetwork(4, 2, backend="loop")
        >>> print(loop.backend.gradient_workspace(np.eye(4)))
        None
        >>> fused = QuantumNetwork(4, 2, backend="fused")
        >>> fused.backend.gradient_workspace(np.eye(4))
        PrefixSuffixWorkspace(gates=6, N=4, M=4, dtype=float64)
        """
        return None

    def __repr__(self) -> str:
        bound = "bound" if self._network is not None else "unbound"
        return f"{type(self).__name__}(name={self.name!r}, {bound})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Backend]] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator adding a backend to the name registry."""
    if not cls.name or cls.name == "abstract":
        raise BackendError(f"backend class {cls.__name__} must set a name")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Names accepted by :func:`make_backend` / ``set_backend``.

    Examples
    --------
    >>> available_backends()
    ['fused', 'loop', 'sharded']
    """
    return sorted(_REGISTRY)


def _resolve_spec_string(spec: str, error_cls: Type[Exception]) -> Backend:
    """Parse ``"name"`` / ``"name:arg"`` into a fresh backend instance."""
    key = str(spec).lower()
    base, sep, arg = key.partition(":")
    if base not in _REGISTRY:
        raise error_cls(
            f"unknown backend {spec!r}; available: {available_backends()}"
        )
    cls = _REGISTRY[base]
    try:
        if not sep:
            return cls()
        return cls.from_spec(arg)
    except BackendError as exc:
        # Re-raise under the caller's error class (config layers pass
        # e.g. ExperimentError) without losing the parse message.
        if error_cls is BackendError:
            raise
        raise error_cls(str(exc)) from None


def make_backend(spec: Union[str, Backend, Type[Backend]]) -> Backend:
    """Resolve a backend *specification* into a fresh, unbound instance.

    Accepts a registry name (``"loop"``, ``"fused"``, ``"sharded"`` —
    optionally with a class-parsed argument suffix like ``"sharded:4"``),
    a ``Backend`` subclass, or an existing unbound instance (passed
    through).

    Examples
    --------
    >>> make_backend("fused")
    FusedBackend(name='fused', unbound)
    >>> from repro.backends.loop import LoopBackend
    >>> make_backend(LoopBackend)
    LoopBackend(name='loop', unbound)
    >>> make_backend("sharded:2").worker_count
    2
    >>> make_backend("quantum-annealer")
    Traceback (most recent call last):
        ...
    repro.exceptions.BackendError: unknown backend 'quantum-annealer'; \
available: ['fused', 'loop', 'sharded']
    >>> make_backend("loop:3")
    Traceback (most recent call last):
        ...
    repro.exceptions.BackendError: backend 'loop' takes no ':' argument \
(got loop:3)
    """
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, type) and issubclass(spec, Backend):
        return spec()
    return _resolve_spec_string(spec, BackendError)


def validate_backend_name(
    name: str, error_cls: Type[Exception] = BackendError
) -> str:
    """Check ``name`` against the registry; returns the normalised name.

    The single source of truth for config/sweep-level validation — same
    case-insensitive lookup, ``:argument`` parsing and message as
    :func:`make_backend`, so the registry and its error never drift
    apart.  Callers in higher layers pass their own ``error_cls`` (e.g.
    ``ExperimentError``).

    Examples
    --------
    >>> validate_backend_name("SHARDED:4")
    'sharded:4'
    """
    _resolve_spec_string(name, error_cls)
    return str(name).lower()
