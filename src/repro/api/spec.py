""":class:`CodecSpec` — the single frozen description of a codec.

Before this module existed the knobs of the paper's pipeline were split
between two surfaces: the *network* knobs (``dim``, ``compressed_dim``,
layer counts, ``allow_phase``, ``renormalize``, the projection) lived in
``QuantumAutoencoder``'s constructor, while the *execution* knobs
(``backend``, gradient method, optimizer, loss mode) lived in
:class:`~repro.experiments.config.PaperConfig` and ``Trainer`` keyword
arguments.  ``CodecSpec`` unifies both into one frozen, hashable,
JSON-round-trippable dataclass; :class:`~repro.api.codec.Codec` is
configured by it, checkpoints embed it, and ``PaperConfig`` now builds its
autoencoder and trainer *through* it (thin-layer delegation), so there is
exactly one code path from a description to a runnable pipeline.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import (
    Literal,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.exceptions import NetworkConfigError
from repro.network.autoencoder import QuantumAutoencoder
from repro.network.projection import Projection

__all__ = ["CodecSpec"]

OptimizerName = Literal["gd", "momentum", "adam"]
TargetName = Literal["pca", "restrict", "uniform"]
LossMode = Literal["sum", "mean"]


def _fits(value, hint) -> bool:
    """Whether a decoded JSON ``value`` has the type of annotation
    ``hint`` (a ``bool`` is no number here; an integer is a float)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(item, args[0]) for item in value
        )
    if origin is Literal:
        hint = type(args[0])
    if hint is bool:
        return isinstance(value, (bool, np.bool_))
    if isinstance(value, (bool, np.bool_)):
        return False
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, hint)


@dataclass(frozen=True)
class CodecSpec:
    """Every knob of a compression/reconstruction codec, paper defaults.

    The first block mirrors the network architecture (Eqs. 3-4), the
    second the execution/training stack layered on it since PR 1-2.
    Instances are immutable — use :meth:`with_` for functional updates —
    and serialise losslessly via :meth:`to_dict` / :meth:`from_dict`.

    Examples
    --------
    >>> spec = CodecSpec()
    >>> spec.dim, spec.compressed_dim, spec.compression_layers
    (16, 4, 12)
    >>> spec.with_(backend="fused").backend
    'fused'
    >>> CodecSpec.from_dict(spec.to_dict()) == spec
    True
    """

    # -- network (Eqs. 3-4, Fig. 1) ------------------------------------
    dim: int = 16
    compressed_dim: int = 4
    compression_layers: int = 12
    reconstruction_layers: int = 14
    allow_phase: bool = False
    renormalize: bool = False
    #: Kept basis-state indices of ``P1``; ``None`` means the paper's
    #: default layout (the *last* ``compressed_dim`` states).
    projection: Optional[Tuple[int, ...]] = None

    # -- execution / training ------------------------------------------
    backend: str = "loop"
    gradient_method: str = "adjoint"
    optimizer: OptimizerName = "momentum"
    learning_rate: float = 0.01
    momentum: float = 0.9
    iterations: int = 150
    loss_mode: LossMode = "sum"
    target: TargetName = "pca"
    seed: int = 2024
    #: Mini-batch size per gradient step; ``None`` = full batch (the
    #: paper's regime).
    batch_size: Optional[int] = None
    #: Data-parallel gradient execution: ``None`` (single-process),
    #: ``"pool"`` or ``"pool:K"`` — see ``Trainer(parallel=...)``.
    parallel: Optional[str] = None

    # -- hardware-noise model (repro.noise) -----------------------------
    #: Channel description for noise-aware training and noisy evaluation:
    #: ``None`` (ideal), a preset name (``"mild" | "lossy" | "harsh"``) or
    #: a :meth:`repro.noise.NoiseModel.to_json` string.  Stored in the
    #: canonical form of :meth:`~repro.noise.NoiseModel.spec_string` so
    #: equal models compare equal as specs.
    noise: Optional[str] = None
    #: Jitter realizations averaged per gradient step when ``noise`` has
    #: ``theta_sigma > 0`` — see ``Trainer(noise_trajectories=...)``.
    noise_trajectories: int = 8

    # -- imaging front-end (repro.imaging, wire format v2) --------------
    #: Tile side ``T`` of the image pipeline; ``None`` means
    #: ``sqrt(dim)`` (the codec eats one ``T^2``-vector per tile).
    tile_size: Optional[int] = None
    #: Per-tile transform: ``"dct"`` (zig-zag ordered) or ``"pixel"``.
    tile_transform: str = "dct"
    #: JPEG-style quality knob (1-100) for the coefficient quantizer.
    tile_quality: int = 75
    #: Tile padding for non-multiple image dims: ``"edge"`` or ``"zero"``.
    tile_pad: str = "edge"
    #: Signed bits per quantized code amplitude on the image wire.
    code_bits: int = 8

    def __post_init__(self) -> None:
        if self.compressed_dim >= self.dim:
            raise NetworkConfigError(
                f"compressed_dim={self.compressed_dim} must be < "
                f"dim={self.dim}"
            )
        if self.iterations < 1:
            raise NetworkConfigError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        if not 0 < self.learning_rate < float("inf"):
            raise NetworkConfigError(
                f"learning_rate must be positive and finite, got "
                f"{self.learning_rate}"
            )
        if self.seed < 0:
            raise NetworkConfigError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("gd", "momentum", "adam"):
            raise NetworkConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.target not in ("pca", "restrict", "uniform"):
            raise NetworkConfigError(f"unknown target {self.target!r}")
        if self.loss_mode not in ("sum", "mean"):
            raise NetworkConfigError(
                f"loss_mode must be 'sum' or 'mean', got {self.loss_mode!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise NetworkConfigError(
                f"batch_size must be >= 1 or None, got {self.batch_size}"
            )
        from repro.parallel.reducer import validate_parallel_spec

        object.__setattr__(
            self,
            "parallel",
            validate_parallel_spec(self.parallel, NetworkConfigError),
        )
        # Noise spec normalizes to NoiseModel's canonical string so two
        # specs describing the same channels hash/compare equal.
        from repro.exceptions import NoiseError
        from repro.noise.model import NoiseModel

        try:
            model = NoiseModel.from_spec(self.noise)
        except NoiseError as exc:
            raise NetworkConfigError(f"invalid noise spec: {exc}") from exc
        object.__setattr__(
            self, "noise", None if model is None else model.spec_string()
        )
        if not isinstance(self.noise_trajectories, int) or isinstance(
            self.noise_trajectories, bool
        ) or self.noise_trajectories < 1:
            raise NetworkConfigError(
                "noise_trajectories must be an int >= 1, got "
                f"{self.noise_trajectories!r}"
            )
        # Imaging front-end knobs (validated here so a spec embedded in a
        # checkpoint can never describe an unusable image pipeline).
        from repro.imaging.tiler import PAD_MODES
        from repro.imaging.transform import TRANSFORMS

        if self.tile_size is not None:
            tile = int(self.tile_size)
            if tile < 1:
                raise NetworkConfigError(
                    f"tile_size must be >= 1 or None, got {self.tile_size}"
                )
            if tile * tile != self.dim:
                raise NetworkConfigError(
                    f"tile_size^2 = {tile * tile} must equal dim="
                    f"{self.dim} (one tile vector per codec input)"
                )
            object.__setattr__(self, "tile_size", tile)
        if self.tile_transform not in TRANSFORMS:
            raise NetworkConfigError(
                f"tile_transform must be one of {TRANSFORMS}, got "
                f"{self.tile_transform!r}"
            )
        if not 1 <= self.tile_quality <= 100:
            raise NetworkConfigError(
                f"tile_quality must be in [1, 100], got {self.tile_quality}"
            )
        if self.tile_pad not in PAD_MODES:
            raise NetworkConfigError(
                f"tile_pad must be one of {PAD_MODES}, got {self.tile_pad!r}"
            )
        if not 2 <= self.code_bits <= 16:
            raise NetworkConfigError(
                f"code_bits must be in [2, 16], got {self.code_bits}"
            )
        if self.projection is not None:
            object.__setattr__(
                self, "projection", tuple(int(k) for k in self.projection)
            )
            if len(self.projection) != self.compressed_dim:
                raise NetworkConfigError(
                    f"projection keeps {len(self.projection)} dims but "
                    f"compressed_dim={self.compressed_dim}"
                )
        # Registry-backed names validate against their single source of
        # truth; Projection re-checks index bounds.
        from repro.backends import validate_backend_name
        from repro.training.gradients import available_gradient_methods

        validate_backend_name(self.backend, NetworkConfigError)
        if self.gradient_method not in available_gradient_methods():
            raise NetworkConfigError(
                f"unknown gradient method {self.gradient_method!r}; "
                f"available: {available_gradient_methods()}"
            )
        self.build_projection()

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "CodecSpec":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serialisable mapping; inverse of :meth:`from_dict`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["projection"] is not None:
            out["projection"] = list(out["projection"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CodecSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys are rejected (a checkpoint from a newer format should
        fail loudly, not half-load), and so is a value whose JSON type
        does not fit its field.  ``grad_engine``, a removed field that
        older checkpoints carry, is dropped when it holds one of the two
        values it accepted (``"batched"``, ``"looped"``); a stored
        ``gradient_method="derivative"`` (a removed method that computed
        the same exact gradient) loads as ``"adjoint"``.

        >>> CodecSpec.from_dict({"dim": "4"})
        Traceback (most recent call last):
            ...
        repro.exceptions.NetworkConfigError: CodecSpec field 'dim' does \
not accept '4'
        """
        if not isinstance(data, dict):
            raise NetworkConfigError(
                f"a CodecSpec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        kwargs = dict(data)
        legacy = kwargs.pop("grad_engine", "batched")
        if legacy not in ("batched", "looped"):
            raise NetworkConfigError(
                f"unknown gradient engine {legacy!r}; checkpoints carried "
                "'batched' or 'looped'"
            )
        if kwargs.get("gradient_method") == "derivative":
            kwargs["gradient_method"] = "adjoint"
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise NetworkConfigError(
                f"unknown CodecSpec fields {sorted(unknown)}"
            )
        hints = get_type_hints(cls)
        for name, value in kwargs.items():
            if not _fits(value, hints[name]):
                raise NetworkConfigError(
                    f"CodecSpec field {name!r} does not accept {value!r}"
                )
        if kwargs.get("projection") is not None:
            kwargs["projection"] = tuple(kwargs["projection"])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # factories — the one code path from description to runnable objects
    # ------------------------------------------------------------------
    def build_projection(self) -> Projection:
        """The ``P1`` this spec describes."""
        if self.projection is None:
            return Projection.last(self.dim, self.compressed_dim)
        return Projection(self.dim, self.projection)

    def build_noise_model(self):
        """The :class:`~repro.noise.NoiseModel` this spec describes.

        ``None`` when the spec is ideal (``noise=None``).
        """
        from repro.noise.model import NoiseModel

        return NoiseModel.from_spec(self.noise)

    def build_autoencoder(self) -> QuantumAutoencoder:
        """A fresh autoencoder, parameters initialised from ``seed``."""
        ae = QuantumAutoencoder(
            dim=self.dim,
            compressed_dim=self.compressed_dim,
            compression_layers=self.compression_layers,
            reconstruction_layers=self.reconstruction_layers,
            projection=(
                None if self.projection is None else self.build_projection()
            ),
            allow_phase=self.allow_phase,
            backend=self.backend,
            renormalize=self.renormalize,
        )
        ae.initialize("uniform", rng=np.random.default_rng(self.seed))
        return ae

    def build_optimizer(self):
        """A fresh optimizer per network (Algorithm 1 trains two)."""
        from repro.training.optimizers import Adam, GradientDescent, MomentumGD

        if self.optimizer == "gd":
            return GradientDescent(self.learning_rate)
        if self.optimizer == "momentum":
            return MomentumGD(self.learning_rate, self.momentum)
        # The 5x factor is the PaperConfig calibration: Adam at the raw
        # paper eta undershoots the Fig. 4c losses in 150 iterations.
        return Adam(self.learning_rate * 5.0)

    def build_trainer(
        self,
        record_theta_every: Optional[int] = 1,
        trace_sample: Optional[int] = None,
    ):
        """A :class:`~repro.training.trainer.Trainer` wired to this spec."""
        from repro.training.trainer import Trainer

        return Trainer(
            iterations=self.iterations,
            learning_rate=self.learning_rate,
            gradient_method=self.gradient_method,
            backend=self.backend,
            optimizer_factory=self.build_optimizer,
            trace_sample=trace_sample,
            record_theta_every=record_theta_every,
            update_reduction=self.loss_mode,
            batch_size=self.batch_size,
            parallel=self.parallel,
            noise=self.noise,
            noise_trajectories=self.noise_trajectories,
        )

    def build_target_strategy(
        self, autoencoder: QuantumAutoencoder, X: np.ndarray
    ):
        """The compression-target strategy ``fit`` trains against."""
        from repro.network.targets import (
            TruncatedInputTarget,
            UniformSubspaceTarget,
        )

        if self.target == "pca":
            return TruncatedInputTarget.from_pca(autoencoder.projection, X)
        if self.target == "restrict":
            return TruncatedInputTarget(autoencoder.projection)
        return UniformSubspaceTarget(autoencoder.projection)

    @classmethod
    def from_paper_config(cls, config) -> "CodecSpec":
        """Lift a :class:`~repro.experiments.config.PaperConfig` into a spec.

        Duck-typed on the config's attributes so this module never imports
        the experiments layer (which imports *us*).
        """
        return cls(
            dim=config.dim,
            compressed_dim=config.compressed_dim,
            compression_layers=config.compression_layers,
            reconstruction_layers=config.reconstruction_layers,
            allow_phase=config.allow_phase,
            backend=config.backend,
            gradient_method=config.gradient_method,
            optimizer=config.optimizer,
            learning_rate=config.learning_rate,
            momentum=config.momentum,
            iterations=config.iterations,
            target=config.target,
            seed=config.seed,
            batch_size=getattr(config, "batch_size", None),
            parallel=getattr(config, "parallel", None),
            noise=getattr(config, "noise", None),
            noise_trajectories=getattr(config, "noise_trajectories", 8),
        )
