"""The :class:`NoiseModel`: one frozen description of hardware imperfection.

The paper (Section V) trains and evaluates in an exact statevector
simulator and explicitly defers physical effects.  This module promotes
those effects from one-off ablation knobs into a single first-class value
that every execution path understands:

- ``theta_sigma`` — per-gate angle miscalibration: each beamsplitter angle
  is off by ``eps ~ N(0, theta_sigma^2)``.  A fabricated mesh has *frozen*
  errors, so a realization draws one ``eps`` per gate, not per shot.
- ``loss_per_gate`` — per-gate insertion loss: each gate transmits a
  fraction ``1 - loss_per_gate`` of the light in its two modes
  (single-photon amplitude damping, ``keep = sqrt(1 - loss)`` per mode).
- ``dephasing`` — global dephasing strength ``p`` applied to the
  compressed state on the wire between ``U_C`` and ``U_R``
  (:func:`repro.noise.density.dephasing_channel`).
- ``depolarizing`` — global depolarizing strength applied at the same
  point (:func:`repro.noise.density.depolarizing_channel`).
- ``shots`` — finite measurement statistics at readout; ``None`` is the
  paper's exact (infinite-shot) regime.

The model is a frozen dataclass with a canonical JSON round trip
(:meth:`NoiseModel.to_json` / :meth:`NoiseModel.from_json`) so it can ride
inside a :class:`~repro.api.spec.CodecSpec`, a CLI flag or a checkpoint
without loss.  :meth:`NoiseModel.from_spec` accepts every surface syntax
(preset name, JSON object string, dict, model, ``None``).

Two execution paths consume it — see :mod:`repro.noise.density` (exact,
small) and :mod:`repro.noise.trajectory` (sampled, scalable) and the
contract notes in ``docs/noise.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, Mapping, Optional, Union

from repro.exceptions import NoiseError

__all__ = ["NoiseModel", "NOISE_PRESETS", "noise_preset"]


def _check_fraction(name: str, value: float, *, upper_open: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise NoiseError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise NoiseError(f"{name} must be finite, got {out!r}")
    if out < 0.0:
        raise NoiseError(f"{name} must be >= 0, got {out!r}")
    if upper_open:
        if out >= 1.0:
            raise NoiseError(f"{name} must be < 1, got {out!r}")
    elif out > 1.0:
        raise NoiseError(f"{name} must be <= 1, got {out!r}")
    return out


@dataclasses.dataclass(frozen=True)
class NoiseModel:
    """Frozen, JSON-round-trippable description of hardware noise.

    >>> model = NoiseModel(theta_sigma=0.01, dephasing=0.05)
    >>> model.is_ideal
    False
    >>> NoiseModel.from_json(model.to_json()) == model
    True
    >>> NoiseModel.from_spec("mild").shots
    8192
    """

    theta_sigma: float = 0.0
    loss_per_gate: float = 0.0
    dephasing: float = 0.0
    depolarizing: float = 0.0
    shots: Optional[int] = None

    def __post_init__(self) -> None:
        sigma = self.theta_sigma
        try:
            sigma = float(sigma)
        except (TypeError, ValueError):
            raise NoiseError(
                f"theta_sigma must be a real number, got {sigma!r}"
            ) from None
        if not math.isfinite(sigma) or sigma < 0.0:
            raise NoiseError(f"theta_sigma must be finite and >= 0, got {sigma!r}")
        object.__setattr__(self, "theta_sigma", sigma)
        object.__setattr__(
            self,
            "loss_per_gate",
            _check_fraction("loss_per_gate", self.loss_per_gate, upper_open=True),
        )
        object.__setattr__(
            self, "dephasing", _check_fraction("dephasing", self.dephasing)
        )
        object.__setattr__(
            self, "depolarizing", _check_fraction("depolarizing", self.depolarizing)
        )
        shots = self.shots
        if shots is not None:
            if isinstance(shots, bool) or not isinstance(shots, int):
                raise NoiseError(f"shots must be None or a positive int, got {shots!r}")
            if shots < 1:
                raise NoiseError(f"shots must be None or >= 1, got {shots!r}")
            object.__setattr__(self, "shots", int(shots))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_ideal(self) -> bool:
        """True when every channel is off and measurement is exact."""
        return (
            self.theta_sigma == 0.0
            and self.loss_per_gate == 0.0
            and self.dephasing == 0.0
            and self.depolarizing == 0.0
            and self.shots is None
        )

    @property
    def has_channel_noise(self) -> bool:
        """True when any state-level channel (not just shots) is active."""
        return (
            self.theta_sigma > 0.0
            or self.loss_per_gate > 0.0
            or self.dephasing > 0.0
            or self.depolarizing > 0.0
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """A model with every channel strength multiplied by ``factor``.

        ``shots`` is kept as-is (it is a sampling budget, not a strength).
        Used to sweep degradation curves: ``model.scaled(0.5)`` is "half
        as noisy" along every axis simultaneously.

        >>> NoiseModel(dephasing=0.4, shots=100).scaled(0.5)
        NoiseModel(theta_sigma=0.0, loss_per_gate=0.0, dephasing=0.2, depolarizing=0.0, shots=100)
        """
        try:
            f = float(factor)
        except (TypeError, ValueError):
            raise NoiseError(f"scale factor must be a number, got {factor!r}") from None
        if not math.isfinite(f) or f < 0.0:
            raise NoiseError(f"scale factor must be finite and >= 0, got {factor!r}")
        return NoiseModel(
            theta_sigma=self.theta_sigma * f,
            loss_per_gate=min(self.loss_per_gate * f, math.nextafter(1.0, 0.0)),
            dephasing=min(self.dephasing * f, 1.0),
            depolarizing=min(self.depolarizing * f, 1.0),
            shots=self.shots,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe values only)."""
        return {
            "theta_sigma": self.theta_sigma,
            "loss_per_gate": self.loss_per_gate,
            "dephasing": self.dephasing,
            "depolarizing": self.depolarizing,
            "shots": self.shots,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "NoiseModel":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, Mapping):
            raise NoiseError(f"noise dict must be a mapping, got {type(payload).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise NoiseError(
                f"unknown noise field(s) {unknown}; known fields: {sorted(known)}"
            )
        return cls(**dict(payload))

    def to_json(self) -> str:
        """Canonical compact JSON form (sorted keys, minimal separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "NoiseModel":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NoiseError(f"invalid noise JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise NoiseError(
                f"noise JSON must encode an object, got {type(payload).__name__}"
            )
        return cls.from_dict(payload)

    def spec_string(self) -> str:
        """The canonical string a :class:`CodecSpec` stores: the preset name
        when the model matches a preset exactly, else canonical JSON."""
        for name, preset in NOISE_PRESETS.items():
            if preset == self:
                return name
        return self.to_json()

    @classmethod
    def from_spec(
        cls, value: Union[None, str, Mapping[str, Any], "NoiseModel"]
    ) -> Optional["NoiseModel"]:
        """Normalise any user-facing noise spec to a model (or ``None``).

        Accepts ``None``, an existing model, a preset name
        (``mild | lossy | harsh``), a JSON object string or a plain dict.

        >>> NoiseModel.from_spec(None) is None
        True
        >>> NoiseModel.from_spec('{"dephasing": 0.05}').dephasing
        0.05
        >>> NoiseModel.from_spec("harsh").theta_sigma
        0.08
        """
        if value is None:
            return None
        if isinstance(value, NoiseModel):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if isinstance(value, str):
            text = value.strip()
            if not text:
                return None
            if text.startswith("{"):
                return cls.from_json(text)
            return noise_preset(text)
        raise NoiseError(
            "noise spec must be None, a NoiseModel, a preset name, a JSON "
            f"object string or a dict, got {type(value).__name__}"
        )


#: Named severity presets.  ``mild`` is a plausible well-calibrated
#: photonic chip; ``lossy`` adds realistic insertion loss; ``harsh`` is a
#: stress configuration where degradation must stay graceful, not cliff.
NOISE_PRESETS: Dict[str, NoiseModel] = {
    "mild": NoiseModel(
        theta_sigma=0.01,
        loss_per_gate=0.001,
        dephasing=0.02,
        depolarizing=0.01,
        shots=8192,
    ),
    "lossy": NoiseModel(
        theta_sigma=0.02,
        loss_per_gate=0.01,
        dephasing=0.05,
        depolarizing=0.02,
        shots=4096,
    ),
    "harsh": NoiseModel(
        theta_sigma=0.08,
        loss_per_gate=0.03,
        dephasing=0.15,
        depolarizing=0.10,
        shots=1024,
    ),
}


def noise_preset(name: str) -> NoiseModel:
    """Look up a preset by name; raises :class:`NoiseError` on unknown names."""
    try:
        return NOISE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(NOISE_PRESETS))
        raise NoiseError(f"unknown noise preset {name!r}; known presets: {known}") from None
