"""Training-loop hooks.

Callbacks observe each iteration of the :class:`~repro.training.trainer.
Trainer` and can request an early stop by returning ``True`` from
``on_iteration_end``.  :class:`NaNGuard` aborts a diverging run; the Fig. 4
amplitude traces are recorded by ``Trainer(trace_sample=...)``, not by a
callback.
"""

from __future__ import annotations

import abc
import math

from repro.exceptions import TrainingError

__all__ = ["Callback", "NaNGuard"]


class Callback(abc.ABC):
    """Observer interface for training iterations."""

    def on_train_start(self, context: dict) -> None:  # pragma: no cover - hook
        """Called once before the first iteration."""

    @abc.abstractmethod
    def on_iteration_end(self, iteration: int, record: dict) -> bool:
        """Called after each iteration with the history record.

        Return ``True`` to request an early stop.
        """

    def on_train_end(self, context: dict) -> None:  # pragma: no cover - hook
        """Called once after the last iteration."""


class NaNGuard(Callback):
    """Abort training as soon as any monitored value becomes non-finite."""

    def __init__(self, keys: tuple[str, ...] = ("loss_c", "loss_r")) -> None:
        self.keys = keys

    def on_iteration_end(self, iteration: int, record: dict) -> bool:
        for key in self.keys:
            if key in record and not math.isfinite(float(record[key])):
                raise TrainingError(
                    f"{key} became non-finite at iteration {iteration}; "
                    "reduce the learning rate"
                )
        return False
