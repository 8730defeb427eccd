"""Parameter-update rules.

The paper uses plain gradient descent,
``theta(t+1) = theta(t) - eta * dL/dtheta`` (Eq. 9), with ``eta = 0.01``.
:class:`GradientDescent` implements it verbatim; :class:`MomentumGD` and
:class:`Adam` are provided for the optimizer ablation.  All three take one
fixed float learning rate.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from repro.exceptions import OptimizerError

__all__ = [
    "Optimizer",
    "GradientDescent",
    "MomentumGD",
    "Adam",
]


class Optimizer(abc.ABC):
    """Stateful parameter-update rule.

    Subclasses implement :meth:`step`, which consumes the current parameter
    vector and gradient and returns the updated parameters.  The iteration
    counter ``t`` feeds Adam's bias correction.
    """

    def __init__(self, lr: float) -> None:
        lr = float(lr)
        if not math.isfinite(lr) or lr <= 0:
            raise OptimizerError(f"lr must be positive and finite, got {lr}")
        self.lr = lr
        self.t = 0

    def _validate(self, params: np.ndarray, grad: np.ndarray) -> None:
        if params.shape != grad.shape:
            raise OptimizerError(
                f"params shape {params.shape} != grad shape {grad.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise OptimizerError(
                "gradient contains NaN/Inf — training has diverged"
            )

    @abc.abstractmethod
    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters; advances the internal step counter."""

    def reset(self) -> None:
        """Reset iteration counter and any moment state."""
        self.t = 0


class GradientDescent(Optimizer):
    """Plain GD: Eq. (9) of the paper.

    Examples
    --------
    >>> import numpy as np
    >>> opt = GradientDescent(lr=0.5)
    >>> opt.step(np.array([1.0]), np.array([1.0]))
    array([0.5])
    """

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._validate(params, grad)
        self.t += 1
        return params - self.lr * grad


class MomentumGD(Optimizer):
    """Heavy-ball momentum: ``v = mu*v - lr*g; theta += v``."""

    def __init__(self, lr: float, momentum: float = 0.9) -> None:
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise OptimizerError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        self.momentum = float(momentum)
        self._velocity: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._validate(params, grad)
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        elif self._velocity.shape != params.shape:
            raise OptimizerError("parameter shape changed mid-training")
        self.t += 1
        self._velocity = self.momentum * self._velocity - self.lr * grad
        return params + self._velocity

    def reset(self) -> None:
        super().reset()
        self._velocity = None


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise OptimizerError(
                f"betas must be in [0, 1), got {beta1}, {beta2}"
            )
        if eps <= 0:
            raise OptimizerError(f"eps must be positive, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self._validate(params, grad)
        if self._m is None or self._v is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        elif self._m.shape != params.shape:
            raise OptimizerError("parameter shape changed mid-training")
        self.t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad**2
        m_hat = self._m / (1 - self.beta1**self.t)
        v_hat = self._v / (1 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self) -> None:
        super().reset()
        self._m = None
        self._v = None
