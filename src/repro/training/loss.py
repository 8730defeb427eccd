"""Loss functions (Eq. 5 of the paper).

The paper's "complete square variance" loss is the squared error between
output and target amplitudes, summed over basis states and samples:

.. math::

    L_C = \\sum_{j=0}^{N-1} \\sum_{i=1}^{M} (a_i^j - b_i^j)^2, \\qquad
    L_R = \\sum_{j=0}^{N-1} \\sum_{i=1}^{M} (B_i^j - A_i^j)^2

Algorithm 1 normalises gradients by ``M x N`` (a mean), while Fig. 4c plots
the raw sums; :class:`SquaredErrorLoss` exposes both via ``reduction``.

Every loss implements ``value(output, target)`` and the output-side
gradient ``dvalue(output, target) = dL/d(output)``, which is all the
gradient engines in :mod:`repro.training.gradients` need, so any
:class:`Loss` subclass works with every training method unchanged.
"""

from __future__ import annotations

import abc
from typing import Literal

import numpy as np

from repro.exceptions import DimensionError, TrainingError

__all__ = [
    "Loss",
    "SquaredErrorLoss",
]

Reduction = Literal["sum", "mean"]


def _check_pair(output: np.ndarray, target: np.ndarray) -> None:
    if output.shape != target.shape:
        raise DimensionError(
            f"output shape {output.shape} != target shape {target.shape}"
        )
    if output.ndim not in (1, 2):
        raise DimensionError(
            f"loss expects (N,) or (N, M) arrays, got shape {output.shape}"
        )


class Loss(abc.ABC):
    """Interface: scalar ``value`` and output-side derivative ``dvalue``."""

    @abc.abstractmethod
    def value(self, output: np.ndarray, target: np.ndarray) -> float:
        """Scalar loss."""

    @abc.abstractmethod
    def dvalue(self, output: np.ndarray, target: np.ndarray) -> np.ndarray:
        """``dL/d(output)`` with the same shape as ``output``."""

    def value_many(
        self,
        outputs: np.ndarray,
        target: np.ndarray,
        keep: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Vectorised :meth:`value` over a stacked ``(K, N, M)`` batch.

        Used by the batched gradient engine
        (:mod:`repro.training.gradients`) to score all of a layer's
        perturbed outputs against one target in a single call.

        When ``keep`` (a boolean ``(N,)`` mask) is given, ``outputs`` is
        the *restricted* ``(K, d, M)`` stack holding only the kept rows of
        projected outputs whose discarded rows are identically zero (the
        form :meth:`PrefixSuffixWorkspace.perturbed_outputs` produces);
        ``target`` stays full-size.  The default implementation embeds the
        restricted rows back into zero-padded full outputs and loops over
        the leading axis; subclasses override with fully vectorised
        reductions.
        """
        outs = np.asarray(outputs)
        if keep is not None:
            mask = np.asarray(keep, dtype=bool)
            full = np.zeros(
                (outs.shape[0], mask.size) + outs.shape[2:], dtype=outs.dtype
            )
            full[:, mask] = outs
            outs = full
        return np.array(
            [self.value(outs[k], target) for k in range(outs.shape[0])]
        )


class SquaredErrorLoss(Loss):
    """Eq. (5): complete square variance over amplitudes.

    Parameters
    ----------
    reduction:
        ``"sum"`` — the paper's Eq. (5) (used for reporting, Fig. 4c);
        ``"mean"`` — Algorithm 1's ``/(M*N)`` normalisation (used inside
        the gradient update so the learning rate is sample-count
        independent).

    Examples
    --------
    >>> import numpy as np
    >>> loss = SquaredErrorLoss()
    >>> loss.value(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    1.0
    """

    def __init__(self, reduction: Reduction = "sum") -> None:
        if reduction not in ("sum", "mean"):
            raise TrainingError(
                f"reduction must be 'sum' or 'mean', got {reduction!r}"
            )
        self.reduction = reduction

    def _scale(self, output: np.ndarray) -> float:
        return 1.0 / output.size if self.reduction == "mean" else 1.0

    def value(self, output: np.ndarray, target: np.ndarray) -> float:
        _check_pair(output, target)
        diff = output - target
        if np.iscomplexobj(diff):
            total = float(np.sum(np.abs(diff) ** 2))
        else:
            total = float(np.dot(diff.ravel(), diff.ravel()))
        return total * self._scale(output)

    def dvalue(self, output: np.ndarray, target: np.ndarray) -> np.ndarray:
        _check_pair(output, target)
        return 2.0 * (output - target) * self._scale(output)

    def value_many(
        self,
        outputs: np.ndarray,
        target: np.ndarray,
        keep: "np.ndarray | None" = None,
    ) -> np.ndarray:
        outs = np.asarray(outputs)
        tgt = np.asarray(target)
        rest = 0.0
        if keep is not None:
            # Restricted stacks: the discarded rows of the (projected)
            # outputs are zero, so they contribute a constant |target|^2.
            mask = np.asarray(keep, dtype=bool)
            dropped = tgt[~mask]
            rest = float(np.real(np.vdot(dropped, dropped)))
            tgt = tgt[mask]
        if outs.ndim != tgt.ndim + 1 or outs.shape[1:] != tgt.shape:
            raise DimensionError(
                f"stacked outputs shape {outs.shape} incompatible with "
                f"target shape {tgt.shape}"
            )
        diff = outs - tgt[None, ...]
        axes = tuple(range(1, diff.ndim))
        if np.iscomplexobj(diff):
            totals = np.sum(np.abs(diff) ** 2, axis=axes)
        else:
            totals = np.sum(diff * diff, axis=axes)
        return (totals + rest) * self._scale(np.asarray(target))
