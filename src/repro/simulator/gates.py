"""Two-mode beamsplitter / Givens gates (Fig. 2 of the paper).

The paper's quantum network is built exclusively from lossless beamsplitter
gates ``U^(k,k+1)(theta, alpha)`` acting on adjacent modes ``k`` and
``k+1``.  We follow the Clements et al. (ref. [19]) convention

.. math::

    T(\\theta, \\alpha) =
    \\begin{pmatrix} e^{i\\alpha}\\cos\\theta & -\\sin\\theta \\\\
                     e^{i\\alpha}\\sin\\theta & \\cos\\theta \\end{pmatrix}

which for ``alpha = 0`` — the setting used throughout the paper — reduces to
the real Givens rotation ``[[c, -s], [s, c]]``.  The derivative with respect
to ``theta`` is the rotation advanced by ``pi/2``; this underlies both the
parameter-shift rule and the analytic adjoint gradients in
:mod:`repro.training.gradients`.

The free function :func:`apply_givens_batch` is the batched in-place
kernel used by the network's hot loop: each gate touches exactly two
contiguous rows of the ``(N, M)`` state matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import GateError

__all__ = ["BeamsplitterGate", "apply_givens_batch"]


def apply_givens_batch(
    data: np.ndarray,
    k: int,
    theta: float,
    alpha: float = 0.0,
    inverse: bool = False,
) -> None:
    """In-place application of ``T(theta, alpha)`` to rows ``k, k+1``.

    ``data`` is the ``(N, M)`` column-states matrix.  With ``inverse=True``
    the conjugate transpose ``T^dagger`` is applied instead.  The kernel is
    allocation-light: one temporary row per call, vectorised over samples.

    Raises
    ------
    GateError
        If ``k`` is out of range or ``alpha != 0`` is requested on a real
        (float) state matrix.
    """
    n = data.shape[0]
    if not 0 <= k < n - 1:
        raise GateError(f"gate mode {k} out of range for dimension {n}")
    c = math.cos(theta)
    s = math.sin(theta)
    if alpha == 0.0:
        rk = data[k].copy()
        rk1 = data[k + 1]
        if not inverse:
            # [[c, -s], [s, c]]
            data[k] = c * rk - s * rk1
            data[k + 1] = s * rk + c * rk1
        else:
            # transpose: [[c, s], [-s, c]]
            data[k] = c * rk + s * rk1
            data[k + 1] = -s * rk + c * rk1
        return
    if not np.issubdtype(data.dtype, np.complexfloating):
        raise GateError(
            "a non-zero phase alpha requires a complex state batch; the "
            "paper's real network fixes alpha = 0 (Section III-A)"
        )
    phase = complex(math.cos(alpha), math.sin(alpha))
    rk = data[k].copy()
    rk1 = data[k + 1]
    if not inverse:
        # [[e^{ia} c, -s], [e^{ia} s, c]]
        data[k] = phase * c * rk - s * rk1
        data[k + 1] = phase * s * rk + c * rk1
    else:
        # conjugate transpose: [[e^{-ia} c, e^{-ia} s], [-s, c]]
        pc = phase.conjugate()
        data[k] = pc * c * rk + pc * s * rk1
        data[k + 1] = -s * rk + c * rk1


@dataclass(frozen=True)
class BeamsplitterGate:
    """The two-mode gate ``U^(k,k+1)(theta, alpha)`` of Fig. 2.

    Parameters
    ----------
    mode:
        Index ``k`` of the first of the two adjacent modes (0-based).
    theta:
        Reflectivity parameter; the paper constrains trained values to
        ``[0, 2*pi)`` in Fig. 4g and physical reflectivity ``cos(theta)``
        to ``theta in [0, pi/2]``, but the algebra is valid for any real.
    alpha:
        Phase-shift parameter; ``0`` for the paper's real network.

    Examples
    --------
    >>> import numpy as np
    >>> g = BeamsplitterGate(mode=0, theta=np.pi / 2)
    >>> np.round(g.matrix2(), 12)[0, 1]
    np.float64(-1.0)
    """

    mode: int
    theta: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.mode < 0:
            raise GateError(f"mode must be non-negative, got {self.mode}")
        if not (math.isfinite(self.theta) and math.isfinite(self.alpha)):
            raise GateError("theta and alpha must be finite")

    # ------------------------------------------------------------------
    @property
    def is_real(self) -> bool:
        return self.alpha == 0.0

    @property
    def reflectivity(self) -> float:
        """Beamsplitter reflectivity ``cos(theta)`` (Section III-A)."""
        return math.cos(self.theta)

    def matrix2(self) -> np.ndarray:
        """The 2x2 block ``T(theta, alpha)``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        if self.is_real:
            return np.array([[c, -s], [s, c]])
        phase = complex(math.cos(self.alpha), math.sin(self.alpha))
        return np.array([[phase * c, -s], [phase * s, c]], dtype=np.complex128)

    def dmatrix2_dtheta(self) -> np.ndarray:
        """Derivative of :meth:`matrix2` with respect to ``theta``.

        For the real gate this equals ``T(theta + pi/2, 0)`` — the identity
        exploited by the parameter-shift gradient.
        """
        c, s = math.cos(self.theta), math.sin(self.theta)
        if self.is_real:
            return np.array([[-s, -c], [c, -s]])
        phase = complex(math.cos(self.alpha), math.sin(self.alpha))
        return np.array(
            [[-phase * s, -c], [phase * c, -s]], dtype=np.complex128
        )

    def dmatrix2_dalpha(self) -> np.ndarray:
        """Derivative of :meth:`matrix2` with respect to ``alpha``."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        dphase = 1j * complex(math.cos(self.alpha), math.sin(self.alpha))
        return np.array(
            [[dphase * c, 0.0], [dphase * s, 0.0]], dtype=np.complex128
        )

    def embed(self, dim: int) -> np.ndarray:
        """Full ``dim x dim`` matrix with the 2x2 block at ``(mode, mode+1)``."""
        if self.mode + 1 >= dim:
            raise GateError(
                f"gate on modes ({self.mode},{self.mode + 1}) does not fit "
                f"in dimension {dim}"
            )
        dtype = np.float64 if self.is_real else np.complex128
        u = np.eye(dim, dtype=dtype)
        u[self.mode : self.mode + 2, self.mode : self.mode + 2] = self.matrix2()
        return u

    def apply(self, data: np.ndarray, inverse: bool = False) -> None:
        """Apply (in place) to an ``(N, M)`` column-states matrix."""
        apply_givens_batch(
            data, self.mode, self.theta, alpha=self.alpha, inverse=inverse
        )

    def inverse(self) -> "BeamsplitterGate":
        """Gate implementing ``T^dagger`` *as a fresh parameterised gate*.

        For the real rotation the inverse is the rotation by ``-theta``.
        No single beamsplitter ``T(theta', alpha')`` equals
        ``T(theta, alpha)^dagger`` when ``alpha != 0`` (the dagger moves
        the phase to the *row* of the block, outside this family), so
        complex gates raise instead of silently returning a wrong gate —
        use ``apply(..., inverse=True)`` for the exact adjoint.

        Raises
        ------
        GateError
            If ``alpha != 0``.
        """
        if not self.is_real:
            raise GateError(
                "T(theta, alpha)^dagger is not a beamsplitter gate for "
                "alpha != 0; apply the gate with inverse=True instead"
            )
        return BeamsplitterGate(self.mode, -self.theta)

    def with_theta(self, theta: float) -> "BeamsplitterGate":
        return BeamsplitterGate(self.mode, theta, self.alpha)

