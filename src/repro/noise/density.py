"""Density execution path: exact channel-folded evaluation, no sampling.

For every input sample this path carries the full ``N x N`` density
matrix through the compiled :class:`~repro.backends.program.GateProgram`,
applying after each Givens rotation the *exact* noise channels of the
:class:`~repro.noise.model.NoiseModel`:

- **angle jitter** — the Gaussian mixture of rotations
  ``E_eps[R(theta+eps) rho R(theta+eps)^T]`` has a closed form: rotate by
  ``theta``, then dephase in the rotation generator's eigenbasis.  For a
  two-mode Givens gate this reduces to real arithmetic: the cross terms
  between the gate's modes and the rest decay by ``exp(-sigma^2/2)`` and
  the traceless-symmetric part of the gate's own 2x2 block decays by
  ``exp(-2 sigma^2)`` (the antisymmetric part commutes with every
  rotation and survives).
- **insertion loss** — single-photon amplitude damping on both of the
  gate's modes, the diagonal Kraus operator with ``keep = sqrt(1 - loss)``
  on the damped mode (the unconditional, trace-decreasing branch: lost
  probability leaves the matrix, it is not renormalized back).

Between the meshes the wire channels are folded through the Kraus
operators built by :func:`dephasing_channel` and
:func:`depolarizing_channel`.

Operators act on the ``N``-dimensional mode space the amplitude encoding
uses (one photon superposed over ``N`` optical modes), not on
tensor-factored qubits.

This is ``O(G N^2)`` per sample — exact and cheap at the paper scale
(``N = 16``), the ground truth the scalable trajectory path
(:mod:`repro.noise.trajectory`) must agree with.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.exceptions import DimensionError, NoiseError
from repro.noise.model import NoiseModel
from repro.noise.trajectory import (
    NoisyForwardResult,
    STREAM_MEASURE,
    _masked_compress,
    clean_mesh_matrix,
    measure_probabilities,
    realization_rng,
)

__all__ = [
    "dephasing_channel",
    "depolarizing_channel",
    "apply_kraus_raw",
    "apply_jitter_channel",
    "noisy_program_rho",
    "density_forward",
]


def dephasing_channel(dim: int, strength: float) -> List[np.ndarray]:
    """Kraus operators for mode dephasing of strength ``p`` in [0, 1].

    With probability ``p`` the state is measured in the computational
    basis (off-diagonals are scaled by ``1 - p``): the channel that
    destroys the interference the mesh relies on.
    """
    if not 0.0 <= strength <= 1.0:
        raise DimensionError(f"strength must be in [0, 1], got {strength}")
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    ops = [np.sqrt(1.0 - strength) * np.eye(dim, dtype=np.complex128)]
    for j in range(dim):
        proj = np.zeros((dim, dim), dtype=np.complex128)
        proj[j, j] = np.sqrt(strength)
        ops.append(proj)
    return ops


def depolarizing_channel(dim: int, strength: float) -> List[np.ndarray]:
    """Kraus set realising ``rho -> (1-p) rho + p I/N``.

    Built from the identity plus the ``N^2`` generalized Pauli (shift x
    clock) unitaries with uniform weights — exact for any ``N``.
    """
    if not 0.0 <= strength <= 1.0:
        raise DimensionError(f"strength must be in [0, 1], got {strength}")
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    shift = np.roll(np.eye(dim), 1, axis=0).astype(np.complex128)
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    ops: List[np.ndarray] = []
    for a in range(dim):
        for b in range(dim):
            u = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(
                clock, b
            )
            weight = strength / (dim * dim)
            if a == 0 and b == 0:
                weight += 1.0 - strength
            ops.append(np.sqrt(weight) * u)
    return ops


def apply_kraus_raw(rho: np.ndarray, ops: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_i K_i rho K_i^dagger`` on a raw array.

    No unit-trace requirement is placed on ``rho``: the noisy pipeline
    works with unconditional (sub-normalized) states whose lost
    probability is physical signal, not an error.
    """
    dtype = np.result_type(rho.dtype, *(op.dtype for op in ops))
    out = np.zeros(rho.shape, dtype=dtype)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def _rotate_rho(rho: np.ndarray, k: int, theta: float) -> None:
    """In-place ``R rho R^T`` for the two-mode Givens rotation at ``k``."""
    c, s = math.cos(theta), math.sin(theta)
    r0 = rho[k].copy()
    r1 = rho[k + 1]
    rho[k] = c * r0 - s * r1
    rho[k + 1] = s * r0 + c * r1
    c0 = rho[:, k].copy()
    c1 = rho[:, k + 1]
    rho[:, k] = c * c0 - s * c1
    rho[:, k + 1] = s * c0 + c * c1


def apply_jitter_channel(rho: np.ndarray, k: int, sigma: float) -> None:
    """In-place exact ``E_eps[R(eps) rho R(eps)^T]``, ``eps ~ N(0, sigma^2)``.

    The rotation generator ``J = [[0, -1], [1, 0]]`` on modes ``(k, k+1)``
    has eigenvalues ``+-i``; averaging the rotation angle is Gaussian
    dephasing between its eigenspaces.  Worked into real arithmetic:

    - elements coupling ``{k, k+1}`` to any other mode decay by
      ``exp(-sigma^2/2)`` (eigenvalue gap 1);
    - within the 2x2 block, the identity and antisymmetric components are
      invariant and the traceless-symmetric components decay by
      ``exp(-2 sigma^2)`` (eigenvalue gap 2).
    """
    if sigma <= 0.0:
        return
    f1 = math.exp(-0.5 * sigma * sigma)
    f2 = math.exp(-2.0 * sigma * sigma)
    mask = np.ones(rho.shape[0], dtype=bool)
    mask[k] = mask[k + 1] = False
    rho[k, mask] *= f1
    rho[k + 1, mask] *= f1
    rho[mask, k] *= f1
    rho[mask, k + 1] *= f1
    b00, b01 = rho[k, k], rho[k, k + 1]
    b10, b11 = rho[k + 1, k], rho[k + 1, k + 1]
    a = 0.5 * (b00 + b11)  # identity component (invariant)
    j = 0.5 * (b10 - b01)  # antisymmetric component (commutes with R)
    c = 0.5 * (b00 - b11) * f2  # diag traceless-symmetric, gap 2
    d = 0.5 * (b01 + b10) * f2  # offdiag symmetric, gap 2
    rho[k, k] = a + c
    rho[k, k + 1] = d - j
    rho[k + 1, k] = d + j
    rho[k + 1, k + 1] = a - c


def noisy_program_rho(
    program_or_network, params: np.ndarray, rho: np.ndarray, model: NoiseModel
) -> np.ndarray:
    """Fold one noisy mesh over a density matrix, channel-exactly.

    Applies, per gate in program order: the ideal rotation, the averaged
    angle-jitter channel, and the two-mode insertion-loss damping.
    ``rho`` may be sub-normalized; it is modified in place and returned.
    """
    prog = program_or_network
    if not hasattr(prog, "theta_index"):
        from repro.backends.program import compile_program

        prog = compile_program(prog)
    if prog.allow_phase:
        raise NoiseError(
            "the noise model supports the paper's real (phase-free) meshes; "
            "allow_phase networks are out of scope for noisy execution"
        )
    params = np.asarray(params, dtype=np.float64)
    sigma = model.theta_sigma
    loss = model.loss_per_gate
    # K rho K^dagger for the diagonal amplitude-damping Kraus on both
    # modes collapses to symmetric row/column scaling by this amplitude.
    keep = math.sqrt(1.0 - loss)
    for g in range(prog.num_gates):
        k = int(prog.modes[g])
        _rotate_rho(rho, k, float(params[prog.theta_index[g]]))
        if sigma > 0.0:
            apply_jitter_channel(rho, k, sigma)
        if loss > 0.0:
            rho[k] *= keep
            rho[k + 1] *= keep
            rho[:, k] *= keep
            rho[:, k + 1] *= keep
    return rho


def density_forward(
    autoencoder,
    amplitudes: np.ndarray,
    model: NoiseModel,
    *,
    seed: int = 0,
    epoch: int = 0,
) -> NoisyForwardResult:
    """Exact noisy pipeline evaluation via per-sample density matrices.

    Same quantities (and the same unconditional-state convention) as
    :func:`repro.noise.trajectory.trajectory_forward`; ``trajectories``
    is reported as 1 because nothing is sampled — only finite
    ``model.shots`` introduce randomness, drawn from the same
    measurement stream as the trajectory path.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if amplitudes.ndim == 1:
        amplitudes = amplitudes.reshape(-1, 1)
    uc, ur = autoencoder.uc, autoencoder.ur
    uc_prog, ur_prog = uc.backend.program, ur.backend.program
    uc_params = uc.get_flat_params()
    ur_params = ur.get_flat_params()
    keep = np.asarray(autoencoder.projection.keep, dtype=np.int64)
    dim, num_samples = amplitudes.shape

    uc_clean = clean_mesh_matrix(uc_prog, uc_params)
    ur_clean = clean_mesh_matrix(ur_prog, ur_params)
    b_clean = ur_clean @ _masked_compress(uc_clean, amplitudes, keep)
    norms = np.linalg.norm(b_clean, axis=0)
    reference = b_clean / np.where(norms > 0.0, norms, 1.0)

    mask = np.zeros(dim, dtype=bool)
    mask[keep] = True
    deph_ops = dephasing_channel(dim, model.dephasing) if model.dephasing > 0 else None
    depol_ops = (
        depolarizing_channel(dim, model.depolarizing) if model.depolarizing > 0 else None
    )

    probs = np.empty((dim, num_samples), dtype=np.float64)
    fid = np.empty(num_samples, dtype=np.float64)
    trans = np.empty(num_samples, dtype=np.float64)
    for m in range(num_samples):
        rho = np.outer(amplitudes[:, m], amplitudes[:, m])
        noisy_program_rho(uc_prog, uc_params, rho, model)
        # Projection P rho P: unconditional, not renormalized.
        rho[~mask, :] = 0.0
        rho[:, ~mask] = 0.0
        if deph_ops is not None:
            rho = apply_kraus_raw(rho, deph_ops)
        if depol_ops is not None:
            # The generalized-Pauli Kraus ops are complex; their sum on a
            # real-symmetric rho is real again — drop the rounding imag.
            rho = np.ascontiguousarray(apply_kraus_raw(rho, depol_ops).real)
        noisy_program_rho(ur_prog, ur_params, rho, model)
        diag = np.clip(np.diag(rho).real.copy(), 0.0, None)
        probs[:, m] = diag
        trans[m] = float(diag.sum())
        # Conditional fidelity: <b_c| rho |b_c> / tr(rho) — the quality of
        # the surviving state, 1.0 exactly at zero noise; the lost
        # probability is reported separately as transmission.
        num = float((reference[:, m] @ rho @ reference[:, m]).real)
        fid[m] = num / trans[m] if trans[m] > 0.0 else 0.0
    probs = measure_probabilities(
        probs, model.shots, realization_rng(seed, epoch, 0, STREAM_MEASURE)
    )
    return NoisyForwardResult(
        probabilities=probs, fidelity=np.clip(fid, 0.0, 1.0), transmission=trans,
        trajectories=1,
    )
