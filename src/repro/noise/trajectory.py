"""Trajectory execution path: sampled noise realizations, GEMM-shaped.

The exact density path (:mod:`repro.noise.density`) costs ``O(G N^2)`` per
*sample*; this module scales the same :class:`~repro.noise.model.NoiseModel`
to wide batches by sampling whole-mesh **realizations**: for realization
``r`` the per-gate angle jitters are drawn once (a fabricated mesh has
frozen miscalibration) and folded — together with the deterministic
per-gate insertion-loss damping — into a single sub-unitary ``N x N``
matrix by the same closed-form chain fold
(:mod:`repro.backends.fold`) that :class:`~repro.backends.fused.FusedBackend`
uses for the ideal program, all realizations of a mesh in one batched
call.  Every sample then moves through a realization in one GEMM.

The wire channels (dephasing / depolarizing) act between ``U_C`` and
``U_R``; because the pipeline only ever measures in the computational
basis at the very end, their effect on the measured distribution has an
exact GEMM-shaped closed form and needs **no stochastic unravelling**:

``p = (1-pp) * [(1-pd) * |U_R phi|^2 + pd * |U_R|^2 @ |phi|^2]
+ pp * (tr rho / N) * rowsum(|U_R|^2)``

where ``phi`` is the (unconditional, sub-normalized) compressed state,
``pd``/``pp`` the dephasing/depolarizing strengths.  Only the frozen
miscalibration is genuinely stochastic, so the trajectory mean converges
to the density path with pure Monte-Carlo error — the agreement gate in
``benchmarks/bench_noise.py`` checks exactly this.

Reproducibility contract: realization ``r`` of epoch ``e`` under seed
``s`` is drawn from ``SeedSequence(s, spawn_key=(TAG, stream, e, r))`` —
keyed on the *realization*, never on which worker computes it — so
sharding the realization range across a :class:`~repro.parallel.pool.WorkerPool`
of any size reproduces the single-process result bitwise (the results are
recombined per-realization by the same deterministic
:func:`~repro.parallel.reducer.tree_reduce` the data-parallel trainer uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.fold import noisy_folds
from repro.exceptions import NoiseError
from repro.noise.model import NoiseModel

__all__ = [
    "NoisyForwardResult",
    "realization_rng",
    "sample_mesh_matrix",
    "sample_mesh_matrices",
    "clean_mesh_matrix",
    "channel_probabilities",
    "measure_probabilities",
    "trajectory_forward",
]

#: Spawn-key tag segregating noise streams from any other stream drawn
#: from the same seed (we always spawn on this tagged 4-tuple).
_SPAWN_TAG = 0x4E4F4953  # "NOIS"

#: Stream ids: one independent stream per mesh plus one for measurement.
STREAM_UC = 0
STREAM_UR = 1
STREAM_MEASURE = 2


def realization_rng(
    seed: int, epoch: int, realization: int, stream: int = 0
) -> np.random.Generator:
    """The deterministic generator for one noise realization.

    Keyed on ``(seed, stream, epoch, realization)`` only — never on the
    worker that happens to compute it — which is what makes pool-sharded
    noise bitwise-reproducible at any pool size.

    >>> a = realization_rng(7, 0, 3).normal()
    >>> b = realization_rng(7, 0, 3).normal()
    >>> a == b
    True
    >>> realization_rng(7, 0, 4).normal() == a
    False
    """
    ss = np.random.SeedSequence(
        int(seed), spawn_key=(_SPAWN_TAG, int(stream), int(epoch), int(realization))
    )
    return np.random.default_rng(ss)


#: Realizations folded per batched call in :func:`trajectory_forward`,
#: bounding its fold memory at ``O(block L N^2)`` for any ``K``.
_FOLD_BLOCK = 64


def sample_mesh_matrices(
    mesh,
    params: np.ndarray,
    model: NoiseModel,
    rngs: Sequence[Optional[np.random.Generator]],
) -> np.ndarray:
    """Fold ``K = len(rngs)`` noisy mesh realizations, shape ``(K, N, N)``.

    ``mesh`` is the :class:`~repro.backends.program.GateProgram` or the
    :class:`~repro.network.quantum_network.QuantumNetwork` whose structure
    is folded.  Realization ``r`` is the closed-form fold
    (:func:`repro.backends.fold.noisy_folds`) of the mesh with two
    physical modifications per gate ``g`` on modes ``(k, k+1)``:

    - the angle is ``theta_g + eps_g`` with ``eps_g ~ N(0, theta_sigma^2)``
      drawn once from ``rngs[r]`` (frozen fabrication miscalibration);
    - rows ``k, k+1`` are damped by ``sqrt(1 - loss_per_gate)`` after the
      rotation (single-photon insertion loss), so the result is
      sub-unitary and carries the *unconditional* (non-post-selected)
      amplitude, matching the density path's trace bookkeeping.

    Realization ``r`` depends on ``rngs[r]`` alone: any contiguous slice
    of the result equals the call on that slice of ``rngs``, bitwise.
    Generators may be ``None`` when ``theta_sigma == 0``.
    """
    if mesh.allow_phase:
        raise NoiseError(
            "the noise model supports the paper's real (phase-free) meshes; "
            "allow_phase networks are out of scope for noisy execution"
        )
    params = np.asarray(params, dtype=np.float64)
    num_thetas = mesh.num_layers * (mesh.dim - 1)
    thetas = np.broadcast_to(params[:num_thetas], (len(rngs), num_thetas))
    if model.theta_sigma > 0.0:
        if any(rng is None for rng in rngs):
            raise NoiseError("theta_sigma > 0 requires an rng to draw jitter")
        # One draw per *theta parameter*, in flat-parameter layout (what
        # noise-aware training perturbs).
        thetas = thetas + np.stack(
            [rng.normal(0.0, model.theta_sigma, size=num_thetas) for rng in rngs]
        )
    return noisy_folds(mesh, thetas, float(np.sqrt(1.0 - model.loss_per_gate)))


def sample_mesh_matrix(
    mesh,
    params: np.ndarray,
    model: NoiseModel,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Fold one noisy mesh realization into a dense ``N x N`` matrix.

    The single-realization case of :func:`sample_mesh_matrices`, which
    describes the noise; ``rng=None`` is allowed when
    ``theta_sigma == 0``.
    """
    return sample_mesh_matrices(mesh, params, model, [rng])[0]


def clean_mesh_matrix(mesh, params: np.ndarray) -> np.ndarray:
    """The ideal (noise-free) mesh fold — the reference for fidelity."""
    return sample_mesh_matrix(mesh, params, NoiseModel(), None)


def channel_probabilities(
    decode_matrix: np.ndarray,
    phi: np.ndarray,
    model: NoiseModel,
    reference: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Measured-probability map of the wire channels + reconstruction mesh.

    ``phi`` is the (possibly sub-normalized) compressed state batch
    ``(N, M)`` *after* projection; ``decode_matrix`` is one (possibly
    noisy, sub-unitary) realization of ``U_R``.  Returns the exact
    computational-basis probabilities ``(N, M)`` of
    ``U_R ( Depol_pp ( Deph_pd ( |phi><phi| ) ) ) U_R^dagger`` — the
    closed form in the module docstring — plus, when ``reference`` (the
    normalized clean output batch) is given, the per-sample fidelity
    ``<b_c| rho_out |b_c>``.
    """
    pd = model.dephasing
    pp = model.depolarizing
    dim = decode_matrix.shape[0]
    out = decode_matrix @ phi
    probs = np.abs(out) ** 2
    phi_sq = np.abs(phi) ** 2
    trace = phi_sq.sum(axis=0)
    dec_sq = np.abs(decode_matrix) ** 2
    if pd > 0.0:
        probs = (1.0 - pd) * probs + pd * (dec_sq @ phi_sq)
    if pp > 0.0:
        rowpow = dec_sq.sum(axis=1)
        probs = (1.0 - pp) * probs + (pp / dim) * np.outer(rowpow, trace)
    if reference is None:
        return probs, None
    # T[m, j] = <b_c[:, m] | U_R e_j>; all three channel terms project
    # the output density matrix onto the clean reference state.
    t = reference.conj().T @ decode_matrix
    t_sq = np.abs(t) ** 2
    fid_unit = np.abs(np.einsum("nm,nm->m", reference.conj(), out)) ** 2
    fid = fid_unit
    if pd > 0.0:
        fid_deph = np.einsum("mj,jm->m", t_sq, phi_sq)
        fid = (1.0 - pd) * fid + pd * fid_deph
    if pp > 0.0:
        fid = (1.0 - pp) * fid + (pp / dim) * trace * t_sq.sum(axis=1)
    return probs, fid


def measure_probabilities(
    probabilities: np.ndarray,
    shots: Optional[int],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Finite-shot estimate of (possibly sub-normalized) probabilities.

    Samples ``shots`` multinomial draws per column from the *conditional*
    click distribution and rescales by the column's total probability, so
    the estimate is unbiased for the unconditional ``p`` even under loss
    (a lost photon is simply a no-click shot).  ``shots=None`` returns
    the exact probabilities unchanged.
    """
    if shots is None:
        return probabilities
    if rng is None:
        raise NoiseError("finite shots require an rng")
    mat = probabilities.reshape(probabilities.shape[0], -1)
    out = np.zeros_like(mat)
    for m in range(mat.shape[1]):
        p = np.clip(mat[:, m], 0.0, None)
        total = float(p.sum())
        if total <= 0.0:
            continue
        counts = rng.multinomial(int(shots), p / total)
        out[:, m] = counts * (total / float(shots))
    return out.reshape(probabilities.shape)


@dataclass(frozen=True)
class NoisyForwardResult:
    """Outcome of a noisy pipeline pass (density or trajectory path).

    All quantities are *unconditional* (no post-selection): lost
    probability shows up as ``transmission < 1`` and as sub-normalized
    ``probabilities`` columns, never silently renormalized away.
    """

    probabilities: np.ndarray  #: (N, M) mean measured Born probabilities
    fidelity: np.ndarray  #: (M,) conditional fidelity <b_c|rho|b_c> / tr(rho)
    transmission: np.ndarray  #: (M,) mean retained probability (trace)
    trajectories: int  #: number of realizations averaged (1 for density)

    @property
    def amplitudes(self) -> np.ndarray:
        """Magnitude-only amplitudes ``sqrt(p)`` — what Eq. (2) decodes."""
        return np.sqrt(np.clip(self.probabilities, 0.0, None))

    @property
    def mean_fidelity(self) -> float:
        return float(np.mean(self.fidelity))


def _network_struct(network) -> Tuple[int, int, bool, bool]:
    return (
        int(network.dim),
        int(network.num_layers),
        bool(network.descending),
        bool(network.allow_phase),
    )


_PROGRAM_CACHE: Dict[Tuple[int, int, bool, bool], object] = {}


def _program_for_struct(struct: Tuple[int, int, bool, bool]):
    prog = _PROGRAM_CACHE.get(struct)
    if prog is None:
        from repro.backends.program import compile_program
        from repro.network.quantum_network import QuantumNetwork

        dim, num_layers, descending, allow_phase = struct
        prog = compile_program(
            QuantumNetwork(
                dim, num_layers, descending=descending, allow_phase=allow_phase
            )
        )
        _PROGRAM_CACHE[struct] = prog
    return prog


def _masked_compress(encode_matrix, amplitudes, keep: np.ndarray) -> np.ndarray:
    """``P (U_C a)`` — project without renormalizing (unconditional state)."""
    phi = encode_matrix @ amplitudes
    mask = np.zeros(phi.shape[0], dtype=bool)
    mask[keep] = True
    phi[~mask, :] = 0.0
    return phi


def _realization_stats(
    uc_prog,
    uc_params: np.ndarray,
    ur_prog,
    ur_params: np.ndarray,
    keep: np.ndarray,
    amplitudes: np.ndarray,
    reference: np.ndarray,
    model: NoiseModel,
    seed: int,
    epoch: int,
    lo: int,
    hi: int,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exact (probabilities, fidelity, transmission) of realizations
    ``[lo, hi)``, each mesh's realizations folded in batched calls.

    Every realization is keyed on its own index (see
    :func:`realization_rng`) and batched folds are slice-exact, so the
    values do not depend on how the range is split.
    """
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(lo, hi, _FOLD_BLOCK):
        block = range(start, min(start + _FOLD_BLOCK, hi))
        ucs = sample_mesh_matrices(
            uc_prog,
            uc_params,
            model,
            [realization_rng(seed, epoch, r, STREAM_UC) for r in block],
        )
        urs = sample_mesh_matrices(
            ur_prog,
            ur_params,
            model,
            [realization_rng(seed, epoch, r, STREAM_UR) for r in block],
        )
        for uc, ur in zip(ucs, urs):
            phi = _masked_compress(uc, amplitudes, keep)
            probs, fid = channel_probabilities(ur, phi, model, reference=reference)
            assert fid is not None
            out.append((probs, fid, probs.sum(axis=0)))
    return out


def _trajectory_shard_task(payload) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Worker task: realizations ``[lo, hi)`` of a trajectory sweep."""
    (
        uc_struct,
        uc_params,
        ur_struct,
        ur_params,
        keep,
        amplitudes,
        reference,
        model_dict,
        seed,
        epoch,
        lo,
        hi,
    ) = payload
    return _realization_stats(
        _program_for_struct(uc_struct),
        uc_params,
        _program_for_struct(ur_struct),
        ur_params,
        keep,
        amplitudes,
        reference,
        NoiseModel.from_dict(model_dict),
        seed,
        epoch,
        lo,
        hi,
    )


def trajectory_forward(
    autoencoder,
    amplitudes: np.ndarray,
    model: NoiseModel,
    *,
    trajectories: int = 64,
    seed: int = 0,
    epoch: int = 0,
    pool=None,
) -> NoisyForwardResult:
    """Run the full noisy pipeline by averaging sampled realizations.

    ``amplitudes`` is the ``(N, M)`` encoded input batch;
    ``autoencoder`` a trained :class:`~repro.network.autoencoder.QuantumAutoencoder`.
    When ``pool`` (a :class:`~repro.parallel.pool.WorkerPool`) is given the
    realization range is sharded across its workers; results are bitwise
    identical for any worker count, including none.

    Finite ``model.shots`` are applied to the *averaged* probabilities
    from the dedicated measurement stream, so the shot budget is spent on
    the physical (realization-averaged) distribution.
    """
    K = int(trajectories)
    if K < 1:
        raise NoiseError(f"trajectories must be >= 1, got {trajectories!r}")
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if amplitudes.ndim == 1:
        amplitudes = amplitudes.reshape(-1, 1)
    uc, ur = autoencoder.uc, autoencoder.ur
    uc_prog = _program_for_struct(_network_struct(uc))
    ur_prog = _program_for_struct(_network_struct(ur))
    uc_params = np.asarray(uc.get_flat_params(), dtype=np.float64)
    ur_params = np.asarray(ur.get_flat_params(), dtype=np.float64)
    keep = np.asarray(autoencoder.projection.keep, dtype=np.int64)
    # Clean reference outputs, normalized per column (guarding collapse to
    # zero), for the fidelity bookkeeping.
    uc_clean = clean_mesh_matrix(uc_prog, uc_params)
    ur_clean = clean_mesh_matrix(ur_prog, ur_params)
    b_clean = ur_clean @ _masked_compress(uc_clean, amplitudes, keep)
    norms = np.linalg.norm(b_clean, axis=0)
    reference = b_clean / np.where(norms > 0.0, norms, 1.0)

    per_realization: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if pool is not None and pool.processes > 1 and K > 1:
        from repro.parallel.sharding import plan_shards

        shards = plan_shards(K, min(pool.processes, K))
        payloads = [
            (
                _network_struct(uc),
                uc_params,
                _network_struct(ur),
                ur_params,
                keep,
                amplitudes,
                reference,
                model.to_dict(),
                int(seed),
                int(epoch),
                shard.start,
                shard.stop,
            )
            for shard in shards
        ]
        for chunk in pool.map(_trajectory_shard_task, payloads):
            per_realization.extend(chunk)
    else:
        per_realization = _realization_stats(
            uc_prog,
            uc_params,
            ur_prog,
            ur_params,
            keep,
            amplitudes,
            reference,
            model,
            int(seed),
            int(epoch),
            0,
            K,
        )

    from repro.parallel.reducer import tree_reduce

    probs = tree_reduce([p for p, _, _ in per_realization]) / K
    fid = tree_reduce([f for _, f, _ in per_realization]) / K
    trans = tree_reduce([t for _, _, t in per_realization]) / K
    # Conditional fidelity of the realization-*averaged* state:
    # E_r[<b|rho_r|b>] / E_r[tr rho_r] — the ratio of means, matching the
    # density path's rho = E_r[rho_r] exactly (not the mean of ratios).
    fid = np.clip(fid / np.where(trans > 0.0, trans, 1.0), 0.0, 1.0)
    probs = measure_probabilities(
        probs, model.shots, realization_rng(seed, epoch, 0, STREAM_MEASURE)
    )
    return NoisyForwardResult(
        probabilities=probs, fidelity=fid, transmission=trans, trajectories=K
    )
