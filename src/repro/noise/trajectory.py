"""Trajectory execution path: sampled noise realizations, GEMM-shaped.

The exact density path (:mod:`repro.noise.density`) costs ``O(G N^2)`` per
*sample*; this module scales the same :class:`~repro.noise.model.NoiseModel`
to wide batches by sampling whole-mesh **realizations**: for realization
``r`` the per-gate angle jitters are drawn once (a fabricated mesh has
frozen miscalibration) and folded — together with the deterministic
per-gate insertion-loss damping — into a single sub-unitary ``N x N``
matrix by the same closed-form chain fold
(:mod:`repro.backends.fold`) that :class:`~repro.backends.fused.FusedBackend`
uses for the ideal program.  Each block of realizations (at most
:data:`_FOLD_BLOCK`, fewer for wide batches) is one stacked pass: one
fold call per mesh, then one :func:`channel_probabilities` call over the
whole ``(B, N, M)`` stack; in the first block the fold's row 0 is the
clean mesh, the fidelity reference.  Every sample moves through a
realization in one GEMM.

A frozen mesh is evaluated again and again with one seed, so in process
the first block's folds of each mesh are kept (:func:`_kept_folds`): one
read-only entry per stream for the whole process, holding the stack,
its jitter rows and the parameters it was folded at.  A call with the
same structure, ``theta_sigma``, ``loss_per_gate``, block, seed and
epoch and equal parameters reuses the stack; new parameters alone refold
with the kept jitter rows; anything else refolds as before.  Pool shards
fold their own range from its keys.

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
keyed on the *realization*, never on which worker computes it — and
every stacked step is slice-exact, so sharding the realization range
across a :class:`~repro.parallel.pool.WorkerPool` of any size reproduces
the single-process result bitwise (the results are recombined
per-realization by the same deterministic
:func:`~repro.parallel.reducer.tree_reduce` the data-parallel trainer uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.cached import ELEMENT_BUDGET
from repro.backends.fold import noisy_folds
from repro.exceptions import NoiseError
from repro.noise.model import NoiseModel

__all__ = [
    "NoisyForwardResult",
    "realization_rng",
    "jitter_block",
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


def _jitter_rows(
    rngs: Sequence[Optional[np.random.Generator]], num_thetas: int, sigma: float
) -> np.ndarray:
    """One ``N(0, sigma^2)`` draw of ``num_thetas`` angles per generator."""
    if any(rng is None for rng in rngs):
        raise NoiseError("theta_sigma > 0 requires an rng to draw jitter")
    return np.stack([rng.normal(0.0, sigma, size=num_thetas) for rng in rngs])


def jitter_block(
    num_thetas: int,
    sigma: float,
    seed: int,
    epoch: int,
    lo: int,
    hi: int,
    stream: int = 0,
) -> np.ndarray:
    """Angle jitter of realizations ``[lo, hi)`` of one stream, shape
    ``(hi - lo, num_thetas)``.

    Row ``r - lo`` is drawn from ``realization_rng(seed, epoch, r,
    stream)`` alone, so any split of the range draws the same rows.
    """
    return _jitter_rows(
        [realization_rng(seed, epoch, r, stream) for r in range(lo, hi)],
        int(num_thetas),
        sigma,
    )


#: Most realizations per stacked pass of :func:`_realization_stats`;
#: :func:`_block_size` lowers it so the pass's ``(B, N, M)`` channel
#: temporaries and ``(B, L, N, N)`` layer stack stay within
#: ``ELEMENT_BUDGET`` float64s each, for any ``K`` and ``M``.
_FOLD_BLOCK = 64


def _block_size(dim: int, num_layers: int, columns: int) -> int:
    """Realizations per stacked pass over ``columns`` samples (at least 1)."""
    per_row = max(dim * columns, num_layers * dim * dim)
    return max(1, min(_FOLD_BLOCK, ELEMENT_BUDGET // per_row))


def _mesh_folds(
    mesh,
    params: np.ndarray,
    model: NoiseModel,
    jitter: Optional[np.ndarray],
    count: int,
    clean_row: bool = False,
) -> np.ndarray:
    """The trajectory path's one fold builder, shape ``(clean_row + count,
    N, N)``.

    With ``clean_row`` the first row is the clean mesh (an amplitude of
    exactly 1.0 per gate, no jitter); the other ``count`` rows are noisy
    realizations whose angles are shifted by the rows of ``jitter``
    (``(count, num_thetas)``, or ``None`` for none) and whose gates are
    damped by ``sqrt(1 - loss_per_gate)``.  Folds are row-exact, so each
    row equals its own single fold bitwise.
    """
    if mesh.allow_phase:
        raise NoiseError(
            "the noise model supports the paper's real (phase-free) meshes; "
            "allow_phase networks are out of scope for noisy execution"
        )
    params = np.asarray(params, dtype=np.float64)
    num_thetas = mesh.num_layers * (mesh.dim - 1)
    first = int(clean_row)
    thetas = np.empty((first + count, num_thetas))
    thetas[:] = params[:num_thetas]
    if jitter is not None:
        thetas[first:] += jitter
    keep_amp = np.full(first + count, np.sqrt(1.0 - model.loss_per_gate))
    keep_amp[:first] = 1.0
    return noisy_folds(mesh, thetas, keep_amp)


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
    num_thetas = mesh.num_layers * (mesh.dim - 1)
    jitter = None
    if model.theta_sigma > 0.0:
        # One draw per *theta parameter*, in flat-parameter layout (what
        # noise-aware training perturbs).
        jitter = _jitter_rows(rngs, num_thetas, model.theta_sigma)
    return _mesh_folds(mesh, params, model, jitter, len(rngs))


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
    ``(..., N, M)`` *after* projection; ``decode_matrix`` is one (possibly
    noisy, sub-unitary) realization of ``U_R``, ``(..., N, N)``.  Returns
    the exact computational-basis probabilities ``(..., N, M)`` of
    ``U_R ( Depol_pp ( Deph_pd ( |phi><phi| ) ) ) U_R^dagger`` — the
    closed form in the module docstring — plus, when ``reference`` (the
    normalized clean output batch ``(..., N, M)``) is given, the
    per-sample fidelity ``<b_c| rho_out |b_c>``, ``(..., M)``.

    Leading axes broadcast against each other, and every slice of a
    stacked call equals the single call on that slice bitwise.
    """
    pd = model.dephasing
    pp = model.depolarizing
    dim = decode_matrix.shape[-1]
    out = decode_matrix @ phi
    probs = np.abs(out) ** 2
    phi_sq = np.abs(phi) ** 2
    trace = phi_sq.sum(axis=-2)
    dec_sq = np.abs(decode_matrix) ** 2
    if pd > 0.0:
        probs = (1.0 - pd) * probs + pd * (dec_sq @ phi_sq)
    if pp > 0.0:
        rowpow = dec_sq.sum(axis=-1)
        probs = (1.0 - pp) * probs + (pp / dim) * (
            rowpow[..., :, None] * trace[..., None, :]
        )
    if reference is None:
        return probs, None
    # T[m, j] = <b_c[:, m] | U_R e_j>; all three channel terms project
    # the output density matrix onto the clean reference state.
    t = np.swapaxes(reference.conj(), -1, -2) @ decode_matrix
    t_sq = np.abs(t) ** 2
    fid_unit = np.abs(np.einsum("...nm,...nm->...m", reference.conj(), out)) ** 2
    fid = fid_unit
    if pd > 0.0:
        fid_deph = np.einsum("...mj,...jm->...m", t_sq, phi_sq)
        fid = (1.0 - pd) * fid + pd * fid_deph
    if pp > 0.0:
        fid = (1.0 - pp) * fid + (pp / dim) * trace * t_sq.sum(axis=-1)
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

    Columns are drawn in order, all in one ``multinomial`` call; a column
    with no probability left after clipping negatives is skipped and
    draws nothing.
    """
    if shots is None:
        return probabilities
    if rng is None:
        raise NoiseError("finite shots require an rng")
    mat = probabilities.reshape(probabilities.shape[0], -1)
    # One contiguous row per column, so each total is summed like the
    # column on its own.
    p = np.ascontiguousarray(np.clip(mat, 0.0, None).T)
    totals = p.sum(axis=1)
    live = ~(totals <= 0.0)
    out = np.zeros_like(mat)
    if live.any():
        scale = totals[live, None]
        counts = rng.multinomial(int(shots), p[live] / scale)
        out[:, live] = (counts * (scale / float(shots))).T
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


#: Most float64s the kept folds and jitter rows of one stream may hold
#: (512 KB); the paper's K = 8 entries hold 3,924 (U_C) and 4,194 (U_R).
_KEEP_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class _KeptFolds:
    """The last first-block folds of one stream and what they were built from."""

    key: Tuple  #: (structure, theta_sigma, loss_per_gate, count, seed, epoch)
    jitter: Optional[np.ndarray]  #: read-only (count, num_thetas), or None
    params: np.ndarray  #: the flat parameters the folds were built at
    folds: np.ndarray  #: read-only (1 + count, N, N): clean, then r = 0..


#: One entry per stream (``U_C``, ``U_R``) for the whole process, so the
#: memory kept does not grow with the number of codecs.
_KEPT: Dict[int, _KeptFolds] = {}


def _mesh_jitter(mesh, model, seed, epoch, stream, lo, hi) -> Optional[np.ndarray]:
    """The jitter rows of realizations ``[lo, hi)`` of one mesh, or
    ``None`` without angle jitter."""
    if model.theta_sigma <= 0.0:
        return None
    return jitter_block(
        mesh.num_layers * (mesh.dim - 1),
        model.theta_sigma, seed, epoch, lo, hi, stream,
    )


def _kept_folds(mesh, params, model, seed, epoch, stream, count) -> np.ndarray:
    """``_mesh_folds`` of the clean row and realizations ``[0, count)``,
    reused while nothing they depend on has changed.

    A frozen mesh is evaluated again and again with one seed, so each
    stream keeps its last stack with its jitter rows.  It is reused while
    the structure, ``theta_sigma``, ``loss_per_gate``, ``count``, seed and
    epoch match and ``params`` equals the snapshot; new parameters alone
    refold with the kept jitter rows.  A stack and jitter of more than
    :data:`_KEEP_ELEMENTS` is folded but not kept.
    """
    from repro.parallel.reducer import _network_struct

    key = (
        _network_struct(mesh), model.theta_sigma, model.loss_per_gate,
        count, seed, epoch,
    )
    entry = _KEPT.get(stream)
    if entry is None or entry.key != key:
        jitter = _mesh_jitter(mesh, model, seed, epoch, stream, 0, count)
    elif np.array_equal(params, entry.params):
        return entry.folds
    else:
        jitter = entry.jitter
    folds = _mesh_folds(mesh, params, model, jitter, count, True)
    num_thetas = mesh.num_layers * (mesh.dim - 1)
    if (1 + count) * (mesh.dim * mesh.dim + num_thetas) <= _KEEP_ELEMENTS:
        for arr in (jitter, folds):
            if arr is not None:
                arr.flags.writeable = False
        # One assignment: a concurrent reader sees the old entry or this.
        _KEPT[stream] = _KeptFolds(key, jitter, params, folds)
    return folds


def _masked_compress(encode_matrix, amplitudes, keep: np.ndarray) -> np.ndarray:
    """``P (U_C a)`` — project without renormalizing (unconditional state).

    ``encode_matrix`` may be a ``(..., N, N)`` stack; the mask zeroes the
    same rows of every slice."""
    phi = encode_matrix @ amplitudes
    mask = np.zeros(phi.shape[-2], dtype=bool)
    mask[keep] = True
    phi[..., ~mask, :] = 0.0
    return phi


def _realization_stats(
    uc,
    uc_params: np.ndarray,
    ur,
    ur_params: np.ndarray,
    keep: np.ndarray,
    amplitudes: np.ndarray,
    model: NoiseModel,
    seed: int,
    epoch: int,
    lo: int,
    hi: int,
    kept: bool = False,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exact (probabilities, fidelity, transmission) of realizations
    ``[lo, hi)``, in one stacked pass per block of :func:`_block_size`.

    Each block folds each mesh once (the first block of a ``kept`` pass,
    which starts at 0, through :func:`_kept_folds`) and makes one
    :func:`channel_probabilities` call over its realizations.  The first
    block's fold row 0 is the clean mesh: its output, normalized per
    column (guarding collapse to zero), is the fidelity reference.  Every
    realization is keyed on its own index (see :func:`realization_rng`)
    and every step is slice-exact, so the values do not depend on how the
    range is split.
    """

    def folds(mesh, params, stream, start, stop, clean_row):
        if kept and start == 0:
            return _kept_folds(mesh, params, model, seed, epoch, stream, stop)
        jitter = _mesh_jitter(mesh, model, seed, epoch, stream, start, stop)
        return _mesh_folds(mesh, params, model, jitter, stop - start, clean_row)

    block = _block_size(
        uc.dim, max(uc.num_layers, ur.num_layers), amplitudes.shape[1]
    )
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    reference = None
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        first = int(reference is None)
        ucs = folds(uc, uc_params, STREAM_UC, start, stop, first)
        urs = folds(ur, ur_params, STREAM_UR, start, stop, first)
        phi = _masked_compress(ucs, amplitudes, keep)
        if reference is None:
            b_clean = urs[0] @ phi[0]
            norms = np.linalg.norm(b_clean, axis=0)
            reference = b_clean / np.where(norms > 0.0, norms, 1.0)
        probs, fid = channel_probabilities(
            urs[first:], phi[first:], model, reference=reference
        )
        assert fid is not None
        out.extend((p, f, p.sum(axis=0)) for p, f in zip(probs, fid))
    return out


def _trajectory_shard_task(payload) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Worker task: realizations ``[lo, hi)`` of a trajectory sweep."""
    from repro.parallel.reducer import _worker_network

    (
        uc_struct,
        uc_params,
        ur_struct,
        ur_params,
        keep,
        amplitudes,
        model_dict,
        seed,
        epoch,
        lo,
        hi,
    ) = payload
    return _realization_stats(
        _worker_network(uc_struct),
        uc_params,
        _worker_network(ur_struct),
        ur_params,
        keep,
        amplitudes,
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
    uc_params = uc.get_flat_params()
    ur_params = ur.get_flat_params()
    keep = np.asarray(autoencoder.projection.keep, dtype=np.int64)

    per_realization: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if pool is not None and pool.processes > 1 and K > 1:
        from repro.parallel.reducer import _network_struct
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
            uc,
            uc_params,
            ur,
            ur_params,
            keep,
            amplitudes,
            model,
            int(seed),
            int(epoch),
            0,
            K,
            kept=True,
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
