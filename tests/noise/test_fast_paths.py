"""Each stacked fast path of the noisy evaluation against its plain form.

The trajectory path draws its jitter for a range of realizations at
once, its shots in one multinomial call and its channel over a stack of
realizations, in blocks sized by the element budget.  Each test here
pins one of them to the straightforward per-item computation, *bitwise*:
a changed draw or a reordered sum would move every reported noisy
metric.
"""

import numpy as np
import pytest

from repro.backends.cached import ELEMENT_BUDGET
from repro.network.autoencoder import QuantumAutoencoder
from repro.noise import NOISE_PRESETS, NoiseModel, draw_jitter, trajectory_forward
from repro.noise import trajectory
from repro.noise.trajectory import (
    _FOLD_BLOCK,
    _SPAWN_TAG,
    _block_size,
    channel_probabilities,
    jitter_block,
    measure_probabilities,
    realization_rng,
)
from repro.parallel import WorkerPool

def canonical_rng(seed, epoch, realization, stream):
    return np.random.default_rng(
        np.random.SeedSequence(
            seed, spawn_key=(_SPAWN_TAG, stream, epoch, realization)
        )
    )


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRealizationRng:
    def test_keyed_on_the_documented_spawn_key(self):
        big = (0, 2**32 + 9, 2**64 + 1)
        for seed in big:
            for epoch in big:
                for realization in big:
                    fast = realization_rng(seed, epoch, realization, 2)
                    ref = canonical_rng(seed, epoch, realization, 2)
                    assert same(fast.normal(size=3), ref.normal(size=3))


class TestJitterBlock:
    def test_rows_are_the_keyed_draws(self):
        block = jitter_block(7, 0.03, seed=5, epoch=2, lo=3, hi=9, stream=1)
        assert block.shape == (6, 7)
        for i, r in enumerate(range(3, 9)):
            ref = canonical_rng(5, 2, r, 1).normal(0.0, 0.03, size=7)
            assert same(block[i], ref)

    def test_split_invariant_and_draw_jitter_is_one_row(self):
        full = jitter_block(6, 0.1, 3, 0, 0, 8, 1)
        for lo in range(8):
            for hi in range(lo + 1, 9):
                assert same(full[lo:hi], jitter_block(6, 0.1, 3, 0, lo, hi, 1))
        eps = draw_jitter(10, 6, 0.1, seed=3, epoch=0, realization=4, stream=1)
        assert same(eps[:6], full[4])
        assert not eps[6:].any()


def loop_measure(probabilities, shots, rng):
    """The per-column reference: skip dead columns, draw the rest in order."""
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


class TestMeasureProbabilities:
    @pytest.mark.parametrize("shots", [1, 37, 8192])
    @pytest.mark.parametrize("dim", [2, 5, 16, 33])
    def test_matches_column_loop_draw_for_draw(self, shots, dim):
        gen = np.random.default_rng(dim)
        p = np.abs(gen.normal(size=(dim, 29)))
        p /= gen.uniform(0.9, 1.4, size=29) * p.sum(axis=0)  # sub-normalized
        p[:, 3] = 0.0  # dark column: skipped, draws nothing
        p[:, 8] = -0.25  # all negative: clipped to a dark column
        p[0, 11] = -1e-3  # one negative entry clipped to zero
        p[:, 28] = 0.0
        fast_rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        assert same(
            measure_probabilities(p, shots, fast_rng),
            loop_measure(p, shots, ref_rng),
        )
        # Both consumed the same draws: the streams stay in step.
        assert same(fast_rng.random(4), ref_rng.random(4))

    def test_vector_and_all_dark_inputs(self):
        p = np.array([0.2, 0.5, 0.1])
        assert same(
            measure_probabilities(p, 50, np.random.default_rng(2)),
            loop_measure(p, 50, np.random.default_rng(2)),
        )
        dark = np.zeros((4, 3))
        rng = np.random.default_rng(3)
        assert not measure_probabilities(dark, 9, rng).any()
        assert same(rng.random(2), np.random.default_rng(3).random(2))


@pytest.fixture(scope="module")
def stack():
    gen = np.random.default_rng(4)
    dim, k, m = 8, 5, 7
    decode = gen.normal(size=(k, dim, dim)) * 0.3
    phi = gen.normal(size=(k, dim, m))
    phi[:, 5:, :] = 0.0  # projected modes
    reference = gen.normal(size=(dim, m))
    reference /= np.linalg.norm(reference, axis=0)
    return decode, phi, reference


class TestStackedChannel:
    @pytest.mark.parametrize("dephasing", [0.0, 0.07])
    @pytest.mark.parametrize("depolarizing", [0.0, 0.03])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_slices_equal_single_calls(
        self, stack, dephasing, depolarizing, with_reference
    ):
        decode, phi, reference = stack
        model = NoiseModel(dephasing=dephasing, depolarizing=depolarizing)
        ref = reference if with_reference else None
        probs, fid = channel_probabilities(decode, phi, model, reference=ref)
        assert probs.shape == phi.shape
        for r in range(decode.shape[0]):
            p1, f1 = channel_probabilities(decode[r], phi[r], model, reference=ref)
            assert same(probs[r], p1)
            if with_reference:
                assert same(fid[r], f1)
        assert (fid is None) == (not with_reference)

    @pytest.mark.parametrize("columns", [1, 2, 25])
    def test_shared_state_broadcasts(self, stack, columns):
        decode = stack[0]
        gen = np.random.default_rng(columns)
        shared = gen.normal(size=(8, columns))
        reference = gen.normal(size=(8, columns))
        model = NOISE_PRESETS["harsh"]
        probs, fid = channel_probabilities(decode, shared, model, reference)
        for r in range(decode.shape[0]):
            p1, f1 = channel_probabilities(decode[r], shared, model, reference)
            assert same(probs[r], p1)
            assert same(fid[r], f1)


@pytest.fixture(scope="module")
def ae():
    ae = QuantumAutoencoder(8, 3, 4, 4, backend="fused")
    return ae.initialize("uniform", rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def amplitudes():
    a = np.abs(np.random.default_rng(5).normal(size=(8, 6))) + 0.1
    return a / np.linalg.norm(a, axis=0, keepdims=True)


class TestBlockSize:
    def test_paper_shapes_use_full_blocks(self):
        assert _block_size(16, 12, 25) == _FOLD_BLOCK

    @pytest.mark.parametrize("columns", [10**5, 10**6, 10**8])
    def test_wide_batches_stay_within_budget(self, columns):
        block = _block_size(16, 12, columns)
        assert 1 <= block < _FOLD_BLOCK
        assert block == 1 or block * 16 * columns <= ELEMENT_BUDGET

    def test_deep_meshes_stay_within_budget(self):
        block = _block_size(64, 400, 25)
        assert block * 400 * 64 * 64 <= ELEMENT_BUDGET

    def test_wide_call_splits_into_blocks_bitwise(self, ae, monkeypatch):
        gen = np.random.default_rng(8)
        wide = np.abs(gen.normal(size=(8, 200))) + 0.1
        wide /= np.linalg.norm(wide, axis=0)
        model = NOISE_PRESETS["harsh"]
        whole = trajectory_forward(ae, wide, model, trajectories=8, seed=2)
        # A budget of three (N, M) slices: blocks of 3, 3 and 2.
        monkeypatch.setattr(trajectory, "ELEMENT_BUDGET", 3 * 8 * 200)
        stacks = []

        def counting(decode, phi, model, reference=None):
            stacks.append(decode.shape[0])
            return channel_probabilities(decode, phi, model, reference)

        monkeypatch.setattr(trajectory, "channel_probabilities", counting)
        split = trajectory_forward(ae, wide, model, trajectories=8, seed=2)
        assert stacks == [3, 3, 2]
        for field in ("probabilities", "fidelity", "transmission"):
            assert same(getattr(whole, field), getattr(split, field))


@pytest.mark.slow
class TestTrajectoryPoolDeterminism:
    """pool:2 == in-process, bitwise, across the fold-block boundary
    (K = 70 and 130 span two and three blocks of 64)."""

    @pytest.fixture(scope="class")
    def pool(self):
        with WorkerPool(2) as pool:
            yield pool

    @pytest.mark.parametrize("name", ["mild", "lossy", "harsh"])
    @pytest.mark.parametrize("K", [1, 3, 8, 70, 130])
    def test_pool_equals_in_process(self, pool, ae, amplitudes, name, K):
        model = NOISE_PRESETS[name]
        single = trajectory_forward(
            ae, amplitudes, model, trajectories=K, seed=4, epoch=1
        )
        sharded = trajectory_forward(
            ae, amplitudes, model, trajectories=K, seed=4, epoch=1, pool=pool
        )
        for field in ("probabilities", "fidelity", "transmission"):
            assert same(getattr(single, field), getattr(sharded, field))
        assert single.trajectories == sharded.trajectories == K
