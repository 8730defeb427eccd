"""The kept noisy folds: one entry per stream, refolded only when stale.

``data/codec_noisy.npz`` is a small :meth:`Codec.save` archive (8 modes,
d = 3, 4/5 layers, fused) fitted for 5 iterations (seed 11) on the 10
rows of ``data/evaluate_expected.npz["X"]``.  That file holds what the
codec returned before noisy evaluation kept any folds:

- ``evaluate_<model>_<K>``: the values of
  ``Codec.evaluate(X, noise=model, noise_trajectories=K, noise_seed=3)``
  in the sorted order of ``keys``;
- ``session_<model>_<K>``: the first ``reconstruct(X)`` of a session
  built with the same noise, ``K`` and seed.

Every result here must equal those bitwise, on a first call and on a
repeated one, whatever the kept entries held before.
"""

import gc
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.api import Codec
from repro.noise import NOISE_PRESETS, NoiseModel, evaluate_noisy, trajectory_forward
from repro.noise import trajectory
from repro.noise.trajectory import STREAM_UC, STREAM_UR
from repro.parallel import WorkerPool

DATA = Path(__file__).parent / "data"
MODELS = {
    "mild": "mild",
    "lossy": "lossy",
    "harsh": "harsh",
    "nojitter": {"loss_per_gate": 0.01, "dephasing": 0.05, "depolarizing": 0.02},
}
SEED = 3


@pytest.fixture(scope="module")
def expected():
    with np.load(DATA / "evaluate_expected.npz") as archive:
        return dict(archive)


@pytest.fixture(autouse=True)
def no_kept_folds(monkeypatch):
    """Each test starts with no kept entries and leaves none behind."""
    monkeypatch.setattr(trajectory, "_KEPT", {})


@pytest.fixture
def codec():
    return Codec.load(DATA / "codec_noisy.npz")


def cold_codec():
    """A fresh codec with nothing kept for it: the entries are shared by
    every codec in the process, so they are dropped too."""
    trajectory._KEPT.clear()
    return Codec.load(DATA / "codec_noisy.npz")


def evaluate(codec, X, name, K, **kwargs):
    return codec.evaluate(
        X, noise=MODELS[name], noise_trajectories=K, noise_seed=SEED, **kwargs
    )


def values(scores, expected):
    return np.array([scores[key] for key in expected["keys"]])


def entry(stream):
    return trajectory._KEPT.get(stream)


def moved(codec, delta):
    """Both meshes' parameters shifted by ``delta`` through the setter."""
    for net in (codec.autoencoder.uc, codec.autoencoder.ur):
        net.set_flat_params(net.get_flat_params() + delta)
    return codec


class TestParentFixture:
    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("K", [1, 8, 70])
    def test_first_and_repeated_calls(self, codec, expected, name, K):
        X, want = expected["X"], expected[f"evaluate_{name}_{K}"]
        first = evaluate(codec, X, name, K)
        assert entry(STREAM_UC) is not None
        assert np.array_equal(values(first, expected), want)
        assert evaluate(codec, X, name, K) == first

    @pytest.mark.slow
    def test_pool_of_two(self, codec, expected):
        X = expected["X"]
        with WorkerPool(2) as pool:
            for name in MODELS:
                for K in (1, 8, 70):
                    want = expected[f"evaluate_{name}_{K}"]
                    inproc = evaluate(codec, X, name, K)
                    sharded = evaluate(codec, X, name, K, pool=pool)
                    assert np.array_equal(values(sharded, expected), want)
                    assert sharded == inproc == evaluate(codec, X, name, K)


class TestInvalidation:
    def test_setter_refolds_and_reuses_the_jitter(self, codec, expected):
        X = expected["X"]
        stale = evaluate(codec, X, "lossy", 8)
        before = entry(STREAM_UC)
        warm = evaluate(moved(codec, 1e-3), X, "lossy", 8)
        after = entry(STREAM_UC)
        assert after.folds is not before.folds
        assert after.jitter is before.jitter
        cold = evaluate(moved(cold_codec(), 1e-3), X, "lossy", 8)
        assert warm == cold
        assert warm != stale

    @pytest.mark.parametrize("mesh", ["uc", "ur"])
    def test_direct_theta_edit_refolds(self, codec, expected, mesh):
        X = expected["X"]
        stale = evaluate(codec, X, "mild", 8)
        thetas = getattr(codec.autoencoder, mesh).layers[1].thetas
        original = thetas[2]
        thetas[2] += 0.05
        warm = evaluate(codec, X, "mild", 8)
        cold = cold_codec()
        getattr(cold.autoencoder, mesh).layers[1].thetas[2] += 0.05
        assert warm == evaluate(cold, X, "mild", 8)
        assert warm != stale
        # Edited back, the parameters match the first fold again.
        thetas[2] = original
        assert np.array_equal(
            values(evaluate(codec, X, "mild", 8), expected),
            expected["evaluate_mild_8"],
        )


class TestKeyChanges:
    @pytest.mark.parametrize(
        "change",
        [
            {"model": NOISE_PRESETS["harsh"]},
            {"trajectories": 5},
            {"seed": SEED + 1},
            {"epoch": 1},
        ],
        ids=["model", "K", "seed", "epoch"],
    )
    def test_each_key_field_refolds(self, codec, expected, change):
        ae = codec.autoencoder
        amplitudes = ae.codec.encode(expected["X"]).amplitudes()
        base = {
            "model": NOISE_PRESETS["mild"],
            "trajectories": 8,
            "seed": SEED,
            "epoch": 0,
        }
        trajectory_forward(ae, amplitudes, **base)
        before = entry(STREAM_UR)
        args = dict(base, **change)
        warm = trajectory_forward(ae, amplitudes, **args)
        after = entry(STREAM_UR)
        assert after.folds is not before.folds
        assert after.key != before.key
        cold = trajectory_forward(cold_codec().autoencoder, amplitudes, **args)
        for field in ("probabilities", "fidelity", "transmission"):
            assert np.array_equal(getattr(warm, field), getattr(cold, field))

    @pytest.mark.parametrize(
        "change",
        [{"dephasing": 0.3}, {"depolarizing": 0.2}, {"shots": 500}],
        ids=["dephasing", "depolarizing", "shots"],
    )
    def test_wire_and_shot_changes_reuse_the_folds(self, codec, expected, change):
        ae = codec.autoencoder
        amplitudes = ae.codec.encode(expected["X"]).amplitudes()
        mild = NOISE_PRESETS["mild"]
        trajectory_forward(ae, amplitudes, mild, trajectories=8, seed=SEED)
        before = entry(STREAM_UR)
        model = NoiseModel.from_dict(dict(mild.to_dict(), **change))
        warm = trajectory_forward(ae, amplitudes, model, trajectories=8, seed=SEED)
        assert entry(STREAM_UR) is before
        trajectory._KEPT.clear()
        cold = trajectory_forward(ae, amplitudes, model, trajectories=8, seed=SEED)
        for field in ("probabilities", "fidelity", "transmission"):
            assert np.array_equal(getattr(warm, field), getattr(cold, field))

    def test_evaluate_noisy_epoch_is_keyed(self, codec, expected):
        ae, X = codec.autoencoder, expected["X"]
        zero = evaluate_noisy(ae, X, NOISE_PRESETS["mild"], trajectories=8, seed=SEED)
        one = evaluate_noisy(
            ae, X, NOISE_PRESETS["mild"], trajectories=8, seed=SEED, epoch=1
        )
        assert entry(STREAM_UC).key[5] == 1
        assert one != zero


class TestNoAliasing:
    def test_kept_arrays_are_read_only_and_results_are_not_views(
        self, codec, expected
    ):
        ae = codec.autoencoder
        amplitudes = ae.codec.encode(expected["X"]).amplitudes()
        result = trajectory_forward(
            ae, amplitudes, NOISE_PRESETS["harsh"], trajectories=8, seed=SEED
        )
        for stream in (STREAM_UC, STREAM_UR):
            kept = entry(stream)
            for arr in (kept.folds, kept.jitter):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0
            for arr in (result.probabilities, result.fidelity, result.transmission):
                assert not np.shares_memory(arr, kept.folds)


class TestSession:
    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("K", [1, 8])
    @pytest.mark.parametrize("order", ["before", "after"])
    def test_session_beside_evaluate(self, codec, expected, name, K, order):
        X = expected["X"]
        if order == "after":
            evaluate(codec, X, name, K)
        session = codec.session(
            noise=MODELS[name], noise_trajectories=K, noise_seed=SEED,
            max_batch_size=1, flush_latency=None,
        )
        try:
            assert np.array_equal(
                session.reconstruct(X), expected[f"session_{name}_{K}"]
            )
        finally:
            session.close()
        assert np.array_equal(
            values(evaluate(codec, X, name, K), expected),
            expected[f"evaluate_{name}_{K}"],
        )


class TestBudget:
    def test_over_budget_k_is_not_kept(self, codec, expected, monkeypatch):
        # Room for the clean row, 8 realizations and their jitter rows of
        # the 8-mode, 5-layer U_R, so the first K = 70 block is too large.
        monkeypatch.setattr(trajectory, "_KEEP_ELEMENTS", 9 * (8 * 8 + 5 * 7))
        X = expected["X"]
        for K in (70, 8):
            scores = evaluate(codec, X, "lossy", K)
            assert np.array_equal(
                values(scores, expected), expected[f"evaluate_lossy_{K}"]
            )
            kept = entry(STREAM_UR)
            assert (kept is not None and kept.key[3] == K) == (K == 8)


class TestThreads:
    def test_two_seeds_on_one_codec(self, codec, expected):
        X = expected["X"]

        def scores(seed):
            return codec.evaluate(
                X, noise="harsh", noise_trajectories=8, noise_seed=seed
            )

        want = {seed: scores(seed) for seed in (1, 2)}
        barrier = threading.Barrier(2)
        got = {1: [], 2: []}

        def run(seed):
            barrier.wait()
            for _ in range(40):
                got[seed].append(scores(seed))

        threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for seed in (1, 2):
            assert len(got[seed]) == 40
            assert all(g == want[seed] for g in got[seed])


def test_noise_aware_training_leaves_no_entry():
    codec = Codec(
        dim=8, compressed_dim=3, compression_layers=2, reconstruction_layers=2,
        backend="fused", iterations=2, seed=5, noise="mild",
        noise_trajectories=3,
    )
    X = np.abs(np.random.default_rng(5).normal(size=(6, 8))) + 0.05
    codec.fit(X)
    assert trajectory._KEPT == {}


def test_entries_do_not_keep_their_codecs(expected):
    codecs = [Codec.load(DATA / "codec_noisy.npz") for _ in range(3)]
    for codec in codecs:
        evaluate(codec, expected["X"], "mild", 8)
    assert sorted(trajectory._KEPT) == sorted((STREAM_UC, STREAM_UR))
    meshes = [weakref.ref(c.autoencoder.uc) for c in codecs]
    del codec, codecs
    gc.collect()
    assert all(mesh() is None for mesh in meshes)


def test_streams_key_separate_entries(codec, expected):
    from repro.parallel.reducer import _network_struct

    evaluate(codec, expected["X"], "mild", 8)
    ae, mild = codec.autoencoder, NoiseModel.from_spec("mild")
    assert entry(STREAM_UC).key[0] == _network_struct(ae.uc)
    assert entry(STREAM_UR).key[0] == _network_struct(ae.ur)
    assert entry(STREAM_UC).key[1:3] == (mild.theta_sigma, mild.loss_per_gate)
