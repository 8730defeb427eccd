"""Tests for repro.parallel.pool — lifecycle, transfer, clean shutdown.

Tests that actually spawn worker processes are marked ``slow`` (each
spawn re-imports numpy in the child); the cheap contract checks run
unconditionally.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.parallel.pool as pool_module
from repro.exceptions import DimensionError, ExperimentError, WorkerSpawnError
from repro.parallel.pool import (
    _BLAS_ENV_VARS,
    WorkerPool,
    _check_main_importable,
    default_worker_count,
)


def _blas_env_probe(_):
    """Worker-side probe: the BLAS thread caps this worker was spawned with."""
    return [os.environ.get(var) for var in _BLAS_ENV_VARS]


class TestDefaults:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_affinity_mask_respected(self):
        # On Linux the affinity mask is the authoritative CPU budget
        # (containerized CI may expose fewer CPUs than the host has).
        import os

        if hasattr(os, "sched_getaffinity"):
            assert default_worker_count() == len(os.sched_getaffinity(0))

    def test_invalid_process_count_rejected(self):
        with pytest.raises(ExperimentError):
            WorkerPool(processes=0)

    def test_construction_spawns_nothing(self):
        pool = WorkerPool(processes=2)
        assert not pool.running
        assert "idle" in repr(pool)

    def test_zero_width_batch_short_circuits(self):
        """Empty batches follow chunked_apply's contract (and must not
        spawn workers just to compute nothing)."""
        pool = WorkerPool(processes=2)
        out = pool.apply_dense(np.ones((3, 4)), np.empty((4, 0)))
        assert out.shape == (3, 0)
        data = np.empty((5, 0))
        assert pool.scatter_gather(len, data) is data
        assert not pool.running

    def test_empty_map_returns_without_spawning(self):
        """``map([])`` answers ``[]`` directly — no workers for no work."""
        pool = WorkerPool(processes=2)
        assert pool.map(len, []) == []
        assert pool.map(len, iter(())) == []
        assert not pool.running

    def test_apply_dense_validates_shapes_before_spawn(self):
        pool = WorkerPool(processes=2)
        with pytest.raises(DimensionError):
            pool.apply_dense(np.ones((3, 4)), np.ones((5, 6)))
        with pytest.raises(DimensionError):
            pool.apply_dense(
                np.ones((3, 4)), np.ones((4, 6)), out=np.empty((3, 5))
            )
        with pytest.raises(DimensionError):
            pool.apply_dense(
                np.ones((3, 4)),
                np.ones((4, 6)),
                out=np.empty((3, 6), dtype=np.int64),
            )
        assert not pool.running  # validation never started workers


@pytest.mark.slow
class TestUnimportableMain:
    """Spawned workers re-import ``__main__``; a script read from stdin has
    no file to re-import, so the pool must raise instead of respawning
    dead workers forever."""

    def _fake_main(self, monkeypatch, file, spec_name=None):
        main = types.ModuleType("__main__")
        main.__spec__ = (
            None if spec_name is None else types.SimpleNamespace(name=spec_name)
        )
        if file is not None:
            main.__file__ = file
        monkeypatch.setitem(sys.modules, "__main__", main)

    def test_stdin_main_raises_before_any_worker(self, monkeypatch):
        self._fake_main(monkeypatch, "<stdin>")
        # A stub context: were the check skipped, start() would fail on
        # it instead of spawning workers that re-import this fake main.
        contexts = []
        monkeypatch.setattr(pool_module, "get_context", contexts.append)
        pool = WorkerPool(processes=2)
        with pytest.raises(WorkerSpawnError, match="<stdin>"):
            pool.map(len, [[1]])
        assert contexts == []
        assert not pool.running

    def test_missing_absolute_main_raises(self, monkeypatch, tmp_path):
        self._fake_main(monkeypatch, str(tmp_path / "gone.py"))
        with pytest.raises(WorkerSpawnError, match="gone.py"):
            _check_main_importable()

    @pytest.mark.parametrize("case", ["file", "module", "interactive"])
    def test_importable_mains_pass(self, monkeypatch, case):
        if case == "file":
            self._fake_main(monkeypatch, __file__)
        elif case == "module":
            self._fake_main(monkeypatch, "<stdin>", spec_name="pkg.__main__")
        else:
            self._fake_main(monkeypatch, None)
        _check_main_importable()

    @pytest.mark.slow
    def test_python_stdin_script_exits_with_error(self):
        script = (
            "from repro.parallel import WorkerPool\n"
            "print(WorkerPool(2).map(len, [[1], [2, 3]]))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(script, timeout=60)
        except subprocess.TimeoutExpired:
            # Kill the whole session, respawned workers included.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a WorkerPool started from stdin hung")
        assert proc.returncode != 0
        assert "WorkerSpawnError" in err


class TestPoolExecution:
    @pytest.fixture(scope="class")
    def pool(self):
        with WorkerPool(processes=2) as pool:
            yield pool

    def test_map_ordered(self, pool):
        assert pool.map(len, [[1, 2], [3], []]) == [2, 1, 0]

    def test_apply_dense_matches_matmul(self, pool, rng):
        m = rng.normal(size=(5, 8))
        x = rng.normal(size=(8, 97))
        assert np.allclose(pool.apply_dense(m, x), m @ x)

    def test_apply_dense_complex_promotion(self, pool, rng):
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 33)) + 1j * rng.normal(size=(4, 33))
        out = pool.apply_dense(m, x)
        assert out.dtype == np.complex128
        assert np.allclose(out, m @ x)

    def test_apply_dense_caller_out_buffer(self, pool, rng):
        m = rng.normal(size=(3, 6))
        x = rng.normal(size=(6, 41))
        out = np.empty((3, 41))
        result = pool.apply_dense(m, x, out=out)
        assert result is out
        assert np.allclose(out, m @ x)

    def test_apply_dense_does_not_mutate_input(self, pool, rng):
        m = rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 29))
        x_before = x.copy()
        pool.apply_dense(m, x)
        assert np.array_equal(x, x_before)

    def test_operator_shipped_once(self, pool, rng):
        m = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 20))
        pool.apply_dense(m, x)
        segments_after_first = set(pool._state["segments"])
        cached_after_first = len(pool._operator_names)
        pool.apply_dense(m, rng.normal(size=(4, 30)))
        # Same operator content -> same cached segment, no second copy.
        assert set(pool._state["segments"]) == segments_after_first
        assert len(pool._operator_names) == cached_after_first

    def test_min_columns_forwarded(self, pool, rng):
        m = rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 10))
        assert np.allclose(
            pool.apply_dense(m, x, min_columns=10), m @ x
        )


@pytest.mark.slow
class TestPoolLifecycle:
    def test_close_reaps_workers_and_segments(self, rng):
        pool = WorkerPool(processes=2)
        pool.apply_dense(rng.normal(size=(3, 3)), rng.normal(size=(3, 12)))
        assert pool.running
        assert len(pool._state["segments"]) == 1  # the cached operator
        pool.close()
        assert not pool.running
        assert pool._state["segments"] == {}
        assert pool._operator_names == {}
        assert mp.active_children() == []

    def test_close_idempotent_and_restartable(self):
        pool = WorkerPool(processes=2)
        assert pool.map(len, [[1]]) == [1]
        pool.close()
        pool.close()
        # The pool respawns lazily after close (deploy-cycle friendly).
        assert pool.map(len, [[1, 2]]) == [2]
        pool.close()
        assert mp.active_children() == []

    def test_context_manager_closes(self):
        with WorkerPool(processes=2) as pool:
            pool.map(len, [[1]])
            assert pool.running
        assert not pool.running
        assert mp.active_children() == []

    def test_workers_pinned_to_one_blas_thread(self, monkeypatch):
        """Workers spawn with every BLAS cap at 1; the parent's own
        environment is restored once they are up."""
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with WorkerPool(processes=2) as pool:
            probes = pool.map(_blas_env_probe, list(range(4)))
            assert os.environ["OMP_NUM_THREADS"] == "4"
            assert "MKL_NUM_THREADS" not in os.environ
        assert all(caps == ["1"] * len(_BLAS_ENV_VARS) for caps in probes)

    def test_finalizer_shuts_down_on_gc(self):
        pool = WorkerPool(processes=2)
        pool.map(len, [[1]])
        state = pool._state
        del pool
        import gc

        gc.collect()
        assert state["pool"] is None
        assert state["segments"] == {}
        assert mp.active_children() == []


def _sleepy(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


class TestDrainHook:
    def test_fresh_pool_is_idle(self):
        pool = WorkerPool(processes=2)
        assert pool.inflight == 0
        assert pool.drain(timeout=0.01) is True
        assert not pool.running  # drain alone never spawns workers


@pytest.mark.slow
class TestDrainUnderLoad:
    def test_drain_waits_for_inflight_map(self):
        """The serving front-end's shutdown hook: drain() times out
        while a map is in flight, succeeds once it lands, and the pool
        stays usable afterwards."""
        import threading
        import time

        with WorkerPool(processes=2) as pool:
            pool.map(len, [[1]])  # spawn workers up front
            done = []

            def run():
                done.append(pool.map(_sleepy, [0.4]))

            thread = threading.Thread(target=run)
            thread.start()
            deadline = time.monotonic() + 5.0
            while pool.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert pool.inflight == 1
            assert pool.drain(timeout=0.05) is False  # map still running
            assert pool.drain(timeout=10.0) is True
            thread.join(timeout=10.0)
            assert done == [[0.4]]
            assert pool.inflight == 0
            assert pool.map(len, [[1, 2]]) == [2]  # still serviceable
