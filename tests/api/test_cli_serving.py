"""CLI lifecycle tests: train / compress / decompress / serve-bench,
--version and exit-code handling."""

import json

import numpy as np
import pytest

from repro.api import Codec
from repro.data.binary_images import paper_dataset
from repro.exceptions import BackendError
from repro.experiments.cli import main
from repro.io.results_io import load_results, save_results


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One 5-iteration trained checkpoint shared across the module."""
    path = tmp_path_factory.mktemp("ckpt") / "model.npz"
    code = main([
        "train", "--checkpoint", str(path), "--iterations", "5",
        "--backend", "fused",
    ])
    assert code == 0
    return path


class TestExitCodes:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "repro 1." in capsys.readouterr().out

    def test_unknown_subcommand_returns_2_with_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_no_subcommand_returns_2(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert "serve-bench" in capsys.readouterr().out

    def test_missing_checkpoint_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        assert main([
            "compress", "--checkpoint", str(tmp_path / "nope.npz"),
            "--output", str(tmp_path / "codes.json"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_input_without_x_key_is_an_error(
        self, checkpoint, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        save_results({"Y": np.ones((2, 16))}, bad)
        assert main([
            "compress", "--checkpoint", str(checkpoint),
            "--input", str(bad), "--output", str(tmp_path / "c.json"),
        ]) == 1
        assert "'X'" in capsys.readouterr().err

    def test_checkpoint_naming_an_unknown_backend_is_an_error(
        self, checkpoint, tmp_path, capsys
    ):
        """A checkpoint archived on a backend this build does not ship
        (here ``numba``) fails with the registry's message, no traceback."""
        with np.load(checkpoint) as archive:
            meta = json.loads(archive["meta"].tobytes().decode())
            params = archive["params"]
        meta["backend"] = "numba"
        meta["extra"]["spec"]["backend"] = "numba"
        stale = tmp_path / "stale.npz"
        np.savez(
            stale,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            params=params,
        )
        with pytest.raises(BackendError, match="unknown backend 'numba'"):
            Codec.load(stale)
        assert main([
            "compress", "--checkpoint", str(stale),
            "--output", str(tmp_path / "codes.json"),
        ]) == 1
        assert "unknown backend 'numba'" in capsys.readouterr().err


class TestTrain:
    def test_train_writes_loadable_checkpoint(self, checkpoint, capsys):
        codec = Codec.load(checkpoint)
        assert codec.spec.iterations == 5
        assert codec.spec.backend == "fused"
        X = paper_dataset().matrix()
        assert codec.decompress(codec.compress(X)).shape == X.shape

    def test_train_archives_summary(self, tmp_path, capsys):
        out = tmp_path / "train.json"
        code = main([
            "train", "--checkpoint", str(tmp_path / "m.npz"),
            "--iterations", "2", "--backend", "fused",
            "--output", str(out),
        ])
        assert code == 0
        results = load_results(out)
        assert "loss_r" in results and "accuracy" in results


class TestCompressDecompress:
    def test_round_trip_through_files(self, checkpoint, tmp_path, capsys):
        codes = tmp_path / "codes.json"
        recon = tmp_path / "recon.json"
        assert main([
            "compress", "--checkpoint", str(checkpoint),
            "--output", str(codes),
        ]) == 0
        payload = load_results(codes)
        assert np.asarray(payload["codes"]).shape[0] == 4
        assert main([
            "decompress", "--checkpoint", str(checkpoint),
            "--codes", str(codes), "--output", str(recon),
        ]) == 0
        x_hat = np.asarray(load_results(recon)["x_hat"])
        codec = Codec.load(checkpoint)
        X = paper_dataset().matrix()
        assert np.array_equal(x_hat, codec.forward(X).x_hat)

    def test_compress_custom_input(self, checkpoint, tmp_path, capsys):
        data = tmp_path / "data.json"
        codes = tmp_path / "codes.json"
        X = np.abs(np.random.default_rng(3).normal(size=(7, 16))) + 0.1
        save_results({"X": X}, data)
        assert main([
            "compress", "--checkpoint", str(checkpoint),
            "--input", str(data), "--output", str(codes),
        ]) == 0
        payload = load_results(codes)
        assert np.asarray(payload["codes"]).shape == (4, 7)

    def test_complex_codes_survive_json(self, tmp_path, capsys):
        ckpt = tmp_path / "complex.npz"
        codes = tmp_path / "codes.json"
        assert main([
            "train", "--checkpoint", str(ckpt), "--iterations", "2",
            "--backend", "fused", "--allow-phase",
        ]) == 0
        assert main([
            "compress", "--checkpoint", str(ckpt), "--output", str(codes),
        ]) == 0
        payload = load_results(codes)
        assert "codes_real" in payload and "codes_imag" in payload
        assert main([
            "decompress", "--checkpoint", str(ckpt), "--codes", str(codes),
        ]) == 0


class TestServeBench:
    def test_serve_bench_runs_and_reports(self, checkpoint, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "serve-bench", "--checkpoint", str(checkpoint),
            "--requests", "16", "--max-batch", "8", "--output", str(out),
        ]) == 0
        results = load_results(out)
        assert results["requests"] == 16
        assert results["ticks"] == 2
        assert results["speedup"] > 0
        assert "req/s" in capsys.readouterr().out
