"""Tests for repro.experiments.ablations (reduced budgets)."""

import numpy as np
import pytest

from repro.experiments import ablations
from repro.experiments.config import PaperConfig


@pytest.fixture(scope="module")
def quick_cfg():
    return PaperConfig(
        iterations=15, compression_layers=6, reconstruction_layers=8
    )


class TestGradientComparison:
    def test_all_methods_reported(self, quick_cfg):
        records = ablations.gradient_method_comparison(quick_cfg)
        assert {r["method"] for r in records} == {
            "fd",
            "central",
            "adjoint",
        }

    def test_exact_methods_zero_error(self, quick_cfg):
        records = ablations.gradient_method_comparison(quick_cfg)
        by_method = {r["method"]: r for r in records}
        assert by_method["adjoint"]["max_error_vs_adjoint"] == 0.0

    def test_fd_error_small_but_nonzero(self, quick_cfg):
        records = ablations.gradient_method_comparison(quick_cfg)
        by_method = {r["method"]: r for r in records}
        assert 0.0 < by_method["fd"]["max_error_vs_adjoint"] < 1e-4

    def test_adjoint_fastest(self, quick_cfg):
        records = ablations.gradient_method_comparison(quick_cfg)
        by_method = {r["method"]: r for r in records}
        assert (
            by_method["adjoint"]["seconds_per_gradient"]
            < by_method["fd"]["seconds_per_gradient"]
        )


class TestSweeps:
    def test_layer_sweep_records(self, quick_cfg):
        records = ablations.layer_sweep(quick_cfg, layer_counts=(2, 4))
        assert [r["compression_layers"] for r in records] == [2, 4]
        assert all("accuracy_pct" in r for r in records)

    def test_learning_rate_sweep(self, quick_cfg):
        records = ablations.learning_rate_sweep(quick_cfg, rates=(0.01, 0.05))
        assert [r["learning_rate"] for r in records] == [0.01, 0.05]

    def test_compression_dim_sweep_monotone_ratio(self, quick_cfg):
        records = ablations.compression_dim_sweep(quick_cfg, dims=(2, 4))
        ratios = [r["compression_ratio"] for r in records]
        assert ratios == sorted(ratios)

    def test_initializer_comparison(self, quick_cfg):
        records = ablations.initializer_comparison(
            quick_cfg, methods=("uniform", "zeros")
        )
        assert {r["initializer"] for r in records} == {"uniform", "zeros"}


class TestHardwareRealism:
    def test_shot_noise_records_and_convergence(self, quick_cfg):
        records = ablations.shot_noise_study(
            quick_cfg, shots_list=(None, 50, 100000)
        )
        by_shots = {r["shots"]: r["accuracy_pct"] for r in records}
        assert set(by_shots) == {-1, 50, 100000}
        assert all(0.0 <= a <= 100.0 for a in by_shots.values())
        # Heavy sampling approaches the exact-measurement accuracy; at a
        # short training budget noise can accidentally help, so only the
        # closeness (not ordering) is asserted here.  The converged-model
        # ordering is exercised by the hardware-realism bench.
        assert abs(by_shots[100000] - by_shots[-1]) < 10.0

    def test_imperfection_grid_shape(self, quick_cfg):
        records = ablations.imperfection_study(
            quick_cfg, theta_sigmas=(0.0, 0.01), losses=(0.0, 0.01)
        )
        assert len(records) == 4

    def test_ideal_device_matches_trained_accuracy(self, quick_cfg):
        records = ablations.imperfection_study(
            quick_cfg, theta_sigmas=(0.0,), losses=(0.0,)
        )
        assert records[0]["mean_transmission"] == pytest.approx(
            records[0]["mean_transmission"]
        )
        assert records[0]["accuracy_pct"] >= 0.0

    def test_loss_reduces_transmission(self, quick_cfg):
        records = ablations.imperfection_study(
            quick_cfg, theta_sigmas=(0.0,), losses=(0.0, 0.01)
        )
        ideal, lossy = records
        assert lossy["mean_transmission"] < ideal["mean_transmission"]

    def test_complex_network_study(self):
        cfg = PaperConfig(
            iterations=5, compression_layers=2, reconstruction_layers=2
        )
        records = ablations.complex_network_study(cfg)
        real, complex_ = records
        assert real["allow_phase"] is False
        assert complex_["allow_phase"] is True
        assert complex_["num_parameters"] == 2 * real["num_parameters"]
