"""Tests for repro.training.trainer (Algorithm 1)."""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.network.autoencoder import QuantumAutoencoder
from repro.network.targets import TruncatedInputTarget, UniformSubspaceTarget
from repro.training.callbacks import Callback
from repro.training.optimizers import Adam, MomentumGD
from repro.training.trainer import Trainer


@pytest.fixture
def tiny_problem(rng):
    """4-dim, rank-2 binary data plus a small autoencoder."""
    X = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.0],
        ]
    )
    ae = QuantumAutoencoder(4, 2, 3, 3).initialize("uniform", rng=rng)
    return ae, X


class TestBasicRuns:
    def test_history_lengths(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=5).train(ae, X)
        h = result.history
        assert h.num_iterations == 5
        assert len(h.loss_c) == len(h.loss_r) == 5
        assert len(h.accuracy) == len(h.raw_accuracy) == 5
        assert len(h.grad_norm_c) == len(h.grad_norm_r) == 5

    def test_losses_decrease(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(
            iterations=60,
            optimizer_factory=lambda: Adam(0.05),
        ).train(ae, X)
        h = result.history
        assert h.loss_c[-1] < h.loss_c[0]
        assert h.loss_r[-1] < h.loss_r[0]

    def test_theta_snapshots_recorded(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=4, record_theta_every=2).train(ae, X)
        assert len(result.history.theta_c) == 2  # iterations 0 and 2
        assert result.history.theta_c[0].shape == (ae.uc.num_parameters,)

    def test_trace_sample_recorded(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=3, trace_sample=1).train(ae, X)
        assert len(result.history.output_trace) == 3
        assert result.history.output_trace[0].shape == (4,)

    def test_default_target_is_truncated_input(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=2).train(ae, X)  # no strategy given
        assert result.history.num_iterations == 2

    def test_wall_time_recorded(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=2).train(ae, X)
        assert result.history.wall_seconds > 0

    def test_result_consistency(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(iterations=3).train(ae, X)
        assert result.final_loss_c == result.history.loss_c[-1]
        assert result.final_loss_r == result.history.loss_r[-1]
        assert result.final_x_hat.shape == X.shape


class TestGradientMethodsInTraining:
    @pytest.mark.parametrize("method", ["fd", "adjoint", "central"])
    def test_methods_converge_identically(self, method):
        """FD with Delta=1e-8 and the exact methods produce the same
        trajectory to ~1e-4 over a few iterations."""
        X = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
            "uniform", rng=np.random.default_rng(0)
        )
        result = Trainer(iterations=5, gradient_method=method).train(ae, X)
        ref_ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
            "uniform", rng=np.random.default_rng(0)
        )
        ref = Trainer(iterations=5, gradient_method="adjoint").train(ref_ae, X)
        assert result.history.loss_r[-1] == pytest.approx(
            ref.history.loss_r[-1], abs=1e-4
        )


class TestSchedules:
    def test_sequential_schedule_runs(self, tiny_problem):
        ae, X = tiny_problem
        result = Trainer(
            iterations=10,
            schedule="sequential",
            optimizer_factory=lambda: Adam(0.05),
            trace_sample=0,
        ).train(ae, X)
        h = result.history
        assert len(h.loss_c) == 10
        assert len(h.loss_r) == 10
        assert len(h.output_trace) == 10

    def test_joint_and_sequential_both_learn(self, rng):
        X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        finals = {}
        for schedule in ("joint", "sequential"):
            ae = QuantumAutoencoder(4, 2, 3, 3).initialize(
                "uniform", rng=np.random.default_rng(1)
            )
            # PCA-mixed targets: the raw restrict-target is degenerate for
            # inputs orthogonal to the kept subspace (see test_targets).
            strat = TruncatedInputTarget.from_pca(ae.projection, X)
            res = Trainer(
                iterations=80,
                schedule=schedule,
                optimizer_factory=lambda: Adam(0.05),
            ).train(ae, X, target_strategy=strat)
            finals[schedule] = res.history.loss_r[-1]
        assert finals["joint"] < 0.1
        assert finals["sequential"] < 0.1

    def test_invalid_schedule(self):
        with pytest.raises(TrainingError):
            Trainer(schedule="alternating")


class TestCallbacksIntegration:
    def test_early_stop_via_callback(self, tiny_problem):
        ae, X = tiny_problem
        stop_at = 3

        class StopAt(Callback):
            def on_iteration_end(self, iteration, record):
                return iteration >= stop_at

        cb = StopAt()
        result = Trainer(iterations=100, callbacks=[cb]).train(ae, X)
        assert result.history.num_iterations == stop_at + 1

    def test_nan_guard_always_installed(self):
        from repro.training.callbacks import NaNGuard

        trainer = Trainer(iterations=1)
        assert isinstance(trainer.callbacks[0], NaNGuard)

    def test_huge_lr_does_not_crash(self, tiny_problem):
        """Rotation parameters keep amplitudes bounded, so even absurd
        learning rates oscillate rather than overflow — training must
        finish and report finite losses."""
        ae, X = tiny_problem
        result = Trainer(iterations=20, learning_rate=50.0).train(ae, X)
        assert np.isfinite(result.history.loss_r).all()


class TestValidation:
    def test_invalid_iterations(self):
        with pytest.raises(TrainingError):
            Trainer(iterations=0)

    def test_invalid_record_every(self):
        with pytest.raises(TrainingError):
            Trainer(record_theta_every=0)

    @pytest.mark.parametrize("method", ["spsa", "derivative"])
    def test_unknown_gradient_method_rejected_at_construction(self, method):
        with pytest.raises(TrainingError, match="unknown gradient method"):
            Trainer(gradient_method=method)

    def test_trace_sample_out_of_range(self, tiny_problem):
        ae, X = tiny_problem
        with pytest.raises(TrainingError, match="trace_sample"):
            Trainer(iterations=1, trace_sample=99).train(ae, X)

    def test_target_strategy_dim_checked(self, tiny_problem):
        ae, X = tiny_problem
        from repro.network.projection import Projection

        bad = UniformSubspaceTarget(Projection.last(8, 2))
        with pytest.raises(TrainingError, match="projection dim"):
            Trainer(iterations=1).train(ae, X, target_strategy=bad)

    def test_update_reduction_mean_slows_convergence(self, rng):
        """Documented Algorithm-1 ambiguity: mean normalisation with
        eta=0.01 barely moves in a few iterations."""
        X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

        def final_loss(reduction):
            ae = QuantumAutoencoder(4, 2, 3, 3).initialize(
                "uniform", rng=np.random.default_rng(2)
            )
            res = Trainer(
                iterations=30, update_reduction=reduction
            ).train(ae, X)
            return res.history.loss_r[-1]

        assert final_loss("sum") < final_loss("mean")
