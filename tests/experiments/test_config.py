"""Tests for repro.experiments.config."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import PaperConfig
from repro.network.targets import (
    TruncatedInputTarget,
    UniformSubspaceTarget,
)


class TestDefaults:
    def test_section_iv_a_values(self):
        cfg = PaperConfig()
        assert cfg.dim == 16
        assert cfg.compressed_dim == 4
        assert cfg.compression_layers == 12
        assert cfg.reconstruction_layers == 14
        assert cfg.learning_rate == 0.01
        assert cfg.iterations == 150
        assert cfg.num_samples == 25

    def test_parameter_counts(self):
        cfg = PaperConfig()
        assert cfg.uc_parameter_count == 180  # 12 x 15
        assert cfg.ur_parameter_count == 210  # 14 x 15

    def test_with_functional_update(self):
        cfg = PaperConfig().with_(iterations=10)
        assert cfg.iterations == 10
        assert cfg.dim == 16


class TestValidation:
    def test_d_must_be_smaller_than_n(self):
        with pytest.raises(ExperimentError):
            PaperConfig(compressed_dim=16)

    def test_invalid_iterations(self):
        with pytest.raises(ExperimentError):
            PaperConfig(iterations=0)

    def test_invalid_optimizer(self):
        with pytest.raises(ExperimentError):
            PaperConfig(optimizer="lbfgs")

    def test_invalid_target(self):
        with pytest.raises(ExperimentError):
            PaperConfig(target="identity")

    def test_complex_plus_adjoint_builds(self):
        # The adjoint sweep handles allow_phase networks (pull-back
        # through G^dagger), so this combination is no longer rejected.
        cfg = PaperConfig(allow_phase=True, gradient_method="adjoint")
        trainer = cfg.build_trainer()
        assert trainer.gradient_method == "adjoint"


class TestFactories:
    def test_dataset_matches_config(self):
        ds = PaperConfig().dataset()
        assert ds.num_samples == 25
        assert ds.dim == 16
        assert ds.is_binary

    def test_dataset_deterministic(self):
        a = PaperConfig().dataset().matrix()
        b = PaperConfig().dataset().matrix()
        assert np.array_equal(a, b)

    def test_autoencoder_architecture(self):
        ae = PaperConfig().build_autoencoder()
        assert ae.uc.num_layers == 12
        assert ae.ur.num_layers == 14
        assert ae.compressed_dim == 4

    def test_autoencoder_seeded(self):
        a = PaperConfig().build_autoencoder()
        b = PaperConfig().build_autoencoder()
        assert np.allclose(a.uc.get_flat_params(), b.uc.get_flat_params())

    def test_target_strategies(self):
        cfg = PaperConfig()
        ae = cfg.build_autoencoder()
        X = cfg.dataset().matrix()
        assert isinstance(
            cfg.build_target_strategy(ae, X), TruncatedInputTarget
        )
        assert isinstance(
            cfg.with_(target="uniform").build_target_strategy(ae, X),
            UniformSubspaceTarget,
        )
        restrict = cfg.with_(target="restrict").build_target_strategy(ae, X)
        assert isinstance(restrict, TruncatedInputTarget)
        assert restrict.mixing is None

    def test_trainer_paper_iterations(self):
        trainer = PaperConfig().build_trainer()
        assert trainer.iterations == 150

    def test_trace_sample_disabled_when_out_of_range(self):
        cfg = PaperConfig(num_samples=5)  # trace_sample default 24 invalid
        trainer = cfg.build_trainer()
        assert trainer.trace_sample is None
