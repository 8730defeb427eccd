"""Tests for repro.api.spec (CodecSpec)."""

import numpy as np
import pytest

from repro.api.spec import CodecSpec
from repro.exceptions import NetworkConfigError
from repro.experiments.config import PaperConfig
from repro.network.projection import Projection


class TestValidation:
    def test_paper_defaults(self):
        spec = CodecSpec()
        assert (spec.dim, spec.compressed_dim) == (16, 4)
        assert (spec.compression_layers, spec.reconstruction_layers) == (12, 14)
        assert spec.backend == "loop"

    def test_compressed_dim_must_be_smaller(self):
        with pytest.raises(NetworkConfigError):
            CodecSpec(dim=4, compressed_dim=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"learning_rate": 0.0},
            {"optimizer": "sgd"},
            {"target": "magic"},
            {"loss_mode": "median"},
            {"backend": "quantum-annealer"},
            {"noise_trajectories": 0},
            {"gradient_method": "spsa"},
            {"batch_size": 0},
            {"parallel": "cluster"},
            {"parallel": "pool:zero"},
            {"parallel": "pool:0"},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"seed": -1},
            {"learning_rate": -0.01},
            {"tile_size": 0},
            {"tile_size": 3},
            {"tile_transform": "wavelet"},
            {"tile_quality": 0},
            {"tile_quality": 101},
            {"tile_pad": "mirror"},
            {"code_bits": 1},
            {"code_bits": 17},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(NetworkConfigError):
            CodecSpec(**kwargs)

    def test_parallel_spec_normalised(self):
        assert CodecSpec(parallel="POOL:3").parallel == "pool:3"
        assert CodecSpec(parallel="none").parallel is None
        assert CodecSpec().parallel is None
        assert CodecSpec().batch_size is None

    def test_projection_length_must_match(self):
        with pytest.raises(NetworkConfigError):
            CodecSpec(dim=8, compressed_dim=2, projection=(0, 1, 2))

    def test_projection_indices_validated(self):
        with pytest.raises(Exception):
            CodecSpec(dim=8, compressed_dim=2, projection=(6, 99))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CodecSpec().dim = 8


class TestRoundTrip:
    def test_with_updates(self):
        spec = CodecSpec().with_(backend="fused", iterations=7)
        assert spec.backend == "fused"
        assert spec.iterations == 7
        assert CodecSpec().backend == "loop"  # original untouched

    def test_dict_round_trip(self):
        spec = CodecSpec(
            dim=8,
            compressed_dim=3,
            projection=(1, 4, 6),
            allow_phase=True,
            renormalize=True,
            backend="fused",
            loss_mode="mean",
            batch_size=4,
            parallel="pool:2",
        )
        assert CodecSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_safe(self):
        import json

        json.dumps(CodecSpec(projection=(12, 13, 14, 15)).to_dict())

    def test_unknown_field_rejected(self):
        with pytest.raises(NetworkConfigError):
            CodecSpec.from_dict({"quantisation": 8})

    @pytest.mark.parametrize("engine", ["batched", "looped"])
    def test_legacy_grad_engine_dropped(self, engine):
        """Checkpoints written while the spec had a ``grad_engine`` field
        load; the field is gone from the result."""
        spec = CodecSpec(dim=8, compressed_dim=2, backend="fused")
        data = {**spec.to_dict(), "grad_engine": engine}
        assert CodecSpec.from_dict(data) == spec
        assert "grad_engine" not in CodecSpec.from_dict(data).to_dict()

    @pytest.mark.parametrize("engine", ["vectorised", None, 1])
    def test_unknown_legacy_grad_engine_rejected(self, engine):
        with pytest.raises(NetworkConfigError, match="gradient engine"):
            CodecSpec.from_dict({"grad_engine": engine})

    @pytest.mark.parametrize(
        "data",
        [
            {"dim": 4.0},
            {"dim": True},
            {"projection": [12, "13", 14, 15]},
            {"learning_rate": "0.01"},
            {"allow_phase": 1},
            {"batch_size": 2.5},
            {"parallel": 2},
        ],
    )
    def test_wrong_json_type_rejected(self, data):
        with pytest.raises(NetworkConfigError):
            CodecSpec.from_dict(data)

    def test_integer_accepted_for_float_field(self):
        assert CodecSpec.from_dict({"learning_rate": 1}).learning_rate == 1

    def test_hashable(self):
        assert hash(CodecSpec()) == hash(CodecSpec())


class TestFactories:
    def test_build_projection_default_is_last(self):
        assert CodecSpec(dim=8, compressed_dim=2).build_projection() == (
            Projection.last(8, 2)
        )

    def test_build_projection_explicit(self):
        spec = CodecSpec(dim=8, compressed_dim=2, projection=(0, 5))
        assert spec.build_projection().keep.tolist() == [0, 5]

    def test_build_autoencoder_wires_everything(self):
        spec = CodecSpec(
            dim=8,
            compressed_dim=2,
            compression_layers=3,
            reconstruction_layers=2,
            allow_phase=True,
            renormalize=True,
            backend="fused",
        )
        ae = spec.build_autoencoder()
        assert ae.dim == 8
        assert ae.compressed_dim == 2
        assert ae.uc.num_layers == 3
        assert ae.ur.num_layers == 2
        assert ae.uc.allow_phase and ae.ur.allow_phase
        assert ae.renormalize
        assert ae.backend_name == "fused"

    def test_build_trainer_carries_exec_knobs(self):
        trainer = CodecSpec(
            gradient_method="central",
            backend="fused",
            iterations=9,
            loss_mode="mean",
            batch_size=8,
            parallel="pool:2",
        ).build_trainer()
        assert trainer.iterations == 9
        assert trainer.gradient_method == "central"
        assert trainer.backend == "fused"
        assert trainer.batch_size == 8
        assert trainer.parallel == "pool:2"


class TestPaperConfigDelegation:
    """PaperConfig must be a thin layer over the same code path."""

    def test_from_paper_config_fields(self):
        cfg = PaperConfig(backend="fused", optimizer="adam", iterations=42)
        spec = CodecSpec.from_paper_config(cfg)
        assert spec.backend == "fused"
        assert spec.optimizer == "adam"
        assert spec.iterations == 42
        assert spec.seed == cfg.seed

    def test_from_paper_config_parallel_and_batch(self):
        cfg = PaperConfig(parallel="pool:2", batch_size=5)
        spec = CodecSpec.from_paper_config(cfg)
        assert spec.parallel == "pool:2"
        assert spec.batch_size == 5

    def test_codec_spec_method(self):
        assert PaperConfig().codec_spec() == CodecSpec.from_paper_config(
            PaperConfig()
        )

    def test_build_autoencoder_identical_params(self):
        cfg = PaperConfig()
        via_config = cfg.build_autoencoder()
        via_spec = cfg.codec_spec().build_autoencoder()
        assert np.array_equal(
            via_config.uc.get_flat_params(), via_spec.uc.get_flat_params()
        )
        assert np.array_equal(
            via_config.ur.get_flat_params(), via_spec.ur.get_flat_params()
        )
