"""Backend selection plumbing across network, trainer, experiments, CLI."""

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.cli import build_parser
from repro.experiments.config import PaperConfig
from repro.network import QuantumAutoencoder, QuantumNetwork
from repro.parallel.batch import chunked_forward
from repro.training.optimizers import Adam, GradientDescent, MomentumGD
from repro.training.trainer import Trainer


class TestNetworkWiring:
    def test_default_backend_is_loop(self):
        assert QuantumNetwork(4, 2).backend.name == "loop"

    def test_constructor_backend(self):
        assert QuantumNetwork(4, 2, backend="fused").backend.name == "fused"

    def test_set_backend_returns_self(self):
        net = QuantumNetwork(4, 2)
        assert net.set_backend("fused") is net
        assert net.backend.name == "fused"

    def test_repr_mentions_backend(self):
        assert "backend=fused" in repr(QuantumNetwork(4, 2, backend="fused"))

    def test_copy_preserves_backend(self):
        net = QuantumNetwork(4, 2, backend="fused")
        assert net.copy().backend.name == "fused"

    def test_reversed_structure_preserves_backend(self):
        net = QuantumNetwork(4, 2, backend="fused")
        assert net.reversed_structure().backend.name == "fused"

    def test_copy_preserves_unregistered_custom_backend(self):
        """Regression: copy() used the registry name, breaking custom
        (unregistered) Backend instances the constructor accepts."""
        from repro.backends import LoopBackend

        class CustomBackend(LoopBackend):
            name = "custom-unregistered"

        net = QuantumNetwork(4, 2, backend=CustomBackend())
        assert net.copy().backend.name == "custom-unregistered"
        assert (
            net.reversed_structure().backend.name == "custom-unregistered"
        )

    def test_spawn_carries_backend_configuration(self):
        """Configured backends survive copy() via Backend.spawn()."""
        from repro.backends import LoopBackend

        class TiledBackend(LoopBackend):
            name = "tiled"

            def __init__(self, tile: int = 8) -> None:
                super().__init__()
                self.tile = tile

            def spawn(self):
                return TiledBackend(self.tile)

        net = QuantumNetwork(4, 2, backend=TiledBackend(tile=32))
        assert net.copy().backend.tile == 32

    def test_switch_back_to_loop(self):
        net = QuantumNetwork(4, 2, backend="fused").initialize(
            "uniform", rng=np.random.default_rng(0)
        )
        x = np.random.default_rng(1).normal(size=(4, 3))
        fused_out = net.forward(x)
        loop_out = net.set_backend("loop").forward(x)
        assert np.allclose(fused_out, loop_out, atol=1e-12)


class TestAutoencoderWiring:
    def test_constructor_backend(self):
        ae = QuantumAutoencoder(4, 2, 2, 2, backend="fused")
        assert ae.backend_name == "fused"
        assert ae.uc.backend.name == "fused"
        assert ae.ur.backend.name == "fused"

    def test_set_backend(self):
        ae = QuantumAutoencoder(4, 2, 2, 2)
        assert ae.set_backend("fused") is ae
        assert ae.backend_name == "fused"

    def test_pipeline_output_matches_loop(self):
        rng = np.random.default_rng(4)
        X = np.abs(rng.normal(size=(10, 4))) + 0.1
        ae_loop = QuantumAutoencoder(4, 2, 2, 2).initialize(
            rng=np.random.default_rng(0)
        )
        ae_fused = QuantumAutoencoder(4, 2, 2, 2, backend="fused").initialize(
            rng=np.random.default_rng(0)
        )
        out_loop = ae_loop.forward(X)
        out_fused = ae_fused.forward(X)
        assert np.allclose(out_loop.x_hat, out_fused.x_hat, atol=1e-10)
        assert np.allclose(
            out_loop.compact_codes, out_fused.compact_codes, atol=1e-10
        )


class TestTrainerWiring:
    @pytest.mark.parametrize("method", ["fd", "derivative", "adjoint"])
    def test_fused_training_matches_loop(self, method):
        X = np.array(
            [[1.0, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
        )

        def train(backend):
            ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
                rng=np.random.default_rng(0)
            )
            trainer = Trainer(
                iterations=5, gradient_method=method, backend=backend
            )
            return trainer.train(ae, X)

        loop_result = train("loop")
        fused_result = train("fused")
        assert np.allclose(
            loop_result.history.loss_r,
            fused_result.history.loss_r,
            atol=1e-6,
        )
        assert np.allclose(
            loop_result.autoencoder.uc.get_flat_params(),
            fused_result.autoencoder.uc.get_flat_params(),
            atol=1e-6,
        )

    @pytest.mark.parametrize("optimizer", [
        lambda: GradientDescent(0.05),
        lambda: MomentumGD(0.05, momentum=0.9),
        lambda: Adam(0.05),
    ], ids=["gd", "momentum", "adam"])
    def test_fused_adjoint_matches_loop_per_optimizer(self, optimizer):
        """Every optimizer takes the one generic step on every backend."""
        X = np.abs(np.random.default_rng(1).normal(size=(6, 4))) + 0.1

        def train(backend):
            ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
                rng=np.random.default_rng(0)
            )
            trainer = Trainer(
                iterations=4, gradient_method="adjoint", backend=backend,
                optimizer_factory=optimizer,
            )
            return trainer.train(ae, X)

        loop_result = train("loop")
        fused_result = train("fused")
        assert fused_result.history.num_iterations == 4
        assert np.allclose(
            loop_result.autoencoder.uc.get_flat_params(),
            fused_result.autoencoder.uc.get_flat_params(),
            atol=1e-9,
        )

    def test_trainer_applies_backend(self):
        ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
            rng=np.random.default_rng(0)
        )
        X = np.abs(np.random.default_rng(1).normal(size=(4, 4))) + 0.1
        Trainer(iterations=1, backend="fused").train(ae, X)
        assert ae.backend_name == "fused"

    def test_trainer_none_keeps_existing_backend(self):
        ae = QuantumAutoencoder(4, 2, 2, 2, backend="fused").initialize(
            rng=np.random.default_rng(0)
        )
        X = np.abs(np.random.default_rng(1).normal(size=(4, 4))) + 0.1
        Trainer(iterations=1).train(ae, X)
        assert ae.backend_name == "fused"


class TestExperimentWiring:
    def test_config_default(self):
        assert PaperConfig().backend == "loop"

    def test_config_builds_fused_autoencoder(self):
        cfg = PaperConfig(backend="fused", compression_layers=2,
                          reconstruction_layers=2, iterations=2)
        assert cfg.build_autoencoder().backend_name == "fused"
        assert cfg.build_trainer().backend == "fused"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            PaperConfig(backend="cuda")

    def test_config_backend_name_case_insensitive(self):
        """Config validation accepts what make_backend accepts."""
        cfg = PaperConfig(backend="FUSED", compression_layers=2,
                          reconstruction_layers=2)
        assert cfg.build_autoencoder().backend_name == "fused"

    def test_cli_backend_flag(self):
        args = build_parser().parse_args(["fig4", "--backend", "fused"])
        assert args.backend == "fused"

    def test_cli_backend_default(self):
        args = build_parser().parse_args(["fig4"])
        assert args.backend == "loop"

    def test_cli_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--backend", "cuda"])

    @pytest.mark.parametrize("name", ["fused", "loop", "sharded"])
    def test_cli_accepts_every_registered_backend(self, name):
        args = build_parser().parse_args(["fig4", "--backend", name])
        assert args.backend == name

    def test_cli_has_no_backends_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["backends"])
        assert "invalid choice: 'backends'" in capsys.readouterr().err


class TestOracleWiring:
    def test_oracle_trains_to_same_parameters(self, monkeypatch):
        """A short fused ``fd`` fit lands within fd's noise of the same fit
        with every gradient taken one parameter at a time."""
        from gradient_oracle import looped_loss_and_gradient

        from repro.training import trainer as trainer_module

        X = np.array(
            [[1.0, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
        )

        def train():
            ae = QuantumAutoencoder(4, 2, 2, 2).initialize(
                rng=np.random.default_rng(0)
            )
            trainer = Trainer(
                iterations=5, gradient_method="fd", backend="fused"
            )
            return trainer.train(ae, X)

        batched = train()
        monkeypatch.setattr(
            trainer_module, "loss_and_gradient", looped_loss_and_gradient
        )
        looped = train()
        assert np.allclose(
            looped.autoencoder.uc.get_flat_params(),
            batched.autoencoder.uc.get_flat_params(),
            atol=1e-7,
        )
        assert np.allclose(
            looped.history.loss_r, batched.history.loss_r, atol=1e-7
        )


class TestParallelBatchWiring:
    def test_chunked_forward_uses_network_backend(self):
        net = QuantumNetwork(4, 2, backend="fused").initialize(
            "uniform", rng=np.random.default_rng(0)
        )
        x = np.random.default_rng(1).normal(size=(4, 10))
        ref = QuantumNetwork(4, 2)
        ref.set_flat_params(net.get_flat_params())
        assert np.allclose(
            chunked_forward(net, x, chunk_size=3), ref.forward(x), atol=1e-12
        )
