"""Public-API surface tests: everything exported must resolve and work."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro

SUBPACKAGES = [
    "repro.api",
    "repro.simulator",
    "repro.encoding",
    "repro.network",
    "repro.training",
    "repro.baselines",
    "repro.data",
    "repro.experiments",
    "repro.noise",
    "repro.parallel",
    "repro.imaging",
    "repro.io",
    "repro.utils",
]

ALL_MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


class TestTopLevel:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_classes_importable(self):
        from repro import (
            Projection,
            QuantumAutoencoder,
            QuantumNetwork,
            Trainer,
        )

        assert QuantumAutoencoder and QuantumNetwork and Trainer and Projection


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_importable(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod is not None

    def test_has_docstring(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_all_resolves(module_name):
    """Every module's ``__all__`` names only what the module defines, so
    a deleted function cannot leave a stale entry behind."""
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module_name}.{name}"


class TestMinimalWorkflow:
    def test_readme_quickstart_shape(self):
        """The README quickstart must keep working verbatim (short run)."""
        from repro import QuantumAutoencoder, Trainer, paper_accuracy
        from repro.data import paper_dataset
        from repro.network.targets import TruncatedInputTarget
        from repro.training.optimizers import MomentumGD

        X = paper_dataset().matrix()
        ae = QuantumAutoencoder(
            dim=16, compressed_dim=4,
            compression_layers=12, reconstruction_layers=14,
        ).initialize("uniform", rng=np.random.default_rng(2024))
        trainer = Trainer(
            iterations=3,
            gradient_method="adjoint",
            optimizer_factory=lambda: MomentumGD(0.01, 0.9),
        )
        result = trainer.train(
            ae, X,
            target_strategy=TruncatedInputTarget.from_pca(ae.projection, X),
        )
        out = ae.forward(X)
        acc = paper_accuracy(out.x_hat, X)
        assert 0.0 <= acc <= 100.0
        assert result.history.num_iterations == 3
