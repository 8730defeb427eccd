"""Ablation (exp id abl-grad): the three gradient methods.

The paper trains with forward finite differences (Eq. 8, Delta = 1e-8).
This bench quantifies what that choice costs against central differences
and the exact adjoint:

- accuracy: max |g - g_adjoint| (FD ~1e-6..1e-8-ish, central ~1e-9);
- speed: seconds per full gradient at the paper's architecture
  (adjoint is ~2 forward passes; FD is P+1 = 181 forward passes for U_C).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import gradient_method_comparison
from repro.experiments.reporting import render_records
from repro.network.projection import Projection
from repro.network.quantum_network import QuantumNetwork
from repro.training.gradients import (
    available_gradient_methods,
    loss_and_gradient,
)


@pytest.fixture(scope="module")
def problem(paper_config):
    """The U_C gradient problem at the paper's architecture."""
    cfg = paper_config
    ds = cfg.dataset()
    X = ds.matrix()
    ae = cfg.build_autoencoder()
    enc = ae.codec.encode(X)
    strategy = cfg.build_target_strategy(ae, X)
    return ae.uc, enc.amplitudes(), strategy.targets(enc), ae.projection


@pytest.mark.parametrize("method", available_gradient_methods())
def test_gradient_method_cost(benchmark, problem, method):
    net, x, targets, projection = problem
    loss, grad = benchmark(
        loss_and_gradient,
        net,
        x,
        targets,
        projection=projection,
        method=method,
    )
    assert np.all(np.isfinite(grad))
    assert grad.shape == (net.num_parameters,)


def test_gradient_method_accuracy_table(benchmark, paper_config):
    records = benchmark.pedantic(
        gradient_method_comparison,
        args=(paper_config,),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_records(records, title="gradient-method ablation"))
    by_method = {r["method"]: r for r in records}
    # The paper's FD is approximate but safely inside training tolerance.
    assert 0.0 < by_method["fd"]["max_error_vs_adjoint"] < 1e-4
    # Central differences beat forward differences.
    assert (
        by_method["central"]["max_error_vs_adjoint"]
        <= by_method["fd"]["max_error_vs_adjoint"]
    )
    # The adjoint is the fastest by a wide margin at P=180 parameters.
    assert (
        by_method["adjoint"]["seconds_per_gradient"] * 5
        < by_method["fd"]["seconds_per_gradient"]
    )
