#!/usr/bin/env python
"""Full Section IV reproduction: every panel of Fig. 4 in the terminal.

Runs the paper's configuration (N=16, d=4, l_C=12, l_R=14, eta=0.01,
Ite=150, M=25) end to end and renders:

- Fig. 4a input images / 4b reconstructions as ASCII rasters,
- Fig. 4c loss curves, 4d accuracy, 4e/f amplitude traces of sample 25,
- Fig. 4g theta drift,
- a summary table against the paper's reported numbers.

Run:  python examples/paper_experiment.py [--iterations N]
"""

from __future__ import annotations

import argparse

from repro.experiments import PaperConfig, run_fig4
from repro.experiments.reporting import render_fig4
from repro.training import available_gradient_methods


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--iterations",
        type=int,
        default=150,
        help="training iterations (paper: 150; 300 reaches ~99.8%% accuracy)",
    )
    parser.add_argument(
        "--optimizer",
        choices=["gd", "momentum", "adam"],
        default="momentum",
        help="'gd' is the paper-faithful plain gradient descent",
    )
    parser.add_argument(
        "--gradient",
        choices=available_gradient_methods(),
        default="adjoint",
        help="'fd' is the paper's forward finite differences (slow)",
    )
    args = parser.parse_args()

    config = PaperConfig(
        iterations=args.iterations,
        optimizer=args.optimizer,
        gradient_method=args.gradient,
    )
    print(
        f"training U_C ({config.uc_parameter_count} params) and U_R "
        f"({config.ur_parameter_count} params) for {config.iterations} "
        f"iterations with {args.optimizer}/{args.gradient}..."
    )
    result = run_fig4(config)
    print(render_fig4(result))


if __name__ == "__main__":
    main()
