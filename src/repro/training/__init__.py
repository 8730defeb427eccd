"""Training subsystem implementing Algorithm 1 of the paper.

- :mod:`~repro.training.loss` — the complete-square-variance loss of
  ``L_C`` and ``L_R`` (Eq. 5);
- :mod:`~repro.training.gradients` — the paper's forward finite differences
  (Eq. 8, ``Delta = 1e-8``) and two higher-fidelity alternatives
  (central differences, exact adjoint reverse mode);
- :mod:`~repro.training.optimizers` — plain gradient descent (Eq. 9),
  momentum and Adam, each at one fixed learning rate;
- :mod:`~repro.training.trainer` — the independent ``U_C``-then-``U_R``
  training loop with full history recording (losses, accuracy, theta
  trajectories, per-sample amplitude traces — everything Fig. 4 plots);
- :mod:`~repro.training.metrics` — Eq. (10) pixel accuracy, PSNR and SSIM;
- :mod:`~repro.training.initializers` / callbacks — parameter init
  strategies and training-loop hooks.
"""

from repro.training.loss import (
    Loss,
    SquaredErrorLoss,
)
from repro.training.gradients import (
    GradientMethod,
    loss_and_gradient,
    available_gradient_methods,
)
from repro.training.optimizers import (
    Optimizer,
    GradientDescent,
    MomentumGD,
    Adam,
)
from repro.training.initializers import get_initializer, available_initializers
from repro.training.metrics import (
    pixel_accuracy,
    paper_accuracy,
    mse,
    psnr,
    ssim,
)
from repro.training.callbacks import (
    Callback,
    NaNGuard,
)
from repro.training.trainer import (
    FloatSeries,
    Trainer,
    TrainingHistory,
    TrainingResult,
)

__all__ = [
    "Loss",
    "SquaredErrorLoss",
    "GradientMethod",
    "loss_and_gradient",
    "available_gradient_methods",
    "Optimizer",
    "GradientDescent",
    "MomentumGD",
    "Adam",
    "get_initializer",
    "available_initializers",
    "pixel_accuracy",
    "paper_accuracy",
    "mse",
    "psnr",
    "ssim",
    "Callback",
    "NaNGuard",
    "FloatSeries",
    "Trainer",
    "TrainingHistory",
    "TrainingResult",
]
