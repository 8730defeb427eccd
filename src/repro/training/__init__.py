"""Training subsystem implementing Algorithm 1 of the paper.

- :mod:`~repro.training.loss` — the complete-square-variance losses ``L_C``
  and ``L_R`` (Eq. 5) plus fidelity/MSE variants;
- :mod:`~repro.training.gradients` — the paper's forward finite differences
  (Eq. 8, ``Delta = 1e-8``) and three higher-fidelity alternatives
  (central differences, exact derivative-gate forward mode, exact adjoint
  reverse mode);
- :mod:`~repro.training.optimizers` — plain gradient descent (Eq. 9),
  momentum, Adam, and learning-rate schedules;
- :mod:`~repro.training.trainer` — the independent ``U_C``-then-``U_R``
  training loop with full history recording (losses, accuracy, theta
  trajectories, per-sample amplitude traces — everything Fig. 4 plots);
- :mod:`~repro.training.metrics` — Eq. (10) pixel accuracy, PSNR, SSIM and
  state fidelity;
- :mod:`~repro.training.initializers` / callbacks — parameter init
  strategies and training-loop hooks.
"""

from repro.training.loss import (
    Loss,
    SquaredErrorLoss,
    FidelityLoss,
    compression_loss,
    reconstruction_loss,
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
    ConstantSchedule,
    ExponentialDecay,
    StepDecay,
)
from repro.training.initializers import get_initializer, available_initializers
from repro.training.metrics import (
    pixel_accuracy,
    paper_accuracy,
    mse,
    psnr,
    ssim,
    batch_fidelities,
)
from repro.training.callbacks import (
    Callback,
    EarlyStopping,
    ProgressPrinter,
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
    "FidelityLoss",
    "compression_loss",
    "reconstruction_loss",
    "GradientMethod",
    "loss_and_gradient",
    "available_gradient_methods",
    "Optimizer",
    "GradientDescent",
    "MomentumGD",
    "Adam",
    "ConstantSchedule",
    "ExponentialDecay",
    "StepDecay",
    "get_initializer",
    "available_initializers",
    "pixel_accuracy",
    "paper_accuracy",
    "mse",
    "psnr",
    "ssim",
    "batch_fidelities",
    "Callback",
    "EarlyStopping",
    "ProgressPrinter",
    "NaNGuard",
    "FloatSeries",
    "Trainer",
    "TrainingHistory",
    "TrainingResult",
]
