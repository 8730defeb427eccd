"""Algorithm 1: independent training of ``U_C`` and ``U_R``.

The paper trains the two networks *independently* — each has its own loss
(Eq. 5) and its own gradient updates — but inside a single iteration loop
(Algorithm 1 updates ``theta^{l_C}`` then ``theta^{l_R}`` every iteration).
:class:`Trainer` implements that ``"joint"`` schedule as the default and a
``"sequential"`` schedule (fully train ``U_C``, freeze it, then train
``U_R``) as a variant; the two converge to the same losses and differ only
in the transient, which the ablation bench shows.

Everything Fig. 4 plots is recorded in :class:`TrainingHistory`:
per-iteration losses (4c), accuracy (4d), the output/compressed amplitude
traces of a chosen sample (4e/f), and theta snapshots (4g).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Literal, Optional, Sequence

import numpy as np

from repro.encoding.amplitude import EncodedBatch, decode_batch
from repro.exceptions import TrainingError
from repro.network.autoencoder import QuantumAutoencoder
from repro.network.quantum_network import QuantumNetwork
from repro.network.targets import (
    CompressionTargetStrategy,
    TruncatedInputTarget,
)
from repro.training.callbacks import Callback, NaNGuard
from repro.training.gradients import loss_and_gradient
from repro.training.loss import SquaredErrorLoss
from repro.training.metrics import paper_accuracy, pixel_accuracy
from repro.training.optimizers import GradientDescent, Optimizer

__all__ = ["FloatSeries", "Trainer", "TrainingHistory", "TrainingResult"]

Schedule = Literal["joint", "sequential"]


class FloatSeries:
    """A float64 list with preallocated storage (amortised appends).

    The per-iteration scalar records used to be python lists — ``Ite``
    object boxings and reallocation churn per series per run, and an
    O(n) conversion every ``as_arrays``.  This keeps a numpy buffer that
    :meth:`TrainingHistory.reserve` sizes once for a known iteration
    budget, while preserving the list surface the analysis code uses
    (``append``, ``len``, indexing incl. negative, iteration, truthiness
    and ``np.asarray`` views).
    """

    __slots__ = ("_data", "_size")

    def __init__(self, values=()) -> None:
        values = np.asarray(values, dtype=np.float64)
        self._data = values.copy()
        self._size = int(values.size)

    def reserve(self, capacity: int) -> None:
        """Grow the backing buffer to ``capacity`` (never shrinks)."""
        if capacity > self._data.size:
            grown = np.empty(int(capacity), dtype=np.float64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown

    def append(self, value: float) -> None:
        if self._size == self._data.size:
            self.reserve(max(8, 2 * self._data.size))
        self._data[self._size] = value
        self._size += 1

    def values(self) -> np.ndarray:
        """A read-through view of the filled prefix."""
        return self._data[: self._size]

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self):
        return iter(self.values())

    def __getitem__(self, index):
        return self.values()[index]

    def __array__(self, dtype=None, copy=None):
        values = self.values()
        if copy or (dtype is not None and dtype != values.dtype):
            return np.array(values, dtype=dtype)
        return values

    def __eq__(self, other) -> bool:
        if isinstance(other, (FloatSeries, list, tuple, np.ndarray)):
            return np.array_equal(
                self.values(), np.asarray(other, dtype=np.float64)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"FloatSeries({self.values().tolist()!r})"


#: The per-iteration scalar records (everything Fig. 4c/4d plots).
_SCALAR_SERIES = (
    "loss_c",
    "loss_r",
    "accuracy",
    "raw_accuracy",
    "retained_probability",
    "grad_norm_c",
    "grad_norm_r",
)


@dataclass
class TrainingHistory:
    """Per-iteration records of one training run.

    Attributes mirror the panels of Fig. 4:

    - ``loss_c`` / ``loss_r`` — Eq. (5) sums per iteration (Fig. 4c);
    - ``accuracy`` — Eq. (10) with the paper's thresholding (Fig. 4d);
    - ``raw_accuracy`` — Eq. (10) without thresholding;
    - ``output_trace`` / ``compressed_trace`` — amplitudes of the traced
      sample over iterations (Fig. 4e / 4f);
    - ``theta_c`` / ``theta_r`` — flattened parameter snapshots (Fig. 4g);
    - ``grad_norm_c`` / ``grad_norm_r`` — gradient norms (the paper notes
      "the update gradient of theta decreases to 0").
    """

    loss_c: FloatSeries = field(default_factory=FloatSeries)
    loss_r: FloatSeries = field(default_factory=FloatSeries)
    accuracy: FloatSeries = field(default_factory=FloatSeries)
    raw_accuracy: FloatSeries = field(default_factory=FloatSeries)
    retained_probability: FloatSeries = field(default_factory=FloatSeries)
    grad_norm_c: FloatSeries = field(default_factory=FloatSeries)
    grad_norm_r: FloatSeries = field(default_factory=FloatSeries)
    output_trace: List[np.ndarray] = field(default_factory=list)
    compressed_trace: List[np.ndarray] = field(default_factory=list)
    theta_c: List[np.ndarray] = field(default_factory=list)
    theta_r: List[np.ndarray] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def num_iterations(self) -> int:
        return len(self.loss_r)

    def reserve(self, iterations: int) -> None:
        """Preallocate every scalar series for a known iteration budget."""
        for key in _SCALAR_SERIES:
            getattr(self, key).reserve(iterations)

    def min_loss_c(self) -> float:
        return min(self.loss_c) if self.loss_c else float("nan")

    def min_loss_r(self) -> float:
        return min(self.loss_r) if self.loss_r else float("nan")

    def max_accuracy(self) -> float:
        return max(self.accuracy) if self.accuracy else float("nan")

    def as_arrays(self) -> dict:
        """Convert list fields to numpy arrays (for plotting/serialisation)."""
        out: dict = {}
        for key in _SCALAR_SERIES:
            out[key] = np.asarray(getattr(self, key))
        for key in ("output_trace", "compressed_trace", "theta_c", "theta_r"):
            seq = getattr(self, key)
            out[key] = np.stack(seq) if seq else np.empty((0,))
        out["wall_seconds"] = self.wall_seconds
        out["cpu_seconds"] = self.cpu_seconds
        return out


@dataclass
class TrainingResult:
    """Bundle returned by :meth:`Trainer.train`."""

    history: TrainingHistory
    autoencoder: QuantumAutoencoder
    final_x_hat: np.ndarray
    final_accuracy: float
    final_loss_c: float
    final_loss_r: float


class Trainer:
    """Configurable implementation of Algorithm 1.

    Parameters
    ----------
    iterations:
        ``Ite`` — the paper uses 150.
    learning_rate:
        ``eta`` — the paper uses 0.01 (with mean-normalised gradients, per
        Algorithm 1's ``/(M x N)``).
    gradient_method:
        ``"fd"`` (paper), ``"central"``, ``"derivative"`` or ``"adjoint"``
        (default: the exact fast path).
    schedule:
        ``"joint"`` (Algorithm 1: both nets updated each iteration) or
        ``"sequential"`` (U_C fully first).
    optimizer_factory:
        Callable returning a fresh :class:`Optimizer` per network; defaults
        to plain :class:`GradientDescent` (Eq. 9).
    trace_sample:
        Index of the sample whose amplitudes are recorded each iteration
        (Fig. 4e/f trace sample 25, i.e. index 24); ``None`` disables.
    record_theta_every:
        Snapshot period for theta trajectories (Fig. 4g); ``None`` disables.
    callbacks:
        Extra :class:`Callback` hooks; a :class:`NaNGuard` is always active.
    backend:
        Execution backend applied to both networks at the start of
        :meth:`train` (``"loop"``, ``"fused"``, see :mod:`repro.backends`);
        ``None`` keeps whatever backend the autoencoder already uses.  The
        fused backend accelerates the perturbative gradient methods
        (``fd``/``central``/``derivative``) via prefix/suffix caching.
    parallel:
        Data-parallel gradient execution: ``None`` (single-process,
        default), ``"pool"`` (one worker per usable CPU) or ``"pool:K"``
        (exactly ``K`` workers).  Every gradient step then runs through a
        :class:`~repro.parallel.reducer.GradientReducer` — the sample
        batch (or, for ``fd``/``central``, the parameter-perturbation
        stack) scattered over a persistent worker pool and tree-reduced
        deterministically.  The schedule, history and callbacks are
        identical to single-process training at the same batch order;
        see ``docs/training.md``.
    noise:
        Noise-aware training: a :class:`~repro.noise.model.NoiseModel`
        (or any spec :meth:`NoiseModel.from_spec` accepts — preset name,
        JSON string, dict); ``None`` trains noise-blind.  With angle
        jitter (``theta_sigma > 0``) every gradient step averages the
        exact gradient over ``noise_trajectories`` frozen-jitter
        realizations — the gradient of the realization-averaged loss —
        sharded over the worker pool when ``parallel`` is active and
        bitwise-reproducible given ``(batch_seed, noise, iteration)`` at
        any pool size (see :mod:`repro.noise.training` and
        ``docs/noise.md``).  The parameter-independent channels (loss,
        dephasing, depolarizing, shots) enter evaluation, not the
        gradient.
    noise_trajectories:
        Realization count ``K`` per noisy gradient step (default 8).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.network.autoencoder import QuantumAutoencoder
    >>> ae = QuantumAutoencoder(4, 2, 2, 2).initialize(rng=np.random.default_rng(0))
    >>> X = np.array([[1.0, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]])
    >>> result = Trainer(iterations=5, gradient_method="adjoint").train(ae, X)
    >>> result.history.num_iterations
    5
    """

    def __init__(
        self,
        iterations: int = 150,
        learning_rate: float = 0.01,
        gradient_method: str = "adjoint",
        schedule: Schedule = "joint",
        optimizer_factory: Optional[Callable[[], Optimizer]] = None,
        trace_sample: Optional[int] = None,
        record_theta_every: Optional[int] = 1,
        callbacks: Sequence[Callback] = (),
        fd_delta: Optional[float] = None,
        update_reduction: str = "sum",
        batch_size: Optional[int] = None,
        batch_seed: int = 0,
        backend: Optional[str] = None,
        parallel: Optional[str] = None,
        noise=None,
        noise_trajectories: int = 8,
    ) -> None:
        if iterations < 1:
            raise TrainingError(f"iterations must be >= 1, got {iterations}")
        if schedule not in ("joint", "sequential"):
            raise TrainingError(
                f"schedule must be 'joint' or 'sequential', got {schedule!r}"
            )
        if record_theta_every is not None and record_theta_every < 1:
            raise TrainingError(
                f"record_theta_every must be >= 1 or None, got "
                f"{record_theta_every}"
            )
        self.iterations = int(iterations)
        self.learning_rate = float(learning_rate)
        self.gradient_method = gradient_method
        self.schedule: Schedule = schedule
        self.optimizer_factory = optimizer_factory or (
            lambda: GradientDescent(self.learning_rate)
        )
        self.trace_sample = trace_sample
        self.record_theta_every = record_theta_every
        if batch_size is not None and batch_size < 1:
            raise TrainingError(
                f"batch_size must be >= 1 or None, got {batch_size}"
            )
        # Mini-batch ("batch gradient descent ... for larger data",
        # Section III-C): each iteration takes the next slice of a seeded
        # epoch shuffle (MiniBatchStream, prefetched off-thread);
        # None = full-batch (the paper's default regime).
        self.batch_size = batch_size
        self.batch_seed = int(batch_seed)
        self.callbacks: List[Callback] = [NaNGuard(), *callbacks]
        self.fd_delta = fd_delta
        self.backend = backend
        from repro.parallel.reducer import validate_parallel_spec

        self.parallel = validate_parallel_spec(parallel, TrainingError)
        from repro.noise.model import NoiseModel

        self.noise = NoiseModel.from_spec(noise)
        if noise_trajectories < 1:
            raise TrainingError(
                f"noise_trajectories must be >= 1, got {noise_trajectories}"
            )
        self.noise_trajectories = int(noise_trajectories)
        self._reducer = None
        self._iteration = 0
        # Eq. (7) defines the gradient on the *sum* loss (no normalisation);
        # Algorithm 1's pseudo-code divides by M*N, but with eta = 0.01 that
        # normalised form cannot reach the near-zero losses Fig. 4c shows in
        # 150 iterations, so the sum form is the default and "mean" is the
        # documented variant (see EXPERIMENTS.md, "Algorithm 1 ambiguity").
        self._update_loss = SquaredErrorLoss(reduction=update_reduction)

    # ------------------------------------------------------------------
    def train(
        self,
        autoencoder: QuantumAutoencoder,
        X: np.ndarray,
        target_strategy: Optional[CompressionTargetStrategy] = None,
    ) -> TrainingResult:
        """Run Algorithm 1 on classical data ``X`` (``(M, N)`` rows)."""
        if self.backend is not None:
            autoencoder.set_backend(self.backend)
        encoded = autoencoder.codec.encode(np.asarray(X, dtype=np.float64))
        if target_strategy is None:
            target_strategy = TruncatedInputTarget(autoencoder.projection)
        elif target_strategy.projection.dim != autoencoder.dim:
            raise TrainingError(
                "target strategy projection dim does not match autoencoder"
            )
        if self.trace_sample is not None and not (
            0 <= self.trace_sample < encoded.num_samples
        ):
            raise TrainingError(
                f"trace_sample {self.trace_sample} out of range for "
                f"{encoded.num_samples} samples"
            )
        from repro.parallel.reducer import (
            GradientReducer,
            resolve_parallel_workers,
        )

        workers = resolve_parallel_workers(self.parallel)
        reducer = (
            GradientReducer(num_workers=workers)
            if workers is not None and workers > 1
            else None
        )
        self._reducer = reducer
        self._iteration = 0
        try:
            if self.schedule == "joint":
                history = self._train_joint(
                    autoencoder, encoded, target_strategy
                )
            else:
                history = self._train_sequential(
                    autoencoder, encoded, target_strategy
                )
        finally:
            self._reducer = None
            if reducer is not None:
                reducer.close()
        out = autoencoder.forward_encoded(encoded)
        x_hat = out.x_hat
        x_ref = np.asarray(X, dtype=np.float64)
        final_acc = paper_accuracy(x_hat, x_ref)
        return TrainingResult(
            history=history,
            autoencoder=autoencoder,
            final_x_hat=x_hat,
            final_accuracy=final_acc,
            final_loss_c=history.loss_c[-1] if history.loss_c else float("nan"),
            final_loss_r=history.loss_r[-1] if history.loss_r else float("nan"),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sum_scale(self, encoded: EncodedBatch) -> float:
        """Factor converting the update loss to Eq. (5)'s reported sum."""
        if self._update_loss.reduction == "mean":
            return float(encoded.dim * encoded.num_samples)
        return 1.0

    def _noise_jitter_active(self) -> bool:
        """True when gradient steps must average over jitter realizations."""
        return self.noise is not None and self.noise.theta_sigma > 0.0

    def _grad_step(
        self,
        network: QuantumNetwork,
        optimizer: Optimizer,
        inputs: np.ndarray,
        targets: np.ndarray,
        projection,
        stream: int = 0,
    ) -> tuple[float, float]:
        if self._noise_jitter_active():
            from repro.noise.training import noisy_loss_and_gradient

            loss_val, grad = noisy_loss_and_gradient(
                network,
                inputs,
                targets,
                model=self.noise,
                trajectories=self.noise_trajectories,
                seed=self.batch_seed,
                epoch=self._iteration,
                stream=stream,
                loss=self._update_loss,
                projection=projection,
                method=self.gradient_method,
                delta=self.fd_delta,
                reducer=self._reducer,
            )
        elif self._reducer is not None:
            loss_val, grad = self._reducer.loss_and_gradient(
                network,
                inputs,
                targets,
                loss=self._update_loss,
                projection=projection,
                method=self.gradient_method,
                delta=self.fd_delta,
            )
        else:
            loss_val, grad = loss_and_gradient(
                network,
                inputs,
                targets,
                loss=self._update_loss,
                projection=projection,
                method=self.gradient_method,
                delta=self.fd_delta,
            )
        params = network.get_flat_params()
        network.set_flat_params(optimizer.step(params, grad))
        return loss_val, float(np.linalg.norm(grad))

    def _record_iteration(
        self,
        history: TrainingHistory,
        iteration: int,
        autoencoder: QuantumAutoencoder,
        encoded: EncodedBatch,
        x_ref: np.ndarray,
        loss_c_mean: float,
        loss_r_mean: float,
        grad_c: float,
        grad_r: float,
        scale: float,
    ) -> dict:
        history.loss_c.append(loss_c_mean * scale)
        history.loss_r.append(loss_r_mean * scale)
        history.grad_norm_c.append(grad_c)
        history.grad_norm_r.append(grad_r)
        out = autoencoder.forward_encoded(encoded)
        x_hat = out.x_hat
        acc = paper_accuracy(x_hat, x_ref)
        raw = pixel_accuracy(x_hat, x_ref)
        history.accuracy.append(acc)
        history.raw_accuracy.append(raw)
        history.retained_probability.append(
            float(np.mean(out.retained_probability))
        )
        if self.trace_sample is not None:
            s = self.trace_sample
            history.output_trace.append(out.output_amplitudes[:, s].copy())
            history.compressed_trace.append(out.compressed[:, s].copy())
        if (
            self.record_theta_every is not None
            and iteration % self.record_theta_every == 0
        ):
            history.theta_c.append(autoencoder.uc.get_flat_params())
            history.theta_r.append(autoencoder.ur.get_flat_params())
        return {
            "loss_c": history.loss_c[-1],
            "loss_r": history.loss_r[-1],
            "accuracy": acc,
            "raw_accuracy": raw,
        }

    def _notify(
        self, iteration: int, record: dict
    ) -> bool:
        stop = False
        for cb in self.callbacks:
            stop = cb.on_iteration_end(iteration, record) or stop
        return stop

    def _train_joint(
        self,
        autoencoder: QuantumAutoencoder,
        encoded: EncodedBatch,
        target_strategy: CompressionTargetStrategy,
    ) -> TrainingHistory:
        history = TrainingHistory()
        history.reserve(self.iterations)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        a_in = encoded.amplitudes()
        x_ref = decode_batch(a_in, encoded.squared_norms)
        b_targets = target_strategy.targets(encoded)
        scale = self._sum_scale(encoded)
        opt_c = self.optimizer_factory()
        opt_r = self.optimizer_factory()
        context = {"schedule": "joint", "iterations": self.iterations}
        for cb in self.callbacks:
            cb.on_train_start(context)
        m = a_in.shape[1]
        batch_iter = None
        if self.batch_size is not None and self.batch_size < m:
            from repro.data.stream import MiniBatchStream

            # Inputs and targets share the sample axis (columns); the
            # stream's prefetch thread gathers the next slice of the
            # epoch shuffle while the gradient step below computes.
            stream = MiniBatchStream(
                (a_in, b_targets),
                self.batch_size,
                axis=1,
                seed=self.batch_seed,
                prefetch=2,
            )
            batch_iter = stream.batches(self.iterations)
        try:
            for it in range(self.iterations):
                self._iteration = it
                if batch_iter is not None:
                    mb = next(batch_iter)
                    x_c, t_c = mb.arrays
                    r_target = x_c
                else:
                    x_c, t_c = a_in, b_targets
                    r_target = a_in
                loss_c, gnorm_c = self._grad_step(
                    autoencoder.uc,
                    opt_c,
                    x_c,
                    t_c,
                    autoencoder.projection,
                    stream=0,
                )
                # U_R trains on the same inputs inference feeds it,
                # including the renormalize (post-selection) variant.
                compressed = autoencoder.compression.compress(
                    x_c, renormalize=autoencoder.renormalize
                )
                loss_r, gnorm_r = self._grad_step(
                    autoencoder.ur, opt_r, compressed, r_target, None, stream=1
                )
                record = self._record_iteration(
                    history,
                    it,
                    autoencoder,
                    encoded,
                    x_ref,
                    loss_c,
                    loss_r,
                    gnorm_c,
                    gnorm_r,
                    scale,
                )
                if self._notify(it, record):
                    break
        finally:
            if batch_iter is not None:
                batch_iter.close()
        history.wall_seconds = time.perf_counter() - wall0
        history.cpu_seconds = time.process_time() - cpu0
        for cb in self.callbacks:
            cb.on_train_end(context)
        return history

    def _train_sequential(
        self,
        autoencoder: QuantumAutoencoder,
        encoded: EncodedBatch,
        target_strategy: CompressionTargetStrategy,
    ) -> TrainingHistory:
        """Variant: fully train ``U_C``, freeze it, then train ``U_R``.

        History lists are aligned per-phase iteration: ``loss_c[t]`` comes
        from phase 1 and ``loss_r[t]`` from phase 2 (both phases run the
        full iteration budget, so lengths match the joint schedule).
        """
        history = TrainingHistory()
        history.reserve(self.iterations)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        a_in = encoded.amplitudes()
        x_ref = decode_batch(a_in, encoded.squared_norms)
        b_targets = target_strategy.targets(encoded)
        scale = self._sum_scale(encoded)
        context = {"schedule": "sequential", "iterations": self.iterations}
        for cb in self.callbacks:
            cb.on_train_start(context)
        opt_c = self.optimizer_factory()
        grad_norms_c: List[float] = []
        for it in range(self.iterations):
            self._iteration = it
            loss_c, gnorm_c = self._grad_step(
                autoencoder.uc,
                opt_c,
                a_in,
                b_targets,
                autoencoder.projection,
                stream=0,
            )
            history.loss_c.append(loss_c * scale)
            grad_norms_c.append(gnorm_c)
            if (
                self.record_theta_every is not None
                and it % self.record_theta_every == 0
            ):
                history.theta_c.append(autoencoder.uc.get_flat_params())
        compressed = autoencoder.compression.compress(
            a_in, renormalize=autoencoder.renormalize
        )
        opt_r = self.optimizer_factory()
        for it in range(self.iterations):
            self._iteration = it
            loss_r, gnorm_r = self._grad_step(
                autoencoder.ur, opt_r, compressed, a_in, None, stream=1
            )
            history.loss_r.append(loss_r * scale)
            history.grad_norm_c.append(grad_norms_c[it])
            history.grad_norm_r.append(gnorm_r)
            out = autoencoder.forward_encoded(encoded)
            acc = paper_accuracy(out.x_hat, x_ref)
            history.accuracy.append(acc)
            history.raw_accuracy.append(pixel_accuracy(out.x_hat, x_ref))
            history.retained_probability.append(
                float(np.mean(out.retained_probability))
            )
            if self.trace_sample is not None:
                s = self.trace_sample
                history.output_trace.append(
                    out.output_amplitudes[:, s].copy()
                )
                history.compressed_trace.append(out.compressed[:, s].copy())
            if (
                self.record_theta_every is not None
                and it % self.record_theta_every == 0
            ):
                history.theta_r.append(autoencoder.ur.get_flat_params())
            record = {
                "loss_c": history.loss_c[it],
                "loss_r": history.loss_r[-1],
                "accuracy": acc,
            }
            if self._notify(it, record):
                break
        history.wall_seconds = time.perf_counter() - wall0
        history.cpu_seconds = time.process_time() - cpu0
        for cb in self.callbacks:
            cb.on_train_end(context)
        return history
