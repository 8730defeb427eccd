"""The CSC (classical sparse coding) baseline of Fig. 5 and Table I.

The paper compares its quantum network against "the CSC based on the SVD
algorithms [23]" with a 16x16 dictionary on the *same* dataset: input
``y = D s`` with dictionary ``D`` and sparse code ``s`` (Section IV-C).

:class:`CSCCompressor` reproduces that pipeline end to end:

1. amplitude-normalise the images exactly as the quantum pipeline does, so
   losses are in the same units as ``L_R`` (both methods then reconstruct
   unit-norm vectors and decode with the stored classical norm);
2. initialise ``D`` from the data SVD (Fig. 5b);
3. iterate sparse coding + dictionary update for a fixed number of
   iterations, recording the per-iteration loss (Fig. 5c) and wall/CPU
   time (Table I "CPU Runs").

Two training modes:

- ``update="gradient"`` — gradient dictionary steps + ISTA codes, the
  adaptive scheme of ref. [23]; this is the Fig. 5c comparator (same
  optimizer family and iteration budget as the quantum network);
- ``update="mod"`` / ``"ksvd"`` — closed-form updates + OMP codes, the
  strongest classical reference (reported separately in the benches).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Literal, Optional

import numpy as np

from repro.baselines.dictionary import (
    gradient_dictionary_step,
    ksvd_update,
    mod_update,
    svd_init_dictionary,
)
from repro.baselines.ista import fista, ista
from repro.baselines.omp import omp_batch
from repro.encoding.amplitude import encode_batch
from repro.exceptions import BaselineError
from repro.utils.rng import ensure_rng

__all__ = ["CSCCompressor", "CSCHistory"]

UpdateRule = Literal["gradient", "mod", "ksvd"]
Coder = Literal["ista", "fista", "omp"]


@dataclass
class CSCHistory:
    """Per-iteration training record of the CSC baseline."""

    loss: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def num_iterations(self) -> int:
        return len(self.loss)


class CSCCompressor:
    """Sparse-coding image compressor (``y = D s``, paper Section IV-C).

    Parameters
    ----------
    dim:
        Data dimension ``N`` (the dictionary is ``N x num_atoms``).
    num_atoms:
        Dictionary size; the paper uses a square 16x16 dictionary.
    sparsity:
        Non-zeros per code for OMP (the compression budget, comparable to
        the quantum ``d``).
    lam:
        l1 weight for ISTA/FISTA coding.
    update:
        Dictionary update rule (see module docstring).
    coder:
        Sparse-coding algorithm.
    lr:
        Learning rate for the gradient update rule (matched to the quantum
        network's ``eta`` in the comparison experiments).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = (rng.random((10, 16)) > 0.5).astype(float); X[0, 0] = 1.0
    >>> csc = CSCCompressor(dim=16, sparsity=4, update="mod", coder="omp")
    >>> history = csc.fit(X, iterations=5)
    >>> len(history.loss)
    5
    """

    def __init__(
        self,
        dim: int,
        num_atoms: Optional[int] = None,
        sparsity: int = 4,
        lam: float = 0.01,
        update: UpdateRule = "gradient",
        coder: Coder = "ista",
        lr: float = 0.01,
        coder_iterations: int = 50,
        seed: Optional[int] = None,
    ) -> None:
        if dim < 2:
            raise BaselineError(f"dim must be >= 2, got {dim}")
        self.dim = int(dim)
        self.num_atoms = int(num_atoms) if num_atoms is not None else int(dim)
        if self.num_atoms < 1:
            raise BaselineError(f"num_atoms must be >= 1, got {num_atoms}")
        if not 1 <= sparsity <= self.num_atoms:
            raise BaselineError(
                f"sparsity must be in [1, {self.num_atoms}], got {sparsity}"
            )
        if update not in ("gradient", "mod", "ksvd"):
            raise BaselineError(f"unknown update rule {update!r}")
        if coder not in ("ista", "fista", "omp"):
            raise BaselineError(f"unknown coder {coder!r}")
        if lam < 0:
            raise BaselineError(f"lam must be >= 0, got {lam}")
        if lr <= 0:
            raise BaselineError(f"lr must be positive, got {lr}")
        if coder_iterations < 1:
            raise BaselineError(
                f"coder_iterations must be >= 1, got {coder_iterations}"
            )
        self.sparsity = int(sparsity)
        self.lam = float(lam)
        self.update: UpdateRule = update
        self.coder: Coder = coder
        self.lr = float(lr)
        self.coder_iterations = int(coder_iterations)
        self._rng = ensure_rng(seed)
        self.dictionary: Optional[np.ndarray] = None
        self._squared_norms: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def matrix_size(self) -> str:
        """Table I's "Matrix Size" entry, e.g. ``"16*16"``."""
        return f"{self.dim}*{self.num_atoms}"

    def _encode(self, X: np.ndarray) -> np.ndarray:
        """Amplitude-normalise rows exactly like the quantum pipeline."""
        enc = encode_batch(np.asarray(X, dtype=np.float64))
        self._squared_norms = enc.squared_norms
        return enc.amplitudes()  # (N, M) unit columns

    def _sparse_code(self, y: np.ndarray) -> np.ndarray:
        assert self.dictionary is not None
        if self.coder == "omp":
            return omp_batch(self.dictionary, y, self.sparsity)
        solver = ista if self.coder == "ista" else fista
        return solver(
            self.dictionary, y, lam=self.lam, max_iter=self.coder_iterations
        )

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, iterations: int = 150) -> CSCHistory:
        """Train dictionary + codes on ``(M, N)`` images; record history.

        The recorded loss is ``sum ||A - D s||^2`` over all samples — the
        same amplitude-domain units as the quantum ``L_R`` (Eq. 5), which
        is what makes Fig. 5c's curves comparable.
        """
        if iterations < 1:
            raise BaselineError(f"iterations must be >= 1, got {iterations}")
        y = self._encode(X)
        if y.shape[0] != self.dim:
            raise BaselineError(
                f"data dimension {y.shape[0]} != configured dim {self.dim}"
            )
        self.dictionary = svd_init_dictionary(y, self.num_atoms)
        history = CSCHistory()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(iterations):
            codes = self._sparse_code(y)
            if self.update == "gradient":
                self.dictionary = gradient_dictionary_step(
                    y, self.dictionary, codes, lr=self.lr
                )
            elif self.update == "mod":
                self.dictionary = mod_update(y, codes)
            else:  # ksvd
                self.dictionary, codes = ksvd_update(
                    y, self.dictionary, codes, rng=self._rng
                )
            residual = y - self.dictionary @ codes
            history.loss.append(float(np.sum(residual**2)))
        history.wall_seconds = time.perf_counter() - wall0
        history.cpu_seconds = time.process_time() - cpu0
        return history

    # ------------------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Sparse codes ``(K, M)`` for new images (requires ``fit``)."""
        if self.dictionary is None:
            raise BaselineError("CSCCompressor must be fit before transform")
        return self._sparse_code(self._encode(X))

    def _debias(self, y: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Least-squares refit of each code on its own support.

        l1 coding (ISTA/FISTA) systematically shrinks coefficients; the
        standard correction re-solves the unconstrained least squares
        restricted to the selected atoms, which removes the bias without
        changing the sparsity pattern.  OMP codes are already debiased.
        """
        assert self.dictionary is not None
        out = codes.copy()
        for m in range(codes.shape[1]):
            support = np.nonzero(np.abs(codes[:, m]) > 1e-12)[0]
            if support.size == 0:
                continue
            sub = self.dictionary[:, support]
            sol, *_ = np.linalg.lstsq(sub, y[:, m], rcond=None)
            out[:, m] = 0.0
            out[support, m] = sol
        return out

    def reconstruct(self, X: np.ndarray, debias: bool = False) -> np.ndarray:
        """Round-trip: code then decode back to ``(M, N)`` pixel data.

        Mirrors the quantum pipeline's decode (Eq. 2): the unit-norm
        reconstruction is rescaled by the stored per-sample input norm,
        and magnitudes are taken (pixel data are non-negative).

        The default reconstruction is the paper's literal ``y = D s``
        (Section IV-C) — l1-shrunk codes included.  ``debias=True``
        applies the standard support-refit correction (:meth:`_debias`),
        which removes the shrinkage bias and is reported separately in the
        benches (it makes the classical baseline markedly stronger than
        the paper's comparator).
        """
        if self.dictionary is None:
            raise BaselineError(
                "CSCCompressor must be fit before reconstruct"
            )
        y = self._encode(X)
        codes = self._sparse_code(y)
        if debias and self.coder in ("ista", "fista"):
            codes = self._debias(y, codes)
        recon = self.dictionary @ codes  # (N, M) in amplitude units
        assert self._squared_norms is not None
        return (np.abs(recon) * np.sqrt(self._squared_norms)[None, :]).T
