""":class:`Codec` — the estimator-style facade over the full pipeline.

One object that can be trained, applied, persisted and compiled for
serving, replacing the four-surface dance (``QuantumAutoencoder`` +
``Trainer`` + ``PaperConfig`` + ``repro.io.model_io``) with::

    codec = Codec(CodecSpec(backend="fused"))
    codec.fit(X)
    payload = codec.compress(X)          # (d, M) codes + norm scalars
    x_hat = codec.decompress(payload)    # == codec.forward(X).x_hat, bitwise
    codec.save("model.npz"); Codec.load("model.npz")

The compressed representation travels as a :class:`CompressedBatch`: the
``d`` kept amplitudes per sample plus the squared input norm (Eq. 2's
classical side channel) — exactly the payload the paper's transmission
scenario sends per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.api.spec import CodecSpec
from repro.encoding.amplitude import decode_batch
from repro.exceptions import DimensionError, ReproError, SerializationError
from repro.network.autoencoder import AutoencoderOutput, QuantumAutoencoder
from repro.training.loss import SquaredErrorLoss
from repro.training.metrics import mse, paper_accuracy, pixel_accuracy
from repro.training.trainer import TrainingResult

__all__ = ["Codec", "CompressedBatch"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class CompressedBatch:
    """The wire format of a compressed batch.

    Attributes
    ----------
    codes:
        ``(d, M)`` kept amplitudes (complex for phase-bearing codecs).
    squared_norms:
        ``(M,)`` squared input norms — Eq. 2's classical side channel,
        one scalar per sample.
    """

    codes: np.ndarray
    squared_norms: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        sq = np.asarray(self.squared_norms, dtype=np.float64).ravel()
        if codes.ndim != 2:
            raise DimensionError(
                f"codes must be (d, M), got shape {codes.shape}"
            )
        if sq.size != codes.shape[1]:
            raise DimensionError(
                f"{sq.size} norms for {codes.shape[1]} samples"
            )
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "squared_norms", sq)

    @property
    def compressed_dim(self) -> int:
        return int(self.codes.shape[0])

    @property
    def num_samples(self) -> int:
        return int(self.codes.shape[1])

    @property
    def floats_per_sample(self) -> int:
        """Classical payload size: ``d`` amplitudes + the norm scalar."""
        return self.compressed_dim + 1

    @classmethod
    def coerce(
        cls,
        compressed: "Union[CompressedBatch, np.ndarray]",
        squared_norms: Optional[np.ndarray] = None,
    ) -> "CompressedBatch":
        """Normalise the two accepted payload forms into one.

        Every ``decompress`` surface (:class:`Codec`,
        :class:`~repro.api.session.InferenceSession`) accepts either a
        :class:`CompressedBatch` or a raw ``(d, M)`` code matrix plus
        its norms; this is the single unpacking path.
        """
        if isinstance(compressed, CompressedBatch):
            if squared_norms is not None:
                raise DimensionError(
                    "pass squared_norms only with a raw code matrix — a "
                    "CompressedBatch already carries its own"
                )
            return compressed
        if squared_norms is None:
            raise DimensionError(
                "raw code matrices need their squared_norms; pass a "
                "CompressedBatch or both arrays"
            )
        return cls(codes=compressed, squared_norms=squared_norms)

    # -- JSON wire form (repro.io.results_io container) ----------------
    def to_results(self) -> dict:
        """A :func:`repro.io.results_io.save_results`-safe mapping.

        Complex codes (phase-bearing codecs) split into real/imaginary
        planes since JSON has no complex scalar; :meth:`from_results`
        reassembles either form.  This is the one serialisation of the
        wire payload — the CLI and any network front-end share it.
        """
        out = {
            "squared_norms": self.squared_norms,
            "compressed_dim": self.compressed_dim,
            "num_samples": self.num_samples,
        }
        if np.iscomplexobj(self.codes):
            out["codes_real"] = self.codes.real.copy()
            out["codes_imag"] = self.codes.imag.copy()
        else:
            out["codes"] = self.codes
        return out

    @classmethod
    def from_results(cls, results: dict) -> "CompressedBatch":
        """Rebuild a payload from :meth:`to_results` output."""
        if "codes" in results:
            codes = np.asarray(results["codes"])
        elif "codes_real" in results and "codes_imag" in results:
            codes = np.asarray(results["codes_real"]) + 1j * np.asarray(
                results["codes_imag"]
            )
        else:
            raise DimensionError(
                "payload mapping has neither 'codes' nor "
                "'codes_real'/'codes_imag'"
            )
        return cls(
            codes=codes,
            squared_norms=np.asarray(results["squared_norms"]),
        )


def _embedded_spec(data, ae: QuantumAutoencoder) -> CodecSpec:
    """The spec a checkpoint embeds, checked against its header."""
    try:
        spec = CodecSpec.from_dict(data)
    except ReproError as exc:
        raise SerializationError(f"invalid embedded CodecSpec: {exc}") from exc
    # (spec value, archive value); a null spec projection means the last
    # ``compressed_dim`` modes, so both sides compare as kept-mode tuples.
    pairs = {
        "dim": (spec.dim, ae.dim),
        "compressed_dim": (spec.compressed_dim, ae.compressed_dim),
        "compression_layers": (spec.compression_layers, ae.uc.num_layers),
        "reconstruction_layers": (spec.reconstruction_layers, ae.ur.num_layers),
        "allow_phase": (spec.allow_phase, ae.uc.allow_phase),
        "renormalize": (spec.renormalize, ae.renormalize),
        "projection": (
            tuple(spec.build_projection().keep.tolist()),
            tuple(ae.projection.keep.tolist()),
        ),
    }
    for name, (claimed, value) in pairs.items():
        if claimed != value:
            raise SerializationError(
                f"embedded CodecSpec has {name}={claimed!r} but "
                f"the archive header has {value!r}"
            )
    return spec


class Codec:
    """Trainable compress/decompress pipeline configured by a CodecSpec.

    Parameters
    ----------
    spec:
        The frozen configuration; defaults to the paper's Section IV-A
        values.  Keyword overrides are applied via ``spec.with_(...)``.

    Examples
    --------
    >>> import numpy as np
    >>> codec = Codec(dim=4, compressed_dim=2, compression_layers=2,
    ...               reconstruction_layers=2, iterations=2)
    >>> X = np.abs(np.random.default_rng(0).normal(size=(6, 4))) + 0.1
    >>> payload = codec.fit(X).compress(X)
    >>> payload.codes.shape, codec.decompress(payload).shape
    ((2, 6), (6, 4))
    """

    def __init__(self, spec: Optional[CodecSpec] = None, **overrides) -> None:
        spec = spec if spec is not None else CodecSpec()
        if overrides:
            spec = spec.with_(**overrides)
        self.spec = spec
        self._ae = spec.build_autoencoder()
        self.last_result: Optional[TrainingResult] = None
        # Checkpoints record whether the parameters were ever fitted;
        # the training history itself is not serialised.
        self._fitted_on_load = False

    # ------------------------------------------------------------------
    @property
    def autoencoder(self) -> QuantumAutoencoder:
        """The underlying pipeline (shared, not a copy)."""
        return self._ae

    @property
    def dim(self) -> int:
        return self._ae.dim

    @property
    def compressed_dim(self) -> int:
        return self._ae.compressed_dim

    @property
    def is_fitted(self) -> bool:
        """Whether the parameters come from training (this process or a
        reloaded checkpoint); ``last_result`` only exists for the former."""
        return self.last_result is not None or self._fitted_on_load

    def compression_ratio(self) -> float:
        return self._ae.compression_ratio()

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, X, target_strategy=None) -> "Codec":
        """Train both networks on ``(M, N)`` classical data (Algorithm 1).

        ``X`` may be an ``(M, N)`` array, an
        :class:`~repro.data.dataset.ImageDataset`, a
        :class:`~repro.data.stream.MiniBatchStream` (trained with the
        stream's own batch size unless the spec sets one), or a path to a
        ``.npy``/``.npz``/results-JSON data file.  ``target_strategy``
        defaults to the spec's ``target`` choice (the calibrated
        per-sample PCA target).  Returns ``self``; the full
        :class:`~repro.training.trainer.TrainingResult` is kept on
        :attr:`last_result`.
        """
        from repro.data.dataset import ImageDataset
        from repro.data.stream import MiniBatchStream, load_data_matrix

        spec = self.spec
        if isinstance(X, MiniBatchStream):
            if spec.batch_size is None:
                spec = spec.with_(batch_size=X.batch_size)
            X = X.materialize()
        elif isinstance(X, ImageDataset):
            X = X.matrix()
        elif isinstance(X, (str, Path)):
            X = load_data_matrix(X)
        X = np.asarray(X, dtype=np.float64)
        if target_strategy is None:
            target_strategy = spec.build_target_strategy(self._ae, X)
        trainer = spec.build_trainer(record_theta_every=None)
        self.last_result = trainer.train(
            self._ae, X, target_strategy=target_strategy
        )
        return self

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def forward(self, X: np.ndarray) -> AutoencoderOutput:
        """The full Fig.-1 pass with every intermediate artefact."""
        return self._ae.forward(X)

    def compress(self, X: np.ndarray) -> CompressedBatch:
        """Encode and compress ``(M, N)`` data into its wire payload.

        Bit-identical to the ``compact_codes``/``squared_norms`` a full
        :meth:`forward` produces — only the reconstruction half is
        skipped.
        """
        encoded = self._ae.codec.encode(np.asarray(X, dtype=np.float64))
        compressed = self._ae.compression.compress(
            encoded.states, renormalize=self._ae.renormalize
        )
        return CompressedBatch(
            codes=self._ae.projection.restrict(compressed),
            squared_norms=encoded.squared_norms,
        )

    def decompress(
        self,
        compressed: Union[CompressedBatch, np.ndarray],
        squared_norms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reconstruct ``(M, N)`` classical data from a compressed payload.

        Accepts a :class:`CompressedBatch` or a raw ``(d, M)`` code matrix
        plus its norms.  ``decompress(compress(X))`` equals
        ``forward(X).x_hat`` bitwise: the embedded codes reproduce the
        projected state exactly (discarded rows are exact zeros), so the
        reconstruction network sees identical inputs.
        """
        payload = CompressedBatch.coerce(compressed, squared_norms)
        return self._ae.reconstruct_from_codes(
            payload.codes, payload.squared_norms
        )

    def evaluate(
        self,
        X: np.ndarray,
        *,
        noise=None,
        noise_trajectories: Optional[int] = None,
        noise_seed: int = 0,
        noise_path: str = "trajectory",
        pool=None,
    ) -> dict:
        """Round-trip quality metrics of this codec on ``(M, N)`` data.

        Returns Eq. 10 accuracy (thresholded and raw), MSE, the Eq. 5
        reconstruction loss and the mean probability mass surviving
        ``P1`` (1 - the paper's compression information loss).

        When ``noise`` is given (anything
        :meth:`repro.noise.NoiseModel.from_spec` accepts — a preset name,
        a JSON string, a mapping or a model), the same data is also run
        through the noisy execution path and the ``noisy_*`` /
        ``mean_fidelity`` / ``mean_transmission`` keys of
        :func:`repro.noise.evaluate_noisy` are merged in.
        ``noise_trajectories`` defaults to the spec's value;
        ``noise_path`` selects ``"trajectory"`` (default) or the exact
        ``"density"`` fold; ``pool`` shards trajectory realizations over
        a :class:`~repro.parallel.WorkerPool`.
        """
        X = np.asarray(X, dtype=np.float64)
        out = self._ae.forward(X)
        reference = decode_batch(
            out.encoded.amplitudes(), out.encoded.squared_norms
        )
        loss = SquaredErrorLoss(reduction="sum")
        metrics = {
            "accuracy": paper_accuracy(out.x_hat, reference),
            "pixel_accuracy": pixel_accuracy(out.x_hat, reference),
            "mse": mse(out.x_hat, reference),
            "reconstruction_loss": loss.value(
                out.output_amplitudes, out.encoded.amplitudes()
            ),
            "mean_retained_probability": float(
                np.mean(out.retained_probability)
            ),
        }
        from repro.noise.model import NoiseModel

        model = NoiseModel.from_spec(noise)
        if model is not None:
            from repro.noise.evaluate import _evaluate_encoded

            metrics.update(
                _evaluate_encoded(
                    self._ae,
                    X,
                    out.encoded,
                    model,
                    trajectories=(
                        noise_trajectories
                        if noise_trajectories is not None
                        else self.spec.noise_trajectories
                    ),
                    seed=noise_seed,
                    pool=pool,
                    path=noise_path,
                )
            )
        return metrics

    def degradation_curve(
        self,
        X: np.ndarray,
        noise=None,
        *,
        scales=(0.0, 0.25, 0.5, 0.75, 1.0),
        noise_trajectories: Optional[int] = None,
        noise_seed: int = 0,
        noise_path: str = "trajectory",
        pool=None,
    ) -> list:
        """Graceful-degradation sweep of this codec under scaled noise.

        ``noise`` defaults to the spec's own model and must resolve to a
        non-ideal :class:`~repro.noise.NoiseModel`; each entry of
        ``scales`` multiplies its channel strengths (shots kept fixed).
        Returns the record list of :func:`repro.noise.degradation_curve`.
        """
        from repro.exceptions import NoiseError
        from repro.noise.evaluate import degradation_curve
        from repro.noise.model import NoiseModel

        model = NoiseModel.from_spec(
            noise if noise is not None else self.spec.noise
        )
        if model is None:
            raise NoiseError(
                "degradation_curve needs a noise model: pass noise=... or "
                "configure the spec with one"
            )
        return degradation_curve(
            self._ae,
            np.asarray(X, dtype=np.float64),
            model,
            scales=scales,
            trajectories=(
                noise_trajectories
                if noise_trajectories is not None
                else self.spec.noise_trajectories
            ),
            seed=noise_seed,
            pool=pool,
            path=noise_path,
        )

    # ------------------------------------------------------------------
    # imaging front-end (repro.imaging, wire format v2)
    # ------------------------------------------------------------------
    def compress_image(self, image: np.ndarray, **overrides):
        """Compress an arbitrary-size ``[0, 1]`` grayscale image.

        Delegates to :func:`repro.imaging.compress_image` with this
        spec's tile/transform/quantization knobs (``tile_size``,
        ``tile_transform``, ``tile_quality``, ``tile_pad``,
        ``code_bits``) as defaults; keyword ``overrides`` win.  Returns
        a :class:`~repro.imaging.container.CompressedImage`.
        """
        from repro.imaging import compress_image

        return compress_image(image, self, **self._imaging_kwargs(overrides))

    def decompress_image(self, compressed) -> np.ndarray:
        """Reconstruct an image from a wire-format-v2 container."""
        from repro.imaging import decompress_image

        return decompress_image(compressed, self)

    def _imaging_kwargs(self, overrides: dict) -> dict:
        spec = self.spec
        kwargs = {
            "tile_size": spec.tile_size,
            "transform": spec.tile_transform,
            "quality": spec.tile_quality,
            "pad_mode": spec.tile_pad,
            "code_bits": spec.code_bits,
        }
        kwargs.update(overrides)
        return kwargs

    # ------------------------------------------------------------------
    # persistence — the repro.io npz container, spec riding in the header
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Write a v2 checkpoint: autoencoder archive + embedded spec.

        The file is a plain :func:`repro.io.model_io.save_autoencoder`
        archive (so ``load_autoencoder`` still reads it) with the full
        :class:`CodecSpec` stored under ``extra.spec``.  Returns the
        written path (``.npz`` appended when missing).
        """
        from repro.io.model_io import save_autoencoder

        return save_autoencoder(
            self._ae,
            path,
            extra={"spec": self.spec.to_dict(), "fitted": self.is_fitted},
        )

    @classmethod
    def load(cls, path: PathLike) -> "Codec":
        """Rebuild a codec from :meth:`save` output or any autoencoder
        archive (v1 or v2).

        Archives without an embedded spec (plain ``save_autoencoder``
        output, including every v1 file) get a spec synthesised from the
        architecture header plus default execution knobs.  An embedded
        spec that does not parse, or disagrees with the header on the
        architecture, the kept modes or ``renormalize``, raises
        :class:`~repro.exceptions.SerializationError`.
        """
        from repro.io.model_io import load_autoencoder_with_meta

        ae, meta = load_autoencoder_with_meta(path)
        extra = meta.get("extra")
        if extra is None:
            extra = {}
        elif not isinstance(extra, dict):
            raise SerializationError(
                f"checkpoint 'extra' must be a JSON object, got "
                f"{type(extra).__name__}"
            )
        spec_dict = extra.get("spec")
        if spec_dict is not None:
            spec = _embedded_spec(spec_dict, ae)
            # The archive header only stores the backend's registry name;
            # the spec keeps the full spelling (e.g. 'sharded:4'), so
            # restore any configuration the header spelling dropped.
            if spec.backend != ae.backend_name:
                ae.set_backend(spec.backend)
        else:
            spec = CodecSpec(
                dim=ae.dim,
                compressed_dim=ae.compressed_dim,
                compression_layers=ae.uc.num_layers,
                reconstruction_layers=ae.ur.num_layers,
                allow_phase=ae.uc.allow_phase,
                renormalize=ae.renormalize,
                projection=tuple(int(k) for k in ae.projection.keep),
                backend=ae.backend_name,
            )
        codec = cls.__new__(cls)
        codec.spec = spec
        codec._ae = ae
        codec.last_result = None
        codec._fitted_on_load = bool(extra.get("fitted", False))
        return codec

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def session(self, **kwargs):
        """Compile an immutable :class:`~repro.api.session.InferenceSession`.

        Keyword arguments are forwarded (``max_batch_size``,
        ``flush_latency``, ``chunk_size``, ``pool``).
        """
        from repro.api.session import InferenceSession

        return InferenceSession.from_codec(self, **kwargs)

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return (
            f"Codec(dim={self.dim}, d={self.compressed_dim}, "
            f"lC={self._ae.uc.num_layers}, lR={self._ae.ur.num_layers}, "
            f"backend={self._ae.backend_name!r}, {state})"
        )
