"""Command-line interface: ``python -m repro <command> [options]``.

Two command families share one parser:

**Paper artefacts** — run an experiment, print the rendered figure/table,
optionally archive the raw numbers as JSON:

.. code-block:: console

    python -m repro fig4 --iterations 200
    python -m repro fig5 --output results/fig5.json
    python -m repro table1 --strong-csc
    python -m repro ablation --study gradient

**Codec lifecycle** — train a :class:`~repro.api.Codec`, move payloads
through a checkpoint, and benchmark the serving path:

.. code-block:: console

    python -m repro train --checkpoint model.npz --iterations 150
    python -m repro compress --checkpoint model.npz --output codes.json
    python -m repro decompress --checkpoint model.npz --codes codes.json
    python -m repro serve --checkpoint model.npz --port 8077 --deadline-ms 50
    python -m repro serve-bench --checkpoint model.npz --requests 256

**Imaging front-end** — move arbitrary-size PGM grayscale images
through the tiled pipeline (wire format v2; ``--checkpoint`` selects
per-tile quantum compression, omitting it the classical transform
coder):

.. code-block:: console

    python -m repro compress-image --input lena.pgm --output lena.rimg \\
        --checkpoint model.npz --quality 60
    python -m repro decompress-image --input lena.rimg --output out.pgm \\
        --checkpoint model.npz --reference lena.pgm

Every run is deterministic given ``--seed`` (default 2024).  Unknown
commands exit with status 2 and the usage string; ``--version`` prints
the package version.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.backends import available_backends, validate_backend_name
from repro.exceptions import ReproError, SerializationError
from repro.experiments import ablations
from repro.experiments.config import PaperConfig
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.reporting import (
    render_fig4,
    render_fig5,
    render_records,
    render_table1,
)
from repro.experiments.table1 import run_table1
from repro.io.results_io import load_results, save_results
from repro.training.gradients import available_gradient_methods

__all__ = ["build_parser", "main"]

_ABLATION_STUDIES = {
    "gradient": ablations.gradient_method_comparison,
    "layers": ablations.layer_sweep,
    "learning-rate": ablations.learning_rate_sweep,
    "compression-dim": ablations.compression_dim_sweep,
    "initializer": ablations.initializer_comparison,
    "shots": ablations.shot_noise_study,
    "imperfections": ablations.imperfection_study,
    "complex": ablations.complex_network_study,
}


def _backend_spec(value: str) -> str:
    """argparse type for ``--backend``: registry names plus ``name:arg``
    spellings (``sharded:4``), validated against the backend registry."""
    try:
        return validate_backend_name(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parallel_spec(value: str) -> Optional[str]:
    """argparse type for ``--parallel``: ``none``, ``pool`` or ``pool:K``."""
    from repro.parallel.reducer import validate_parallel_spec

    try:
        return validate_parallel_spec(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _noise_spec(value: str) -> Optional[str]:
    """argparse type for ``--noise``: a NoiseModel JSON object or preset
    name, normalized to the canonical spec string."""
    from repro.noise.model import NoiseModel

    try:
        model = NoiseModel.from_spec(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return None if model is None else model.spec_string()


def _add_noise_args(p: argparse.ArgumentParser) -> None:
    from repro.noise.model import NOISE_PRESETS

    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--noise",
        type=_noise_spec,
        default=None,
        metavar="JSON",
        help=(
            "hardware-noise model as a JSON object, e.g. "
            "'{\"theta_sigma\": 0.02, \"dephasing\": 0.05}' "
            "(fields: theta_sigma, loss_per_gate, dephasing, "
            "depolarizing, shots)"
        ),
    )
    group.add_argument(
        "--noise-preset",
        choices=sorted(NOISE_PRESETS),
        default=None,
        help="named noise model (see docs/noise.md)",
    )
    p.add_argument(
        "--noise-trajectories",
        type=int,
        default=8,
        metavar="K",
        help=(
            "noise realizations averaged per noisy pass / gradient step "
            "(default 8)"
        ),
    )


def _noise_from_args(args: argparse.Namespace) -> Optional[str]:
    """The one noise spec a command received, or ``None`` (ideal)."""
    return getattr(args, "noise", None) or getattr(args, "noise_preset", None)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Image Compression and Reconstruction Based on "
            "Quantum Network' (IPPS 2024)"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "execution options (shared by every experiment):\n"
            "  --backend      'loop' is the bit-exact reference; 'fused' "
            "caches the\n"
            "                 network unitary and the prefix/suffix gradient "
            "workspace;\n"
            "                 'sharded[:K]' scatters wide (N, M) batches "
            "over K worker\n"
            "                 processes (shared-memory column shards; see "
            "docs/sharding.md).\n"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--iterations", type=int, default=150,
                       help="training iterations (paper: 150)")
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--optimizer", choices=["gd", "momentum", "adam"],
                       default="momentum")
        p.add_argument(
            "--gradient",
            choices=available_gradient_methods(),
            default="adjoint",
            help="'fd' is the paper's finite differences (slow)",
        )
        p.add_argument(
            "--backend",
            type=_backend_spec,
            metavar="{" + ",".join(available_backends()) + "}[:arg]",
            default="loop",
            help=(
                "execution backend: 'loop' is the bit-exact reference, "
                "'fused' caches the network unitary and prefix/suffix "
                "gradient products (fast), 'sharded[:K]' scatters wide "
                "batches over K worker processes"
            ),
        )
        p.add_argument("--output", type=str, default=None,
                       help="write raw results to this JSON file")

    p4 = sub.add_parser("fig4", help="main training experiment (Fig. 4)")
    add_common(p4)
    p5 = sub.add_parser("fig5", help="QN vs CSC loss comparison (Fig. 5c)")
    add_common(p5)
    pt = sub.add_parser("table1", help="quantum superiority table (Table I)")
    add_common(pt)
    pt.add_argument("--strong-csc", action="store_true",
                    help="include the MOD+OMP classical upper bound")
    pa = sub.add_parser("ablation", help="extension studies")
    add_common(pa)
    pa.add_argument("--study", choices=sorted(_ABLATION_STUDIES),
                    required=True)

    # -- codec lifecycle ------------------------------------------------
    ptr = sub.add_parser(
        "train",
        help="train a Codec on the paper dataset and save a checkpoint",
    )
    add_common(ptr)
    ptr.add_argument("--checkpoint", type=str, required=True,
                     help="write the trained codec to this .npz file")
    ptr.add_argument("--compressed-dim", type=int, default=4,
                     help="kept subspace size d (paper: 4)")
    ptr.add_argument("--compression-layers", type=int, default=12)
    ptr.add_argument("--reconstruction-layers", type=int, default=14)
    ptr.add_argument("--renormalize", action="store_true",
                     help="renormalise the projected state (post-selection)")
    ptr.add_argument("--allow-phase", action="store_true",
                     help="Section V complex (trainable alpha) extension")
    ptr.add_argument(
        "--parallel",
        type=_parallel_spec,
        metavar="{none,pool,pool:K}",
        default=None,
        help=(
            "data-parallel gradient execution: 'pool' shards every "
            "gradient step over one worker per usable CPU, 'pool:K' over "
            "exactly K workers (deterministic tree reduction; see "
            "docs/training.md)"
        ),
    )
    ptr.add_argument(
        "--batch-size", type=int, default=None,
        help=(
            "mini-batch size per gradient step (seeded epoch shuffle, "
            "prefetched); default: full batch, the paper's regime"
        ),
    )
    ptr.add_argument(
        "--input", type=str, default=None,
        help=(
            "train on this data file (.npy/.npz/results JSON holding "
            "'X') instead of the paper dataset"
        ),
    )
    _add_noise_args(ptr)

    pc = sub.add_parser(
        "compress",
        help="compress data through a checkpoint into a codes JSON file",
    )
    pc.add_argument("--checkpoint", type=str, required=True)
    pc.add_argument("--output", type=str, required=True,
                    help="write the compressed payload to this JSON file")
    pc.add_argument("--input", type=str, default=None,
                    help=(
                        "JSON results file holding an 'X' (M, N) matrix; "
                        "defaults to the paper dataset"
                    ))
    pc.add_argument("--seed", type=int, default=2024,
                    help="paper-dataset seed when --input is omitted")
    _add_noise_args(pc)

    pd = sub.add_parser(
        "decompress",
        help="reconstruct data from a codes JSON file through a checkpoint",
    )
    pd.add_argument("--checkpoint", type=str, required=True)
    pd.add_argument("--codes", type=str, required=True,
                    help="payload JSON written by 'compress'")
    pd.add_argument("--output", type=str, default=None,
                    help="write the reconstruction to this JSON file")

    pv = sub.add_parser(
        "serve",
        help="run the asyncio network front-end over a compiled session",
    )
    pv.add_argument("--checkpoint", type=str, default=None,
                    help="codec checkpoint; defaults to a seed-initialised "
                         "paper-config codec")
    pv.add_argument("--host", type=str, default="127.0.0.1")
    pv.add_argument("--port", type=int, default=8077,
                    help="listening port (0 picks a free port)")
    pv.add_argument("--seed", type=int, default=2024)
    pv.add_argument("--max-inflight", type=int, default=256,
                    help="admission bound; requests beyond it are shed "
                         "with error 429")
    pv.add_argument("--deadline-ms", type=int, default=0,
                    help="default per-request deadline budget "
                         "(0 = none; clients may send their own)")
    pv.add_argument("--max-batch", type=int, default=64,
                    help="micro-batcher tick-width cap")
    pv.add_argument("--batch-window-ms", type=float, default=2.0,
                    help="max time a queued request waits for tick-mates")
    pv.add_argument("--duration", type=float, default=0.0,
                    help="seconds to serve before draining "
                         "(0 = until SIGINT/SIGTERM)")
    pv.add_argument("--output", type=str, default=None,
                    help="write the final stats JSON to this file")
    _add_noise_args(pv)

    ps = sub.add_parser(
        "serve-bench",
        help="micro-benchmark the InferenceSession against eager forward",
    )
    ps.add_argument("--checkpoint", type=str, default=None,
                    help="codec checkpoint; defaults to a seed-initialised "
                         "paper-config codec")
    ps.add_argument("--requests", type=int, default=256)
    ps.add_argument("--max-batch", type=int, default=32)
    ps.add_argument("--seed", type=int, default=2024)
    ps.add_argument("--output", type=str, default=None,
                    help="write the benchmark JSON to this file")
    _add_noise_args(ps)
    # -- imaging front-end ----------------------------------------------
    from repro.imaging.tiler import PAD_MODES
    from repro.imaging.transform import TRANSFORMS

    pci = sub.add_parser(
        "compress-image",
        help="compress a PGM image into a wire-format-v2 container",
    )
    pci.add_argument("--input", type=str, required=True,
                     help="grayscale PGM (ASCII P2 or raw P5) image")
    pci.add_argument("--output", type=str, required=True,
                     help="write the compressed container to this file")
    pci.add_argument("--checkpoint", type=str, default=None,
                     help=(
                         "codec checkpoint for per-tile quantum "
                         "compression; omit for the classical "
                         "transform coder"
                     ))
    pci.add_argument("--tile-size", type=int, default=None,
                     help="tile side T; default sqrt(codec dim), or 4 "
                          "without a checkpoint")
    pci.add_argument("--transform", choices=TRANSFORMS, default="dct")
    pci.add_argument("--quality", type=int, default=75,
                     help="JPEG-style quality knob, 1-100")
    pci.add_argument("--pad", choices=PAD_MODES, default="edge",
                     help="padding for non-tile-multiple image dims")
    pci.add_argument("--code-bits", type=int, default=8,
                     help="signed bits per quantized code amplitude "
                          "(quantum mode)")

    pdi = sub.add_parser(
        "decompress-image",
        help="reconstruct a PGM image from a wire-format-v2 container",
    )
    pdi.add_argument("--input", type=str, required=True,
                     help="container file written by 'compress-image'")
    pdi.add_argument("--output", type=str, required=True,
                     help="write the reconstructed PGM here")
    pdi.add_argument("--checkpoint", type=str, default=None,
                     help="codec checkpoint (required for quantum-mode "
                          "containers)")
    pdi.add_argument("--reference", type=str, default=None,
                     help="original PGM; prints reconstruction PSNR "
                          "against it")
    pdi.add_argument("--binary", action="store_true",
                     help="write raw P5 instead of ASCII P2")

    # Checkpoint-consuming commands can override the archived execution
    # backend (e.g. run a 'loop'-trained model on 'sharded:4' workers).
    for p in (pc, pd, ps, pv, pci, pdi):
        p.add_argument(
            "--backend",
            type=_backend_spec,
            metavar="{" + ",".join(available_backends()) + "}[:arg]",
            default=None,
            help=(
                "override the checkpoint's execution backend "
                "('loop', 'fused', 'sharded[:K]')"
            ),
        )
    return parser


def _config_from_args(args: argparse.Namespace) -> PaperConfig:
    return PaperConfig(
        iterations=args.iterations,
        seed=args.seed,
        optimizer=args.optimizer,
        gradient_method=args.gradient,
        backend=args.backend,
    )


# ----------------------------------------------------------------------
# codec-lifecycle helpers
# ----------------------------------------------------------------------
def _default_dataset(dim: int, seed: int) -> np.ndarray:
    from repro.data.binary_images import paper_dataset

    image_size = int(round(np.sqrt(dim)))
    return paper_dataset(image_size=image_size, seed=seed).matrix()


def _apply_backend_override(codec, backend: Optional[str]):
    """Swap a loaded codec onto ``backend``; returns its sharded worker
    pool (for session attachment) when one is behind the new backend."""
    from repro.backends.sharded import ShardedBackend

    if backend is not None:
        codec.autoencoder.set_backend(backend)
    bound = codec.autoencoder.uc.backend
    return bound.pool if isinstance(bound, ShardedBackend) else None


def _close_backend(codec) -> None:
    """Release worker processes a sharded backend may have spawned."""
    backend = codec.autoencoder.uc.backend
    close = getattr(backend, "close", None)
    if close is not None:
        close()


def _run_train(args: argparse.Namespace) -> dict:
    from repro.api import Codec, CodecSpec

    spec = CodecSpec(
        compressed_dim=args.compressed_dim,
        compression_layers=args.compression_layers,
        reconstruction_layers=args.reconstruction_layers,
        renormalize=args.renormalize,
        allow_phase=args.allow_phase,
        backend=args.backend,
        gradient_method=args.gradient,
        optimizer=args.optimizer,
        iterations=args.iterations,
        seed=args.seed,
        batch_size=args.batch_size,
        parallel=args.parallel,
        noise=_noise_from_args(args),
        noise_trajectories=args.noise_trajectories,
    )
    codec = Codec(spec)
    if args.input:
        from repro.data.stream import load_data_matrix

        X = np.asarray(load_data_matrix(args.input), dtype=np.float64)
    else:
        X = _default_dataset(spec.dim, args.seed)
    t0 = time.perf_counter()
    codec.fit(X)
    seconds = time.perf_counter() - t0
    written = codec.save(args.checkpoint)
    metrics = codec.evaluate(X, noise=spec.noise)
    assert codec.last_result is not None
    print(f"trained {codec!r} in {seconds:.2f}s "
          f"({args.iterations} iterations)")
    print(f"  L_C={codec.last_result.final_loss_c:.6f} "
          f"L_R={codec.last_result.final_loss_r:.6f} "
          f"accuracy={metrics['accuracy']:.2f}%")
    if spec.noise is not None:
        print(f"  under noise {spec.noise}: "
              f"accuracy={metrics['noisy_accuracy']:.2f}% "
              f"PSNR={metrics['noisy_psnr_db']:.2f}dB "
              f"fidelity={metrics['mean_fidelity']:.4f} "
              f"transmission={metrics['mean_transmission']:.4f}")
    print(f"checkpoint written to {written}")
    _close_backend(codec)
    return {
        "seconds": seconds,
        "loss_c": codec.last_result.final_loss_c,
        "loss_r": codec.last_result.final_loss_r,
        **metrics,
    }


def _run_compress(args: argparse.Namespace) -> dict:
    from repro.api import Codec

    codec = Codec.load(args.checkpoint)
    _apply_backend_override(codec, args.backend)
    if args.input:
        results = load_results(args.input)
        if "X" not in results:
            raise SerializationError(
                f"--input file {args.input} has no 'X' entry; expected a "
                "results JSON holding an (M, N) data matrix under 'X'"
            )
        X = np.asarray(results["X"], dtype=np.float64)
    else:
        X = _default_dataset(codec.dim, args.seed)
    payload = codec.compress(X)
    results = payload.to_results()
    save_results(results, args.output)
    print(f"compressed {payload.num_samples} samples: "
          f"{codec.dim} -> {payload.compressed_dim} amplitudes "
          f"(+1 norm scalar) per sample "
          f"({codec.compression_ratio():.0%} ratio)")
    print(f"payload written to {args.output}")
    noise = _noise_from_args(args)
    if noise is not None:
        # Payload itself stays clean (the codes are classical data); the
        # report says what a noisy optical round trip would reconstruct.
        noisy = codec.evaluate(
            X, noise=noise, noise_trajectories=args.noise_trajectories
        )
        print(f"noisy round trip under {noise}: "
              f"accuracy={noisy['noisy_accuracy']:.2f}% "
              f"PSNR={noisy['noisy_psnr_db']:.2f}dB "
              f"fidelity={noisy['mean_fidelity']:.4f} "
              f"transmission={noisy['mean_transmission']:.4f}")
    _close_backend(codec)
    return results


def _run_decompress(args: argparse.Namespace) -> dict:
    from repro.api import Codec, CompressedBatch

    codec = Codec.load(args.checkpoint)
    _apply_backend_override(codec, args.backend)
    payload = CompressedBatch.from_results(load_results(args.codes))
    x_hat = codec.decompress(payload)
    print(f"decompressed {payload.num_samples} samples back to "
          f"({x_hat.shape[0]}, {x_hat.shape[1]})")
    results = {"x_hat": x_hat}
    if args.output:
        save_results(results, args.output)
        print(f"reconstruction written to {args.output}")
    _close_backend(codec)
    return results


def _load_image_codec(args: argparse.Namespace):
    """The optional quantum half of an imaging command."""
    if not args.checkpoint:
        return None
    from repro.api import Codec

    codec = Codec.load(args.checkpoint)
    _apply_backend_override(codec, args.backend)
    return codec


def _run_compress_image(args: argparse.Namespace) -> dict:
    from pathlib import Path

    from repro.imaging import compress_image
    from repro.io.image_io import read_pgm

    image = read_pgm(args.input)
    codec = _load_image_codec(args)
    blob = compress_image(
        image,
        codec,
        tile_size=args.tile_size,
        transform=args.transform,
        quality=args.quality,
        pad_mode=args.pad,
        code_bits=args.code_bits,
    )
    encoded = blob.to_bytes()
    Path(args.output).write_bytes(encoded)
    g = blob.grid
    print(f"compressed {g.height}x{g.width} image into "
          f"{g.rows}x{g.cols} tiles of {g.tile_size}x{g.tile_size} "
          f"({blob.mode} mode, {args.transform} transform, "
          f"quality {args.quality})")
    print(f"{len(encoded)} bytes = {blob.bits_per_pixel():.3f} bpp "
          f"(raw 8-bit: {g.num_pixels} bytes)")
    print(f"container written to {args.output}")
    if codec is not None:
        _close_backend(codec)
    return {
        "height": g.height,
        "width": g.width,
        "mode": blob.mode,
        "num_tiles": g.num_tiles,
        "num_bytes": len(encoded),
        "bits_per_pixel": blob.bits_per_pixel(),
    }


def _run_decompress_image(args: argparse.Namespace) -> dict:
    from pathlib import Path

    from repro.exceptions import ImagingError
    from repro.imaging import CompressedImage, decompress_image
    from repro.io.image_io import read_pgm, write_pgm

    blob = CompressedImage.from_bytes(Path(args.input).read_bytes())
    codec = _load_image_codec(args)
    image = decompress_image(blob, codec)
    write_pgm(image, args.output, binary=args.binary)
    h, w = image.shape
    print(f"decompressed {h}x{w} image ({blob.mode} mode, "
          f"{blob.bits_per_pixel():.3f} bpp)")
    print(f"image written to {args.output}")
    results = {
        "height": h,
        "width": w,
        "mode": blob.mode,
        "bits_per_pixel": blob.bits_per_pixel(),
    }
    if args.reference:
        from repro.training.metrics import psnr

        reference = read_pgm(args.reference)
        if reference.shape != image.shape:
            raise ImagingError(
                f"reference image is {reference.shape}, reconstruction "
                f"is {image.shape}"
            )
        results["psnr_db"] = float(psnr(image, reference))
        print(f"PSNR vs {args.reference}: {results['psnr_db']:.2f} dB")
    if codec is not None:
        _close_backend(codec)
    return results


def _run_serve(args: argparse.Namespace) -> dict:
    import asyncio

    from repro.api import Codec
    from repro.serving.server import run_frontend

    if args.checkpoint:
        codec = Codec.load(args.checkpoint)
    else:
        codec = Codec(seed=args.seed)
    pool = _apply_backend_override(codec, args.backend)
    session = codec.session(
        max_batch_size=args.max_batch, flush_latency=None, pool=pool,
        noise=_noise_from_args(args),
        noise_trajectories=args.noise_trajectories,
    )

    def _ready(frontend) -> None:
        # The smoke scripts and operators wait for this exact line; keep
        # it first and flushed.
        print(f"listening on {frontend.host}:{frontend.port} "
              f"(max_inflight={frontend.max_inflight}, "
              f"deadline_ms={frontend.default_deadline_ms}, "
              f"max_batch={args.max_batch})", flush=True)
        print(f"serving {codec!r}; GET /healthz or /stats on the same "
              f"port; Ctrl-C drains and exits", flush=True)

    try:
        stats = asyncio.run(run_frontend(
            session,
            duration=args.duration if args.duration > 0 else None,
            ready_callback=_ready,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            default_deadline_ms=args.deadline_ms,
            batch_window=args.batch_window_ms / 1000.0,
        ))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        stats = {"server": {}, "batcher": {}}
    finally:
        session.close()
        _close_backend(codec)
    server = stats.get("server", {})
    print(f"drained: served={server.get('served', 0)} "
          f"shed={server.get('shed', 0)} "
          f"expired={server.get('expired', 0)} "
          f"connections={server.get('connections_total', 0)}")
    return stats


def _run_serve_bench(args: argparse.Namespace) -> dict:
    from repro.api import Codec
    from repro.api.benchmark import measure_serving, synthetic_requests

    if args.checkpoint:
        codec = Codec.load(args.checkpoint)
    else:
        codec = Codec(seed=args.seed)
    pool = _apply_backend_override(codec, args.backend)
    requests = synthetic_requests(args.requests, codec.dim, seed=args.seed)
    results = measure_serving(
        codec.autoencoder, requests, max_batch_size=args.max_batch,
        pool=pool,
        noise=_noise_from_args(args),
        noise_trajectories=args.noise_trajectories,
    )
    print(f"eager   : {results['eager_req_per_s']:10.0f} req/s "
          f"(per-request QuantumAutoencoder.forward)")
    print(f"session : {results['session_req_per_s']:10.0f} req/s "
          f"(micro-batched single-GEMM ticks of <= {args.max_batch})")
    print(f"speedup : {results['speedup']:.1f}x "
          f"over {results['ticks']} ticks")
    if "noise" in results:
        print(f"noisy   : {results['noisy_req_per_s']:10.0f} req/s "
              f"under {results['noise']} "
              f"x{results['noise_trajectories']} realizations")
        print(f"latency : clean p50={results['clean_p50_ms']:.3f}ms "
              f"p99={results['clean_p99_ms']:.3f}ms | "
              f"noisy p50={results['noisy_p50_ms']:.3f}ms "
              f"p99={results['noisy_p99_ms']:.3f}ms")
        print(f"penalty : noisy-vs-clean mse "
              f"{results['noisy_vs_clean_mse']:.3g}")
    _close_backend(codec)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Parser failures (unknown command, bad flag) are converted to their
    argparse exit status — code 2 with the usage string on stderr —
    instead of letting ``SystemExit`` propagate to programmatic callers.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints usage/message itself
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2

    if args.experiment in ("train", "compress", "decompress", "serve",
                           "serve-bench", "compress-image",
                           "decompress-image"):
        handler = {
            "train": _run_train,
            "compress": _run_compress,
            "decompress": _run_decompress,
            "serve": _run_serve,
            "serve-bench": _run_serve_bench,
            "compress-image": _run_compress_image,
            "decompress-image": _run_decompress_image,
        }[args.experiment]
        try:
            payload = handler(args)
            # compress/decompress manage --output themselves (it IS
            # their artefact); train/serve/serve-bench archive their
            # summary like the experiment commands do.
            output = getattr(args, "output", None)
            if output and args.experiment in ("train", "serve",
                                              "serve-bench"):
                save_results(payload, output)
                print(f"\nresults written to {output}")
        except (ReproError, FileNotFoundError) as exc:
            # Lifecycle commands take user-supplied file paths; a bad
            # path or malformed payload is an operator error, not a bug
            # — report it without a traceback.
            print(f"repro {args.experiment}: error: {exc}", file=sys.stderr)
            return 1
        return 0

    config = _config_from_args(args)
    if args.experiment == "fig4":
        result = run_fig4(config)
        print(render_fig4(result))
        payload = result.summary()
        payload["loss_c"] = np.asarray(result.history.loss_c)
        payload["loss_r"] = np.asarray(result.history.loss_r)
        payload["accuracy"] = np.asarray(result.history.accuracy)
    elif args.experiment == "fig5":
        result = run_fig5(config)
        print(render_fig5(result))
        payload = result.summary()
        payload["qn_loss"] = result.qn_loss
        payload["csc_loss"] = result.csc_loss
    elif args.experiment == "table1":
        rows = run_table1(config, include_strong_csc=args.strong_csc)
        print(render_table1(rows))
        payload = {"rows": [r.as_dict() for r in rows]}
    else:  # ablation
        study = _ABLATION_STUDIES[args.study]
        records = study(config)
        print(render_records(records, title=f"ablation: {args.study}"))
        payload = {"study": args.study, "records": records}

    if args.output:
        save_results(payload, args.output)
        print(f"\nresults written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
