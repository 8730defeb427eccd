"""Save/load trained autoencoders (NPZ container).

The format stores a small JSON metadata string (architecture) plus the raw
parameter arrays, so a file round-trips to an autoencoder that is numerically
identical and structurally re-buildable without pickling arbitrary code.

Format history:

- **v1** (PR 0): architecture + parameters.
- **v2** (this version): additionally persists the pipeline state a
  round-trip used to drop — ``renormalize`` and the selected execution
  ``backend`` name — plus an optional free-form ``extra`` mapping used by
  higher layers (:meth:`repro.api.Codec.save` stores its ``CodecSpec``
  there).  v1 archives still load, with back-compat defaults
  (``renormalize=False``, ``backend="loop"``).
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from repro.exceptions import ReproError, SerializationError
from repro.network.autoencoder import QuantumAutoencoder
from repro.network.projection import Projection

__all__ = [
    "save_autoencoder",
    "load_autoencoder",
    "load_autoencoder_with_meta",
]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

PathLike = Union[str, Path]


def _npz_path(path: PathLike) -> Path:
    """The path ``np.savez`` will actually write (it appends ``.npz``)."""
    p = Path(path)
    return p if str(p).endswith(".npz") else Path(str(p) + ".npz")


def _read_path(path: PathLike) -> Path:
    """Resolve a load path symmetrically with the save-side suffixing.

    A checkpoint saved as ``model`` lands on disk as ``model.npz``; loads
    by either name must find it (the literal path wins if it exists).
    """
    p = Path(path)
    if p.exists():
        return p
    alt = _npz_path(p)
    return alt if alt.exists() else p


#: What numpy and zipfile raise on a truncated or bit-flipped archive.
_DAMAGED_ARCHIVE = (
    zipfile.BadZipFile,
    EOFError,
    ValueError,
    KeyError,
    NotImplementedError,
    OSError,
)


@contextmanager
def _open_archive(path: PathLike) -> Iterator[np.lib.npyio.NpzFile]:
    """``np.load`` a model archive for reading, as a context manager.

    A damaged file — while opening it or while reading its entries in the
    ``with`` body — raises :class:`SerializationError` instead of the
    zipfile/numpy exception underneath; a missing file still raises
    ``FileNotFoundError``.
    """
    target = _read_path(path)
    try:
        with np.load(target) as archive:
            yield archive
    except (ReproError, FileNotFoundError):
        raise
    except _DAMAGED_ARCHIVE as exc:
        raise SerializationError(
            f"corrupt or unreadable model archive {str(target)!r}: {exc}"
        ) from exc


def _write_archive(path: PathLike, meta: dict, params: np.ndarray) -> Path:
    target = _npz_path(path)
    np.savez(
        target,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        params=params,
    )
    return target


def _read_meta(archive: np.lib.npyio.NpzFile, expected_kind: str) -> dict:
    if "meta" not in archive or "params" not in archive:
        raise SerializationError(
            "file is missing 'meta'/'params' entries — not a repro model file"
        )
    try:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt model metadata: {exc}") from exc
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise SerializationError(
            f"unsupported format version {meta.get('format_version')!r}; "
            f"this build reads versions {list(_SUPPORTED_VERSIONS)}"
        )
    if meta.get("kind") != expected_kind:
        raise SerializationError(
            f"expected a {expected_kind} file, got {meta.get('kind')!r}"
        )
    return meta


def save_autoencoder(
    autoencoder: QuantumAutoencoder,
    path: PathLike,
    extra: Optional[dict] = None,
) -> Path:
    """Serialise a full autoencoder (both networks + projection + pipeline).

    Returns the written path (``.npz`` appended when missing, matching
    ``np.savez``).

    Since format v2 the archive also carries ``renormalize`` and the
    execution ``backend`` name, so a round-tripped autoencoder produces
    bit-identical outputs; ``extra`` (any JSON-serialisable mapping) rides
    along in the header for callers layering richer artefacts on the same
    container.
    """
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": "QuantumAutoencoder",
        "dim": autoencoder.dim,
        "compressed_dim": autoencoder.compressed_dim,
        "compression_layers": autoencoder.uc.num_layers,
        "reconstruction_layers": autoencoder.ur.num_layers,
        "allow_phase": autoencoder.uc.allow_phase,
        "keep": autoencoder.projection.keep.tolist(),
        "renormalize": autoencoder.renormalize,
        "backend": autoencoder.backend_name,
    }
    if extra:
        meta["extra"] = extra
    return _write_archive(
        path,
        meta,
        np.concatenate(
            [autoencoder.uc.get_flat_params(), autoencoder.ur.get_flat_params()]
        ),
    )


def load_autoencoder(path: PathLike) -> QuantumAutoencoder:
    """Load an autoencoder saved by :func:`save_autoencoder`.

    v1 archives (which predate the pipeline-state fields) load with
    ``renormalize=False`` and the ``"loop"`` backend — the defaults every
    v1-era autoencoder actually ran with.
    """
    return load_autoencoder_with_meta(path)[0]


def load_autoencoder_with_meta(
    path: PathLike,
) -> tuple[QuantumAutoencoder, dict]:
    """Like :func:`load_autoencoder`, also returning the metadata header.

    One archive read serves callers that need both (e.g.
    :meth:`repro.api.Codec.load`, which reconstructs its spec from the
    v2 ``extra`` mapping).
    """
    with _open_archive(path) as archive:
        meta = _read_meta(archive, "QuantumAutoencoder")
        ae = QuantumAutoencoder(
            dim=int(meta["dim"]),
            compressed_dim=int(meta["compressed_dim"]),
            compression_layers=int(meta["compression_layers"]),
            reconstruction_layers=int(meta["reconstruction_layers"]),
            projection=Projection(int(meta["dim"]), meta["keep"]),
            allow_phase=bool(meta["allow_phase"]),
            backend=str(meta.get("backend", "loop")),
            renormalize=bool(meta.get("renormalize", False)),
        )
        params = np.asarray(archive["params"], dtype=np.float64)
        n_uc = ae.uc.num_parameters
        if params.size != n_uc + ae.ur.num_parameters:
            raise SerializationError(
                f"parameter count {params.size} does not match architecture"
            )
        ae.uc.set_flat_params(params[:n_uc])
        ae.ur.set_flat_params(params[n_uc:])
    return ae, meta
