"""Committed checkpoints load to bitwise the outputs they were saved with,
and a checkpoint whose embedded spec is malformed, or disagrees with the
archive it rides in, is refused.

``data/codec_real.npz`` and ``data/codec_phase.npz`` are small
:meth:`Codec.save` archives (4 modes, d = 2, 2/2 layers; the second with
``allow_phase``), fitted for 3 iterations (seed 11) on the 6 rows of
``data/codec_forward_expected.npz["X"]``.  That file also holds every
array of ``Codec.forward(X)`` as computed when the archives were written,
under ``<name>_<field>``.  The archives store the flat parameter vector,
so this pins the flat layout (thetas, then alphas, layer-major) across
changes to how a network stores its parameters.

``data/codec_looped.npz`` is the ``codec_real`` fit again, written while
the spec still had a ``grad_engine`` field and with
``grad_engine="looped"``; ``data/codec_looped_expected.npz`` holds the same
``X`` and its forward arrays under ``looped_<field>``.  All three
archives embed a spec with the since-removed ``grad_engine`` key.

``data/codec_derivative.npz`` is the ``codec_real`` fit again, written
while ``"derivative"`` was still a gradient method and with
``gradient_method="derivative"`` (its spec has no ``grad_engine`` key);
``data/codec_derivative_expected.npz`` holds the same ``X`` and its
forward arrays under ``derivative_<field>``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Codec, CodecSpec
from repro.exceptions import NetworkConfigError, SerializationError

DATA = Path(__file__).parent / "data"
FIELDS = (
    "compressed",
    "compact_codes",
    "output_amplitudes",
    "x_hat",
    "retained_probability",
)


@pytest.fixture(scope="module")
def expected():
    arrays = {}
    for name in (
        "codec_forward_expected",
        "codec_looped_expected",
        "codec_derivative_expected",
    ):
        with np.load(DATA / f"{name}.npz") as archive:
            arrays.update(archive)
    return arrays


@pytest.mark.parametrize("name", ["real", "phase", "looped", "derivative"])
def test_loaded_checkpoint_reproduces_forward_bitwise(expected, name):
    codec = Codec.load(DATA / f"codec_{name}.npz")
    assert codec.autoencoder.uc.allow_phase == (name == "phase")
    out = codec.forward(expected["X"])
    for field in FIELDS:
        want = expected[f"{name}_{field}"]
        got = getattr(out, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def test_phase_checkpoint_carries_phases():
    codec = Codec.load(DATA / "codec_phase.npz")
    for net in (codec.autoencoder.uc, codec.autoencoder.ur):
        assert all(np.any(layer.alphas) for layer in net.layers)


@pytest.mark.parametrize("name", ["real", "looped"])
def test_legacy_grad_engine_key_is_dropped(name):
    with np.load(DATA / f"codec_{name}.npz") as archive:
        meta = json.loads(archive["meta"].tobytes())
    assert meta["extra"]["spec"]["grad_engine"] in ("batched", "looped")
    spec = Codec.load(DATA / f"codec_{name}.npz").spec
    assert "grad_engine" not in spec.to_dict()
    assert (spec.dim, spec.seed, spec.iterations) == (4, 11, 3)


def test_legacy_derivative_method_loads_as_adjoint():
    with np.load(DATA / "codec_derivative.npz") as archive:
        meta = json.loads(archive["meta"].tobytes())
    assert meta["extra"]["spec"]["gradient_method"] == "derivative"
    spec = Codec.load(DATA / "codec_derivative.npz").spec
    assert spec.gradient_method == "adjoint"
    assert (spec.dim, spec.seed, spec.iterations) == (4, 11, 3)
    # Only a stored spec is mapped; a new one cannot name the method.
    with pytest.raises(NetworkConfigError, match="unknown gradient method"):
        CodecSpec(gradient_method="derivative")


def _write_with_meta(path, edit):
    """``codec_real.npz`` with its JSON header changed by ``edit``."""
    with np.load(DATA / "codec_real.npz") as archive:
        meta = json.loads(archive["meta"].tobytes())
        params = archive["params"]
    edit(meta)
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        params=params,
    )
    return path


def _set_spec(**changes):
    return lambda meta: meta["extra"]["spec"].update(changes)


def _set_extra(value):
    return lambda meta: meta.update(extra=value)


@pytest.mark.parametrize(
    "edit",
    [
        _set_extra({"spec": []}),
        _set_extra({"spec": "pca"}),
        _set_extra([1]),
        _set_extra("spec"),
        _set_spec(dim="4"),
        _set_spec(projection=5),
        _set_spec(learning_rate=None),
        _set_spec(grad_engine="vectorised"),
        _set_spec(optimizer="sgd"),
        _set_spec(gradient_method="spsa"),
        _set_spec(quantisation=8),
        _set_spec(dim=8),
        _set_spec(compressed_dim=1),
        _set_spec(compression_layers=3),
        _set_spec(reconstruction_layers=1),
        _set_spec(allow_phase=True),
    ],
    ids=[
        "spec-list",
        "spec-string",
        "extra-list",
        "extra-string",
        "dim-string",
        "projection-int",
        "learning-rate-null",
        "unknown-engine",
        "unknown-optimizer",
        "unknown-gradient-method",
        "unknown-field",
        "dim-mismatch",
        "compressed-dim-mismatch",
        "compression-layers-mismatch",
        "reconstruction-layers-mismatch",
        "allow-phase-mismatch",
    ],
)
def test_malformed_embedded_spec_raises(tmp_path, edit):
    path = _write_with_meta(tmp_path / "bad.npz", edit)
    with pytest.raises(SerializationError):
        Codec.load(path)


@pytest.mark.parametrize(
    "field, value", [("projection", [0, 1]), ("renormalize", True)]
)
def test_embedded_spec_disagreeing_with_archive_raises(tmp_path, field, value):
    # codec_real keeps modes [2, 3] without renormalising.
    path = _write_with_meta(tmp_path / "bad.npz", _set_spec(**{field: value}))
    with pytest.raises(SerializationError, match=field):
        Codec.load(path)


@pytest.mark.parametrize("projection", [[2, 3], [3, 2]])
def test_embedded_projection_naming_the_kept_modes_loads(tmp_path, projection):
    path = _write_with_meta(
        tmp_path / "ok.npz", _set_spec(projection=projection)
    )
    codec = Codec.load(path)
    assert codec.spec.build_projection().keep.tolist() == [2, 3]
    assert codec.autoencoder.projection.keep.tolist() == [2, 3]
