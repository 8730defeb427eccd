"""Committed checkpoints load to bitwise the outputs they were saved with.

``data/codec_real.npz`` and ``data/codec_phase.npz`` are small
:meth:`Codec.save` archives (4 modes, d = 2, 2/2 layers; the second with
``allow_phase``), fitted for 3 iterations (seed 11) on the 6 rows of
``data/codec_forward_expected.npz["X"]``.  That file also holds every
array of ``Codec.forward(X)`` as computed when the archives were written,
under ``<name>_<field>``.  The archives store the flat parameter vector,
so this pins the flat layout (thetas, then alphas, layer-major) across
changes to how a network stores its parameters.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import Codec

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
    with np.load(DATA / "codec_forward_expected.npz") as archive:
        return dict(archive)


@pytest.mark.parametrize("name", ["real", "phase"])
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
