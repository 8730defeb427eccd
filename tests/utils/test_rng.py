"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, ensure_rng


class TestEnsureRng:
    def test_none_uses_default_seed(self):
        a = ensure_rng(None).random(5)
        b = np.random.default_rng(DEFAULT_SEED).random(5)
        assert np.array_equal(a, b)

    def test_int_seed_is_deterministic(self):
        assert np.array_equal(ensure_rng(7).random(3), ensure_rng(7).random(3))

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            ensure_rng(1).random(8), ensure_rng(2).random(8)
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        gen = ensure_rng(np.int64(5))
        assert isinstance(gen, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError, match="seed must be"):
            ensure_rng("not-a-seed")

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(1.5)
