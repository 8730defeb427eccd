"""Tests for repro.data.binary_images (the Fig. 4a substitute)."""

import numpy as np
import pytest

from repro.data.binary_images import (
    block_basis,
    paper_dataset,
    rank_limited_binary_dataset,
)
from repro.exceptions import DatasetError


class TestBlockBasis:
    def test_disjoint_supports(self):
        bases = block_basis(4, 2)
        overlap = np.sum(bases, axis=0)
        assert np.all(overlap == 1.0)  # every pixel in exactly one block

    def test_count_and_shape(self):
        bases = block_basis(8, 4)
        assert bases.shape == (16, 8, 8)

    def test_invalid_divisibility(self):
        with pytest.raises(DatasetError):
            block_basis(4, 3)

    def test_invalid_size(self):
        with pytest.raises(DatasetError):
            block_basis(1, 1)


class TestPaperDataset:
    def test_paper_parameters(self):
        ds = paper_dataset()
        assert ds.num_samples == 25
        assert ds.image_size == 4
        assert ds.dim == 16

    def test_strictly_binary(self):
        assert paper_dataset().is_binary

    def test_rank_is_exactly_four(self):
        # The property that makes d=4 compression near-lossless (Fig. 4c).
        assert paper_dataset().rank() == 4

    def test_no_all_zero_images(self):
        ds = paper_dataset()
        assert np.all(ds.matrix().sum(axis=1) > 0)

    def test_deterministic(self):
        a = paper_dataset(seed=2024)
        b = paper_dataset(seed=2024)
        assert np.array_equal(a.images, b.images)

    def test_first_fifteen_enumerate_unions(self):
        ds = paper_dataset()
        first15 = ds.matrix()[:15]
        assert len({tuple(row) for row in first15.tolist()}) == 15

    def test_custom_sample_count(self):
        assert paper_dataset(num_samples=10).num_samples == 10

    def test_invalid_rank(self):
        with pytest.raises(DatasetError, match="perfect square"):
            paper_dataset(rank=5)

    def test_invalid_num_samples(self):
        with pytest.raises(DatasetError):
            paper_dataset(num_samples=0)


class TestRankLimited:
    def test_rank_bound_respected(self):
        for r in (2, 4, 8):
            ds = rank_limited_binary_dataset(40, rank=r, seed=0)
            assert ds.rank() <= r

    def test_flips_break_rank(self):
        clean = rank_limited_binary_dataset(40, rank=4, seed=5)
        noisy = rank_limited_binary_dataset(
            40, rank=4, flip_fraction=0.1, seed=5
        )
        assert noisy.rank() > clean.rank()
        assert noisy.is_binary

    def test_no_zero_images_after_flips(self):
        ds = rank_limited_binary_dataset(
            100, rank=2, flip_fraction=0.4, seed=2
        )
        assert np.all(ds.matrix().sum(axis=1) > 0)

    def test_invalid_rank(self):
        with pytest.raises(DatasetError):
            rank_limited_binary_dataset(5, rank=0)
        with pytest.raises(DatasetError):
            rank_limited_binary_dataset(5, rank=17, image_size=4)

    def test_invalid_flip_fraction(self):
        with pytest.raises(DatasetError):
            rank_limited_binary_dataset(5, rank=2, flip_fraction=1.0)
