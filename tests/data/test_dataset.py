"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.dataset import ImageDataset
from repro.encoding.images import unflatten_images
from repro.exceptions import DatasetError


@pytest.fixture
def ds(rng):
    return ImageDataset(rng.random((10, 4, 4)), name="test")


class TestConstruction:
    def test_properties(self, ds):
        assert ds.num_samples == 10
        assert ds.image_size == 4
        assert ds.dim == 16
        assert len(ds) == 10

    def test_non_square_rejected(self, rng):
        with pytest.raises(DatasetError, match="square"):
            ImageDataset(rng.random((3, 4, 5)))

    def test_2d_rejected(self, rng):
        with pytest.raises(DatasetError):
            ImageDataset(rng.random((4, 4)))

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            ImageDataset(np.zeros((0, 4, 4)))

    def test_out_of_range_pixels_rejected(self):
        with pytest.raises(DatasetError, match="\\[0, 1\\]"):
            ImageDataset(np.full((1, 2, 2), 1.5))

    def test_nan_rejected(self):
        imgs = np.zeros((1, 2, 2))
        imgs[0, 0, 0] = np.nan
        with pytest.raises(DatasetError, match="NaN"):
            ImageDataset(imgs)

    def test_is_binary(self):
        assert ImageDataset(np.ones((2, 2, 2))).is_binary
        assert not ImageDataset(np.full((2, 2, 2), 0.5)).is_binary


class TestMatrixAndImages:
    def test_matrix_shape(self, ds):
        assert ds.matrix().shape == (10, 16)

    def test_matrix_roundtrip(self, ds):
        clone = ImageDataset(unflatten_images(ds.matrix()))
        assert np.array_equal(clone.images, ds.images)

    def test_image_copy(self, ds):
        img = ds.image(0)
        img[0, 0] = 0.123456
        assert ds.images[0, 0, 0] != 0.123456

    def test_image_out_of_range(self, ds):
        with pytest.raises(DatasetError):
            ds.image(10)


class TestStatistics:
    def test_rank_of_rank1_set(self):
        imgs = np.tile(np.eye(2)[None], (5, 1, 1)) * 1.0
        assert ImageDataset(imgs).rank() == 1

    def test_effective_rank_bounds(self, ds):
        r = ds.effective_rank()
        assert 1 <= r <= 16

    def test_effective_rank_full_energy(self, ds):
        assert ds.effective_rank(energy=1.0) <= min(10, 16)

    def test_effective_rank_invalid_energy(self, ds):
        with pytest.raises(DatasetError):
            ds.effective_rank(energy=0.0)

    def test_singular_values_descending(self, ds):
        sv = ds.singular_values()
        assert np.all(np.diff(sv) <= 1e-12)


class TestSplitBatchSubset:
    def test_split_sizes(self, ds):
        train, test = ds.split(train_fraction=0.7, rng=np.random.default_rng(0))
        assert train.num_samples == 7
        assert test.num_samples == 3

    def test_split_partitions_all_samples(self, ds):
        train, test = ds.split(rng=np.random.default_rng(0))
        combined = np.concatenate([train.images, test.images])
        assert sorted(map(tuple, combined.reshape(10, -1).tolist())) == sorted(
            map(tuple, ds.images.reshape(10, -1).tolist())
        )

    def test_split_deterministic_with_seed(self, ds):
        a, _ = ds.split(rng=np.random.default_rng(1))
        b, _ = ds.split(rng=np.random.default_rng(1))
        assert np.allclose(a.images, b.images)

    def test_split_invalid_fraction(self, ds):
        with pytest.raises(DatasetError):
            ds.split(train_fraction=1.0)

    def test_split_needs_two(self):
        single = ImageDataset(np.ones((1, 2, 2)))
        with pytest.raises(DatasetError):
            single.split()

    def test_batches_cover_everything(self, ds):
        chunks = list(ds.batches(3))
        assert [c.shape[0] for c in chunks] == [3, 3, 3, 1]
        assert np.allclose(np.vstack(chunks), ds.matrix())

    def test_batches_invalid_size(self, ds):
        with pytest.raises(DatasetError):
            list(ds.batches(0))

    def test_subset(self, ds):
        sub = ds.subset([0, 2, 4])
        assert sub.num_samples == 3
        assert np.allclose(sub.images[1], ds.images[2])

    def test_subset_out_of_range(self, ds):
        with pytest.raises(DatasetError):
            ds.subset([99])

    def test_subset_empty(self, ds):
        with pytest.raises(DatasetError):
            ds.subset([])
