"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.utils.validation import (
    as_float_matrix,
    check_power_of_two,
    num_qubits_for,
)


class TestAsFloatMatrix:
    def test_list_coerced(self):
        out = as_float_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_inf_rejected(self):
        with pytest.raises(DimensionError):
            as_float_matrix([[np.inf]])

    def test_contiguous_output(self):
        out = as_float_matrix(np.arange(20.0).reshape(4, 5)[:, ::2])
        assert out.flags["C_CONTIGUOUS"]

    def test_1d_promoted_to_row(self):
        assert as_float_matrix([1.0, 2.0]).shape == (1, 2)

    def test_3d_rejected(self):
        with pytest.raises(DimensionError, match="2-D"):
            as_float_matrix(np.zeros((2, 2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(DimensionError):
            as_float_matrix([[np.nan, 1.0]])

    def test_name_in_message(self):
        with pytest.raises(DimensionError, match="custom"):
            as_float_matrix(np.zeros((0, 3)), name="custom")


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 1024])
    def test_accepts_powers(self, n):
        assert check_power_of_two(n) == n

    @pytest.mark.parametrize("n", [0, -4, 3, 6, 12, 100])
    def test_rejects_non_powers(self, n):
        with pytest.raises(DimensionError):
            check_power_of_two(n)

    def test_rejects_float(self):
        with pytest.raises(DimensionError, match="int"):
            check_power_of_two(4.0)


class TestNumQubits:
    @pytest.mark.parametrize(
        "dim,expected", [(1, 0), (2, 1), (4, 2), (16, 4), (17, 5), (1000, 10)]
    )
    def test_ceil_log2(self, dim, expected):
        assert num_qubits_for(dim) == expected

    def test_paper_example(self):
        # "if the data is in 16 dimensions, four qubits are needed"
        assert num_qubits_for(16) == 4

    def test_invalid_raises(self):
        with pytest.raises(DimensionError):
            num_qubits_for(0)
