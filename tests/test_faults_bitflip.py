"""Unit tests for bit-flip primitives."""

import numpy as np
import pytest

from repro.faults import flip_bit_float64, flip_bit_int64, flip_bits_array


class TestScalarFlips:
    def test_float_flip_is_involution(self):
        v = 3.14159
        for bit in (0, 20, 52, 62, 63):
            assert flip_bit_float64(flip_bit_float64(v, bit), bit) == v

    def test_float_sign_bit(self):
        assert flip_bit_float64(2.0, 63) == -2.0

    def test_float_mantissa_lsb_is_tiny(self):
        v = 1.0
        flipped = flip_bit_float64(v, 0)
        assert flipped != v
        assert abs(flipped - v) < 1e-15

    def test_float_exponent_flip_is_huge(self):
        v = 1.0
        flipped = flip_bit_float64(v, 62)
        assert abs(flipped) > 1e100 or abs(flipped) < 1e-100

    def test_int_flip_is_involution(self):
        for bit in (0, 31, 62, 63):
            assert flip_bit_int64(flip_bit_int64(1234, bit), bit) == 1234

    def test_int_sign_bit_makes_negative(self):
        assert flip_bit_int64(5, 63) < 0

    def test_bit_range_checked(self):
        with pytest.raises(ValueError):
            flip_bit_float64(1.0, 64)
        with pytest.raises(ValueError):
            flip_bit_int64(1, -1)


class TestArrayFlips:
    def test_float_array_flip(self):
        arr = np.array([1.0, 2.0, 3.0])
        flip_bits_array(arr, np.array([1]), np.array([63]))
        np.testing.assert_array_equal(arr, [1.0, -2.0, 3.0])

    def test_int_array_flip(self):
        arr = np.array([10, 20, 30], dtype=np.int64)
        flip_bits_array(arr, np.array([2]), np.array([0]))
        assert arr[2] == 31

    def test_multiple_flips(self):
        arr = np.ones(5)
        flip_bits_array(arr, np.array([0, 4]), np.array([63, 63]))
        np.testing.assert_array_equal(arr, [-1.0, 1.0, 1.0, 1.0, -1.0])

    def test_dtype_rejected(self):
        with pytest.raises(TypeError, match="dtype"):
            flip_bits_array(np.ones(3, dtype=np.float32), np.array([0]), np.array([1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            flip_bits_array(np.ones(3), np.array([0, 1]), np.array([1]))

