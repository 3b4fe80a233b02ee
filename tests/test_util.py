"""Unit tests for util: rng and validation."""

import numpy as np
import pytest

from repro.util import (
    as_generator,
    check_nonnegative,
    check_positive,
    check_probability,
    check_square,
    check_vector,
    spawn_children,
    spawn_named,
)


class TestRng:
    def test_as_generator_from_seed(self):
        g1 = as_generator(42)
        g2 = as_generator(42)
        assert g1.random() == g2.random()

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_children_independent(self):
        parent = np.random.default_rng(7)
        kids = spawn_children(parent, 3)
        vals = [k.random() for k in kids]
        assert len(set(vals)) == 3

    def test_spawn_children_negative(self):
        with pytest.raises(ValueError):
            spawn_children(np.random.default_rng(0), -1)

    def test_spawn_named_deterministic(self):
        a = spawn_named(1, "x", 0.5, 3)
        b = spawn_named(1, "x", 0.5, 3)
        assert a.random() == b.random()

    def test_spawn_named_label_sensitivity(self):
        a = spawn_named(1, "x", 0.5, 3).random()
        b = spawn_named(1, "y", 0.5, 3).random()
        c = spawn_named(2, "x", 0.5, 3).random()
        assert len({a, b, c}) == 3


class TestValidate:
    def test_check_positive(self):
        assert check_positive("v", 1.5) == 1.5
        with pytest.raises(ValueError, match="v must be positive"):
            check_positive("v", 0.0)

    def test_check_nonnegative(self):
        assert check_nonnegative("v", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_nonnegative("v", -0.1)

    def test_check_probability(self):
        assert check_probability("q", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("q", 1.01)
        with pytest.raises(ValueError):
            check_probability("q", -0.01)

    def test_check_square(self):
        assert check_square("a", (3, 3)) == 3
        with pytest.raises(ValueError, match="square"):
            check_square("a", (3, 4))

    def test_check_vector(self):
        v = check_vector("x", np.ones(4), 4)
        assert v.shape == (4,)
        with pytest.raises(ValueError):
            check_vector("x", np.ones((2, 2)))
        with pytest.raises(ValueError):
            check_vector("x", np.ones(3), 4)
