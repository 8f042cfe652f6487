"""Tests for shared utilities."""

import numpy as np
import pytest

from repro.util.rng import (
    ensure_rng,
    spawn_rngs,
    stable_seed_from,
)
from repro.util.tables import Table
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_probability,
    check_vertex,
    require,
)


class TestRng:
    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_from_int(self):
        a = ensure_rng(5).random()
        b = ensure_rng(5).random()
        assert a == b

    def test_spawn_rngs_stable(self):
        xs = [r.random() for r in spawn_rngs(7, 4)]
        ys = [r.random() for r in spawn_rngs(7, 4)]
        assert xs == ys
        assert len(set(xs)) == 4

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_stable_seed(self):
        assert stable_seed_from([1, 2, 3]) == stable_seed_from([1, 2, 3])
        assert stable_seed_from([1, 2, 3]) != stable_seed_from([3, 2, 1])


class TestTable:
    def test_render(self):
        t = Table(["n", "ratio"], title="demo")
        t.add_row([16, 0.9375])
        out = t.render()
        assert "demo" in out
        assert "0.9375" in out
        assert "n" in out.splitlines()[1]

    def test_row_width_checked(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row([1234567.0])
        t.add_row([0.00001])
        t.add_row([0])
        text = t.render()
        assert "e+06" in text or "1.235e+06" in text
        assert "e-05" in text


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_check_positive(self):
        assert check_positive("x", 2.0) == 2.0
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_check_fraction(self):
        assert check_fraction("eps", 0.5) == 0.5
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                check_fraction("eps", bad)

    def test_check_vertex(self):
        assert check_vertex("v", 3, 5) == 3
        with pytest.raises(ValueError):
            check_vertex("v", 5, 5)
