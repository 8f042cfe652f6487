"""Tests for shared utilities."""

import numpy as np
import pytest

from repro.util.rng import (
    LazyRngStreams,
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


def _spawned_root():
    root = np.random.SeedSequence(21)
    root.spawn(3)
    return root


#: One factory per ``SeedLike`` form (fresh per call: a Generator seed is
#: consumed, and a SeedSequence root is shared by reference).
SEED_FORMS = {
    "none": lambda: None,
    "int-0": lambda: 0,
    "int-7": lambda: 7,
    "int-2**63+5": lambda: 2**63 + 5,
    "int-2**64": lambda: 2**64,
    "int-2**100+3": lambda: 2**100 + 3,
    "seedsequence": lambda: np.random.SeedSequence(99),
    "spawn-key": lambda: np.random.SeedSequence(5, spawn_key=(3,)),
    "spawned-root": _spawned_root,
    "list-entropy": lambda: np.random.SeedSequence([1, 2**40, 3]),
    "pool-size-8": lambda: np.random.SeedSequence(4, pool_size=8),
    "generator": lambda: np.random.default_rng(9),
}


class TestLazyRngStreamsRandom:
    """``LazyRngStreams.random`` against each stream's own ``Generator``
    (``self[i]``, which numpy seeds and advances itself)."""

    N = 10  # streams: 2N + 4, as the LDD asks for

    @pytest.mark.parametrize("form", sorted(SEED_FORMS))
    def test_matches_generators_for_draws_0_to_5(self, form):
        streams = LazyRngStreams(SEED_FORMS[form](), 2 * self.N + 4)
        idx = np.array([2 * self.N + 3, 0, 7, 2 * self.N, 3, 11])
        for _draw in range(6):
            expected = [streams[int(i)].random() for i in idx]
            got = streams.random(idx)
            assert got.dtype == np.float64
            assert got.tolist() == expected
            idx = idx[1:]  # streams reach different draw counts

    @pytest.mark.parametrize(
        "form", ["int-0", "int-2**64", "spawned-root", "generator"]
    )
    def test_matches_eager_spawn(self, form):
        """Stream ``i`` is ``spawn_rngs(seed, count)[i]``, a root's
        ``n_children_spawned`` offset included."""
        count = 2 * self.N + 4
        eager = spawn_rngs(SEED_FORMS[form](), count)
        streams = LazyRngStreams(SEED_FORMS[form](), count)
        for _draw in range(3):
            expected = [g.random() for g in eager]
            assert streams.random(range(count)).tolist() == expected

    def test_generator_after_vectorized_draws(self):
        streams = LazyRngStreams(13, 8)
        reference = spawn_rngs(13, 8)[5]
        draws = [reference.random() for _ in range(5)]
        streams.random([5])
        streams.random([5, 2])
        generator = streams[5]
        assert [generator.random() for _ in range(3)] == draws[2:]
        # A Generator handed out by ``self[i]`` does not move the stream.
        assert streams.random([5])[0] == draws[2]

    def test_empty_indices(self):
        streams = LazyRngStreams(3, 4)
        out = streams.random([])
        assert out.shape == (0,) and out.dtype == np.float64
        assert streams.random([0])[0] == spawn_rngs(3, 4)[0].random()

    def test_bounds_and_duplicates(self):
        streams = LazyRngStreams(3, 4)
        with pytest.raises(IndexError):
            streams.random([4])
        with pytest.raises(IndexError):
            streams.random([0, -1])
        with pytest.raises(IndexError):
            streams[4]
        with pytest.raises(ValueError):
            streams.random([1, 1])
        assert len(LazyRngStreams(3, 0).random([])) == 0


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
