"""Seeded randomness helpers.

Every randomized algorithm in this library threads an explicit
:class:`numpy.random.Generator` so that experiments are reproducible and
so that the two LOCAL execution engines (message passing vs fast gather)
can be fed identical randomness and property-tested for equivalence.

In the randomized LOCAL model each vertex is anonymous and owns an
infinite local random string.  We model that with :func:`spawn_rngs`,
which derives one independent child generator per vertex from a parent
seed using :class:`numpy.random.SeedSequence` spawning, so per-vertex
randomness does not depend on iteration order.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

RngStream = np.random.Generator

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> RngStream:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh nondeterministic generator), an ``int`` seed,
    a :class:`~numpy.random.SeedSequence`, or an existing generator
    (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[RngStream]:
    """Derive ``count`` independent generators from one seed.

    Used to give each simulated vertex its own private random string, as
    in the randomized LOCAL model.  The derivation is stable: the same
    seed always yields the same per-vertex streams regardless of how many
    are consumed or in which order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = _spawn_root(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


def _spawn_root(seed: SeedLike) -> np.random.SeedSequence:
    """The root sequence :func:`spawn_rngs` derives children from."""
    if isinstance(seed, np.random.Generator):
        # Use the generator itself to produce a seed sequence: this keeps
        # the caller's generator as the single source of entropy.
        return np.random.SeedSequence(int(seed.integers(0, 2**63)))
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


class LazyRngStreams:
    """Per-index RNG streams derived on first access.

    Stream ``i`` is bit-identical to ``spawn_rngs(seed, count)[i]``:
    children are addressed through ``spawn_key`` exactly as
    :meth:`numpy.random.SeedSequence.spawn` does, so a stream depends
    only on ``(seed, i)`` — never on which other streams were
    materialized first.  This replaces eager spawning where an
    algorithm indexes only a sparse subset of a huge stream range (the
    ``chang_li_ldd`` fix: ``spawn_rngs(seed, 2n + 4)`` cost ~3 s at
    n = 10^5 while later phases touch a shrinking residual).  Unlike
    :func:`spawn_rngs` it does not advance the root's spawn counter;
    callers that interleave it with ``spawn`` on the same root should
    keep doing one or the other.
    """

    def __init__(self, seed: SeedLike, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._root = _spawn_root(seed)
        self._base = self._root.n_children_spawned
        self._count = count
        self._cache: dict = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> RngStream:
        if not 0 <= index < self._count:
            raise IndexError(
                f"stream index {index} outside [0, {self._count})"
            )
        stream = self._cache.get(index)
        if stream is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=self._root.spawn_key + (self._base + index,),
                pool_size=self._root.pool_size,
            )
            stream = np.random.default_rng(child)
            self._cache[index] = stream
        return stream


def stable_seed_from(values: Iterable[int], salt: int = 0) -> int:
    """Deterministically hash a tuple of integers into a 63-bit seed.

    Used where an algorithm needs fresh-but-reproducible randomness tied
    to structural values (e.g. one stream per (trial, vertex) pair)
    without carrying generator objects around.
    """
    acc = np.uint64(1469598103934665603) ^ np.uint64(salt & (2**63 - 1))
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for v in values:
            acc = (acc ^ np.uint64(v & (2**63 - 1))) * prime
    return int(acc & np.uint64(2**63 - 1))
