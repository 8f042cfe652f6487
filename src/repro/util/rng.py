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

Where an algorithm flips one coin per vertex per round over a large
range of streams (the Theorem 1.1 center sampling draws from
``2n + 4`` of them), :class:`LazyRngStreams` gives the same streams
without building their generators: :meth:`LazyRngStreams.random`
reproduces numpy's derivation in uint32/uint64 array code — the
``SeedSequence`` spawn hash, ``generate_state``, PCG64 seeding and
steps, and ``Generator.random``'s conversion — so a batch of draws is
bit-identical to calling ``.random()`` on each stream's own
``Generator``, at a fraction of the cost.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

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


# numpy's stream derivation in array form, for
# :meth:`LazyRngStreams.random`.  ``SeedSequence`` hashes its assembled
# entropy words (the run entropy, zero-padded to the pool size, then
# the spawn key) into a pool of uint32 words; a child's index is the
# last word and always lands in the tail loop that mixes each extra
# word into every pool word, so everything before it is one scalar
# pool shared by all children.  ``PCG64`` seeds from
# ``generate_state(4, uint64)`` and steps a 128-bit LCG, kept here as
# uint64 limbs; ``Generator.random`` is the XSL-RR output ``>> 11``
# times ``2**-53``.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO_1 = np.uint64((_PCG_MULT >> 32) & _MASK32)


def _entropy_words(value) -> List[int]:
    """``value`` as numpy's little-endian uint32 entropy words."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("entropy must be non-negative")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return [int(w) for w in value]
    if isinstance(value, (str, bytes, float, np.inexact)):
        raise TypeError(f"unsupported entropy {value!r}")
    return [w for item in value for w in _entropy_words(item)]


def _hashmix(
    value: np.ndarray, hash_const: int, mult: int = _MULT_A
) -> Tuple[np.ndarray, int]:
    """numpy's ``hashmix`` on uint32 words; also returns the advanced
    hash constant.  With ``_MULT_B`` it is one ``generate_state`` word."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * mult) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(_XSHIFT)), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def _pool_before_last_word(
    root: np.random.SeedSequence,
) -> Tuple[List[np.ndarray], int]:
    """``mix_entropy``'s pool (one-element uint32 arrays) and hash
    constant just before a child's last entropy word, its spawn index,
    is mixed in."""
    run = _entropy_words(root.entropy)
    size = root.pool_size
    words = [
        np.array([w], dtype=np.uint32)
        for w in run + [0] * (size - len(run)) + _entropy_words(root.spawn_key)
    ]
    hash_const = _INIT_A
    pool = []
    for w in words[:size]:
        hashed, hash_const = _hashmix(w, hash_const)
        pool.append(hashed)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for w in words[size:]:
        for dst in range(size):
            hashed, hash_const = _hashmix(w, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, hash_const


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One 128-bit LCG step ``state * mult + inc`` on uint64 limbs."""
    # High half of the 64x64 product lo * mult_lo, from 32-bit pieces.
    low32, shift32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = lo & low32, lo >> shift32
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> shift32) + (p01 & low32) + (p10 & low32)
    carry = p11 + (p01 >> shift32) + (p10 >> shift32) + (mid >> shift32)
    new_lo = lo * _MULT_LO
    new_hi = carry + hi * _MULT_LO + lo * _MULT_HI
    out_lo = new_lo + inc_lo
    out_hi = new_hi + inc_hi + (out_lo < new_lo)
    return out_hi, out_lo


class LazyRngStreams:
    """Per-index RNG streams derived on demand, drawn in batches.

    Stream ``i`` is bit-identical to ``spawn_rngs(seed, count)[i]``:
    children are addressed through ``spawn_key`` exactly as
    :meth:`numpy.random.SeedSequence.spawn` does, so a stream depends
    only on ``(seed, i)`` — never on which other streams were touched
    first.  Unlike :func:`spawn_rngs` it does not advance the root's
    spawn counter; callers that interleave it with ``spawn`` on the
    same root should keep doing one or the other.

    :meth:`random` is the sampling primitive: it returns the next
    uniform of many streams at once, computing numpy's derivation in
    array form instead of building one ``Generator`` per stream.
    ``self[i]`` builds stream ``i``'s own ``Generator``, advanced past
    the draws :meth:`random` has taken from it; it is not cached, and
    its draws do not move the stream's position for :meth:`random`.
    """

    def __init__(self, seed: SeedLike, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._root = _spawn_root(seed)
        self._base = self._root.n_children_spawned
        if self._base + count > _MASK32 + 1:
            raise ValueError("stream keys must stay below 2**32")
        self._count = count
        self._pool, self._hash_const = _pool_before_last_word(self._root)
        # PCG64 state and increment as uint64 limbs.  ``inc_lo`` is odd
        # once a stream is seeded, so zero marks an unseeded stream.
        self._state_hi = np.zeros(count, dtype=np.uint64)
        self._state_lo = np.zeros(count, dtype=np.uint64)
        self._inc_hi = np.zeros(count, dtype=np.uint64)
        self._inc_lo = np.zeros(count, dtype=np.uint64)
        self._drawn = np.zeros(count, dtype=np.int64)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> RngStream:
        if not 0 <= index < self._count:
            raise IndexError(
                f"stream index {index} outside [0, {self._count})"
            )
        child = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=self._root.spawn_key + (self._base + index,),
            pool_size=self._root.pool_size,
        )
        return np.random.Generator(
            np.random.PCG64(child).advance(int(self._drawn[index]))
        )

    def random(self, indices: Iterable[int]) -> np.ndarray:
        """The next uniform in ``[0, 1)`` of each listed stream.

        ``out[j]`` equals ``self[indices[j]].random()`` taken at the
        stream's current position, bit for bit, and each listed stream
        moves one draw on.  Indices must be distinct.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        if idx.min() < 0 or idx.max() >= self._count:
            raise IndexError(f"stream indices outside [0, {self._count})")
        if np.unique(idx).size != idx.size:
            raise ValueError("stream indices must be distinct")
        fresh = idx[self._inc_lo[idx] == 0]
        if fresh.size:
            self._seed(fresh)
        hi, lo = _pcg_step(
            self._state_hi[idx],
            self._state_lo[idx],
            self._inc_hi[idx],
            self._inc_lo[idx],
        )
        self._state_hi[idx] = hi
        self._state_lo[idx] = lo
        self._drawn[idx] += 1
        # XSL-RR output, then numpy's ``next_double``.
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _seed(self, idx: np.ndarray) -> None:
        """PCG64 state of child streams ``idx``: the tail of
        ``mix_entropy`` for their last entropy word, ``generate_state(4,
        uint64)``, then ``pcg64_set_seed``."""
        word = (idx + self._base).astype(np.uint32)
        hash_const = self._hash_const
        pool = []
        for mixed in self._pool:
            hashed, hash_const = _hashmix(word, hash_const)
            pool.append(_mix(mixed, hashed))
        hash_const = _INIT_B
        words = []
        for k in range(8):
            data, hash_const = _hashmix(pool[k % len(pool)], hash_const, _MULT_B)
            words.append(data.astype(np.uint64))
        seed_hi, seed_lo, seq_hi, seq_lo = (
            words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)
        )
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        # state = 0; step; state += seed; step.
        lo = inc_lo + seed_lo
        hi = inc_hi + seed_hi + (lo < inc_lo)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        self._state_hi[idx] = hi
        self._state_lo[idx] = lo
        self._inc_hi[idx] = inc_hi
        self._inc_lo[idx] = inc_lo


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
