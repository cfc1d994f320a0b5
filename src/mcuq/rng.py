"""Deterministic random-stream derivation.

Every source of randomness in this package is a named substream of one
root seed.  A substream is identified by the root seed plus a tag path
(component name and indices), so independent components and independent
Monte Carlo passes never share or race on a generator, and results are
reproducible regardless of execution order.

``substream_words`` derives a family of sibling streams in one vectorized
pass, and ``words_stream`` builds one of them, bit for bit ``substream``'s.
"""

from __future__ import annotations

import functools
import hashlib
from itertools import product

import numpy as np


def _words(n: int) -> tuple[int, ...]:
    """``n`` modulo 2**64 as ``SeedSequence`` splits an int: little-endian
    32-bit words, a second one only when the high word is nonzero."""
    n = int(n) % 2 ** 64
    return (n,) if n < 2 ** 32 else (n % 2 ** 32, n >> 32)


@functools.cache
def _str_words(tag: str) -> tuple[int, ...]:
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return _words(int.from_bytes(digest, "big"))


def _entropy(seed: int, tags) -> list[int]:
    return [*_words(seed), *(w for t in tags for w in (
        _words(t) if isinstance(t, (int, np.integer))
        else _str_words(str(t))))]


def substream(seed: int, *tags: int | str) -> np.random.Generator:
    """Return a fresh Generator for the (seed, *tags) stream.

    String tags are hashed with a fixed (unsalted) hash so the mapping is
    stable across processes and platforms.  ``SeedSequence`` gets the list
    ``[seed mod 2**64, *tag words]`` already split into 32-bit words.
    """
    return np.random.default_rng(np.random.SeedSequence(
        np.array(_entropy(seed, tags), dtype=np.uint32)))


def substream_words(seed: int, *tags: int | str, grid=()) -> np.ndarray:
    """``PCG64``'s seed words, [*axis lengths, 4] uint64, for every
    ``substream(seed, *tags, *index)``, index over the product of ``grid``'s
    axes of ints in [0, 2**32): ``SeedSequence`` as numpy's
    ``random/bit_generator.pyx`` has it, on Python ints for the words the
    streams share and on ``uint32`` arrays (``np.ix_``) for the rest."""
    for i in (i for axis in grid for i in axis if not 0 <= i < 2 ** 32):
        raise ValueError(f"grid index {i} is not one uint32 word")
    entropy = _entropy(seed, tags) + [*np.ix_(*(
        np.asarray(axis, dtype=np.uint32) for axis in grid))]
    const, mult, m32 = 0x43B0D7E5, 0x931E8875, 0xFFFFFFFF
    def hashmix(value):  # each call steps the hash constant
        nonlocal const
        value, const = value ^ const, const * mult & m32
        value = value * const & m32
        return value ^ value >> 16
    def mix(x, y):
        value = (x * 0xCA01F9DD & m32) - (y * 0x4973F715 & m32) & m32
        return value ^ value >> 16
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    # each pool word into the others, then each word past the pool's four
    for src, dst in product(range(max(4, len(entropy))), range(4)):
        if src != dst:
            pool[dst] = mix(pool[dst], hashmix((pool + entropy[4:])[src]))
    const, mult = 0x8B51F9DD, 0x58F38DED
    state = np.stack(np.broadcast_arrays(*(hashmix(pool[j % 4])
                                           for j in range(8))), axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed() -> type:
    """``PCG64``'s seed for one stream's words, defined on first use, as
    defining it imports ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence
    class WordsSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"not PCG64's 4 uint64: {n_words} {dtype}")
            return self.words
    return WordsSeed


def words_stream(words: np.ndarray) -> np.random.Generator:
    """The Generator of one stream, from its ``substream_words`` row."""
    return np.random.Generator(np.random.PCG64(_words_seed()(words)))


def pass_stream(base_seed: int, pass_index: int) -> np.random.Generator:
    """Generator for Monte Carlo pass ``pass_index`` under ``base_seed``."""
    return substream(base_seed, "mc-pass", pass_index)
