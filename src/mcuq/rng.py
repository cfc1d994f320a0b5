"""Deterministic random-stream derivation.

Every source of randomness in this package is a named substream of one
root seed.  A substream is identified by the root seed plus a tag path
(component name and indices), so independent components and independent
Monte Carlo passes never share or race on a generator, and results are
reproducible regardless of execution order.
"""

from __future__ import annotations

import functools
import hashlib

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


def substream(seed: int, *tags: int | str) -> np.random.Generator:
    """Return a fresh Generator for the (seed, *tags) stream.

    String tags are hashed with a fixed (unsalted) hash so the mapping is
    stable across processes and platforms.  ``SeedSequence`` gets the list
    ``[seed mod 2**64, *tag words]`` already split into 32-bit words.
    """
    words = [*_words(seed)]
    for t in tags:
        words += _words(t) if isinstance(t, (int, np.integer)) \
            else _str_words(str(t))
    return np.random.default_rng(
        np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def pass_stream(base_seed: int, pass_index: int) -> np.random.Generator:
    """Generator for Monte Carlo pass ``pass_index`` under ``base_seed``."""
    return substream(base_seed, "mc-pass", pass_index)
