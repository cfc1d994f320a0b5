import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.rng import pass_stream, substream

MASK = 0xFFFFFFFFFFFFFFFF
EDGE_SEEDS = [0, -1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


def oracle_tag_word(tag) -> int:
    """One 64-bit word per tag, as the streams were first defined."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & MASK
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def oracle_substream(seed, *tags) -> np.random.Generator:
    """The stream definition: ``SeedSequence`` over a list of Python ints,
    split into 32-bit words by numpy's own coercion."""
    entropy = [int(seed) & MASK] + [oracle_tag_word(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def same_state(seed, *tags) -> bool:
    return substream(seed, *tags).bit_generator.state \
        == oracle_substream(seed, *tags).bit_generator.state


tags = st.lists(st.one_of(
    st.sampled_from(EDGE_SEEDS),
    st.integers(-2 ** 70, 2 ** 70),
    st.text(max_size=12),
), max_size=4)


class TestSubstreamMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.sampled_from(EDGE_SEEDS),
                          st.integers(-2 ** 70, 2 ** 70)),
           tags=tags)
    def test_state_equals_the_oracle(self, seed, tags):
        assert same_state(seed, *tags)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("tags", [(), ("mask", 3, 7), (2 ** 32, "init"),
                                      ("", 0, 2 ** 64 - 1, -1)])
    def test_edge_seeds(self, seed, tags):
        assert same_state(seed, *tags)

    def test_numpy_integer_and_bool_tags(self):
        for tag in (np.int64(-3), np.uint64(2 ** 63), np.int32(7), True):
            assert same_state(5, "shuffle", tag)

    def test_repeated_string_tag_gives_the_same_stream(self):
        first = substream(3, "block1.fc1").bit_generator.state
        assert substream(3, "block1.fc1").bit_generator.state == first
        assert substream(3, "block1.fc2").bit_generator.state != first


def test_golden_draws():
    # recorded from the list-of-ints derivation in ``oracle_substream``
    assert substream(17, "mask", 3, 7).integers(2 ** 62, size=3).tolist() \
        == [2656999803684161024, 607673627952978579, 1334390765850526294]
    assert pass_stream(2 ** 64 - 1, 9).random() == 0.8471557101556151
    assert substream(-5, "init", "block1.fc1", 2 ** 40).normal() \
        == -0.5369381804098678
