import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.rng import (_words_seed, pass_stream, substream, substream_words,
                      words_stream)

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


prefix_tags = st.lists(st.one_of(
    st.text(max_size=12),
    st.integers(-2 ** 70, -1),
    st.integers(2 ** 32, 2 ** 70),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.uint32, st.integers(0, 2 ** 32 - 1)),
    st.booleans(),
), max_size=4)
axes = st.lists(st.lists(st.one_of(st.integers(0, 40),
                                   st.sampled_from([2 ** 32 - 1])),
                         max_size=4), min_size=1, max_size=3)


class TestSubstreamWords:
    """Every stream of a batched family is the ``substream`` of its
    index, the same ``PCG64`` state word for word."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.sampled_from(EDGE_SEEDS),
                          st.sampled_from([-2 ** 70, 2 ** 70]),
                          st.integers(-2 ** 70, 2 ** 70)),
           tags=prefix_tags, grid=axes)
    def test_every_stream_equals_substream(self, seed, tags, grid):
        words = substream_words(seed, *tags, grid=grid)
        assert words.shape == (*map(len, grid), 4)
        assert words.dtype == np.uint64
        for at in np.ndindex(words.shape[:-1]):
            index = [axis[i] for axis, i in zip(grid, at)]
            assert words_stream(words[at]).bit_generator.state \
                == substream(seed, *tags, *index).bit_generator.state

    @pytest.mark.parametrize("grid", [(range(0),), (range(3), range(0)),
                                      (range(0), range(2), range(5))])
    def test_a_zero_size_grid(self, grid):
        words = substream_words(7, "mask", grid=grid)
        assert words.shape == (*map(len, grid), 4)
        assert words.dtype == np.uint64

    def test_no_grid_is_the_stream_itself(self):
        assert words_stream(substream_words(2 ** 70, "init", -1)) \
            .bit_generator.state \
            == substream(2 ** 70, "init", -1).bit_generator.state

    @pytest.mark.parametrize("bad", [2 ** 32, 2 ** 40, -1])
    def test_an_index_that_is_not_one_word_is_refused_by_value(self, bad):
        with pytest.raises(ValueError, match=f"grid index {bad} "):
            substream_words(3, "mask", grid=(range(2), [0, bad]))

    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (2, np.uint64), (8, np.uint64), (8, np.uint32)])
    def test_seed_words_serve_only_pcg64s_request(self, n_words, dtype):
        # a numpy that seeded PCG64 another way would fail here, loudly,
        # not hand it other words
        seed = _words_seed()(substream_words(5, "mask"))
        with pytest.raises(ValueError, match="4 uint64"):
            seed.generate_state(n_words, dtype)
        assert seed.generate_state(4, np.uint64).dtype == np.uint64


def test_golden_draws():
    # recorded from the list-of-ints derivation in ``oracle_substream``
    assert substream(17, "mask", 3, 7).integers(2 ** 62, size=3).tolist() \
        == [2656999803684161024, 607673627952978579, 1334390765850526294]
    assert pass_stream(2 ** 64 - 1, 9).random() == 0.8471557101556151
    assert substream(-5, "init", "block1.fc1", 2 ** 40).normal() \
        == -0.5369381804098678
