import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.rng import substream
from mcuq.stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MODE_MC,
    MODE_TRAINING,
    MaskSample,
    ShapeMismatchError,
    StochasticSpec,
    multipliers,
    n_spans,
    sample_mask,
)


def per_block(masks) -> dict:
    """A sample's masks keyed by block."""
    return dict(zip(masks.blocks, masks.draws))


def spec_of(kind, rate, blocks={1}, block_size=4, mode=MODE_MC):
    return StochasticSpec(kind=kind, drop_rate=rate,
                          adapted_blocks=frozenset(blocks),
                          block_size=block_size, mode=mode)


class TestSpecValidation:
    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            spec_of(KIND_UNIT, 1.0)
        with pytest.raises(ValueError):
            spec_of(KIND_UNIT, -0.1)

    def test_unknown_kind_and_mode(self):
        with pytest.raises(ValueError):
            StochasticSpec(kind="nope", drop_rate=0.1)
        with pytest.raises(ValueError):
            StochasticSpec(kind=KIND_UNIT, drop_rate=0.1, mode="nope")


class TestSampleMask:
    def test_zero_rate_gives_all_ones(self):
        rng = substream(0, "t")
        for kind in (KIND_UNIT, KIND_BLOCK, KIND_PATH):
            masks = sample_mask(spec_of(kind, 0.0, blocks={1, 2}), 8, 5, rng)
            for m in per_block(masks).values():
                assert (m == 1.0).all()

    def test_same_stream_same_masks(self):
        for kind in (KIND_UNIT, KIND_BLOCK, KIND_PATH):
            a = sample_mask(spec_of(kind, 0.5), 8, 6, substream(3, "m"))
            b = sample_mask(spec_of(kind, 0.5), 8, 6, substream(3, "m"))
            for l in per_block(a):
                assert np.array_equal(per_block(a)[l], per_block(b)[l])

    def test_stream_advances(self):
        rng = substream(3, "m")
        a = sample_mask(spec_of(KIND_UNIT, 0.5), 64, 1, rng)
        b = sample_mask(spec_of(KIND_UNIT, 0.5), 64, 1, rng)
        assert not np.array_equal(per_block(a)[1], per_block(b)[1])

    def test_keep_fraction_matches_rate(self):
        # law of large numbers at drop 0.5: one million draws per mechanism
        rng = substream(11, "lln")
        unit = sample_mask(spec_of(KIND_UNIT, 0.5), 10 ** 6, 1, rng)
        assert abs(per_block(unit)[1].mean() - 0.5) < 0.002
        path = sample_mask(spec_of(KIND_PATH, 0.5), 4, 10 ** 6, rng)
        assert abs(per_block(path)[1].mean() - 0.5) < 0.002
        spans = np.concatenate([
            per_block(sample_mask(spec_of(KIND_BLOCK, 0.5, block_size=1),
                                  2000, 1, rng))[1]
            for _ in range(500)])
        assert abs(spans.mean() - 0.5) < 0.002

    def test_block_drop_never_returns_all_dropped(self):
        rng = substream(5, "redraw")
        spec = spec_of(KIND_BLOCK, 0.9, block_size=4)
        for _ in range(500):
            m = per_block(sample_mask(spec, 8, 1, rng))[1]
            assert m.any()

    def test_mask_independence_across_blocks(self):
        # pairwise correlation between distinct blocks' masks, 1e5 samples
        spec = spec_of(KIND_PATH, 0.3, blocks={1, 2, 3})
        masks = sample_mask(spec, 8, 10 ** 5, substream(7, "indep"))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    corr = np.corrcoef(per_block(masks)[a],
                                       per_block(masks)[b])[0, 1]
                    assert abs(corr) < 0.01
        # unit-drop masks across repeated draws
        rng = substream(8, "indep-unit")
        spec_u = spec_of(KIND_UNIT, 0.3, blocks={1, 2})
        draws = [sample_mask(spec_u, 4, 1, rng) for _ in range(10 ** 5)]
        first = np.array([per_block(d)[1][0] for d in draws])
        second = np.array([per_block(d)[2][0] for d in draws])
        assert abs(np.corrcoef(first, second)[0, 1]) < 0.01


def masks_of(kind, mask, keep_prob, block_size=4):
    """A hand-built one-block mask sample for block 1."""
    return MaskSample(kind=kind, blocks=(1,),
                      draws=np.asarray(mask, dtype=np.float64)[None],
                      keep_prob=keep_prob, block_size=block_size)


def one_block(masks, width, batch):
    """``multipliers`` of a one-block sample: that block's pair."""
    return tuple(None if mult is None else mult[0]
                 for mult in multipliers(masks, width, batch))


class TestUnitDrop:
    def test_identity_when_nothing_dropped(self):
        acts = np.array([[1.0, -2.0, 3.0]])
        unit_mult, row_mult = one_block(
            masks_of(KIND_UNIT, np.ones(3), 1.0), 3, 1)
        assert row_mult is None
        assert np.array_equal(acts * unit_mult, acts)

    def test_inverted_scaling_arithmetic(self):
        unit_mult, _ = one_block(masks_of(KIND_UNIT, [1.0, 0.0], 0.5), 2, 1)
        assert np.array_equal(np.array([2.0, 4.0]) * unit_mult,
                              np.array([4.0, 0.0]))

    def test_zero_keep_prob_rejected(self):
        with pytest.raises(ValueError):
            one_block(masks_of(KIND_UNIT, np.ones(3), 0.0), 3, 1)

    def test_mask_length_must_match(self):
        with pytest.raises(ShapeMismatchError) as err:
            one_block(masks_of(KIND_UNIT, np.ones(3), 0.5), 4, 2)
        assert err.value.block_index == 1

    def test_expectation_matches_activations(self):
        # Monte Carlo expectation oracle, 1e5 masks
        acts = np.array([1.0, -2.0, 0.5, 3.0])
        spec = spec_of(KIND_UNIT, 0.5)
        rng = substream(21, "unit-exp")
        total = np.zeros_like(acts)
        n = 10 ** 5
        for _ in range(n):
            unit_mult, _ = one_block(sample_mask(spec, 4, 1, rng), 4, 1)
            total += acts * unit_mult
        mean = total / n
        assert (np.abs(mean - acts) < 0.01 * np.abs(acts)).all()


class TestBlockDrop:
    def test_identity_when_no_span_dropped(self):
        acts = np.arange(8.0)
        unit_mult, row_mult = one_block(
            masks_of(KIND_BLOCK, np.ones(2), 0.5), 8, 1)
        assert row_mult is None
        assert np.array_equal(acts * unit_mult, acts)

    def test_count_based_rescale(self):
        acts = np.arange(1.0, 9.0)  # width 8, block size 4
        unit_mult, _ = one_block(masks_of(KIND_BLOCK, [0.0, 1.0], 0.5), 8, 1)
        out = acts * unit_mult
        assert np.array_equal(out[:4], np.zeros(4))
        assert np.array_equal(out[4:], acts[4:] * 2.0)

    def test_all_spans_dropped_is_error(self):
        with pytest.raises(ValueError):
            one_block(masks_of(KIND_BLOCK, np.zeros(2), 0.5), 8, 1)

    def test_span_count_with_remainder(self):
        assert n_spans(8, 4) == 2
        assert n_spans(9, 4) == 3
        unit_mult, _ = one_block(masks_of(KIND_BLOCK, [1.0, 0.0], 0.5), 6, 1)
        # last span holds the leftover 2 units; 6 total, 4 kept
        assert np.allclose(unit_mult, [1.5, 1.5, 1.5, 1.5, 0.0, 0.0])

    def test_span_count_must_match(self):
        # three spans cannot cover width 8 at block size 4
        with pytest.raises(ShapeMismatchError) as err:
            one_block(masks_of(KIND_BLOCK, np.ones(3), 0.5), 8, 1)
        assert err.value.block_index == 1

    def test_expectation_matches_activations(self):
        acts = np.array([1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 1.5, 2.5])
        spec = spec_of(KIND_BLOCK, 0.5, block_size=4)
        rng = substream(22, "block-exp")
        total = np.zeros_like(acts)
        n = 10 ** 5
        for _ in range(n):
            unit_mult, _ = one_block(sample_mask(spec, 8, 1, rng), 8, 1)
            total += acts * unit_mult
        mean = total / n
        assert (np.abs(mean - acts) < 0.02 * np.abs(acts)).all()


class TestPathDrop:
    def test_zero_drop_is_plain_residual_sum(self):
        res = np.array([[1.0, 2.0], [3.0, 4.0]])
        ident = np.array([[10.0, 20.0], [30.0, 40.0]])
        unit_mult, row_mult = one_block(
            masks_of(KIND_PATH, np.ones(2), 1.0), 2, 2)
        assert unit_mult is None
        assert np.array_equal(ident + row_mult * res, ident + res)

    def test_dropped_row_equals_identity(self):
        res = np.array([[1.0, 2.0], [3.0, 4.0]])
        ident = np.array([[10.0, 20.0], [30.0, 40.0]])
        _, row_mult = one_block(masks_of(KIND_PATH, [0.0, 1.0], 0.8), 2, 2)
        out = ident + row_mult * res
        assert np.array_equal(out[0], ident[0])
        assert np.allclose(out[1], ident[1] + res[1] / 0.8)

    def test_zero_keep_rejected(self):
        with pytest.raises(ValueError):
            one_block(masks_of(KIND_PATH, np.ones(1), 0.0), 2, 1)

    def test_shape_mismatch_rejected(self):
        # one survival bit per row: a 3-row mask cannot serve a batch of 2
        with pytest.raises(ShapeMismatchError) as err:
            one_block(masks_of(KIND_PATH, np.ones(3), 0.5), 2, 2)
        assert err.value.block_index == 1

    @pytest.mark.parametrize("p_drop", [0.1, 0.25, 0.5])
    def test_per_block_unbiasedness(self, p_drop):
        # fixed block input, 1e5 sampled masks: E[output] == identity + residual
        n = 10 ** 5
        ident = np.tile(np.array([0.5, -1.0, 2.0, 0.25]), (n, 1))
        res = np.tile(np.array([1.5, 0.5, -0.75, 2.0]), (n, 1))
        spec = spec_of(KIND_PATH, p_drop)
        masks = sample_mask(spec, 4, n, substream(23, "pd", int(p_drop * 100)))
        _, row_mult = one_block(masks, 4, n)
        mean = (ident + row_mult * res).mean(axis=0)
        target = ident[0] + res[0]
        assert (np.abs(mean - target) < 0.01 * np.abs(res[0])).all()


class TestDeterministicScaled:
    def test_expectation_algebra(self):
        # unnormalized stochastic output averages to the scaled rule;
        # the normalized one averages to the fully active block
        n = 10 ** 5
        p_keep = 0.7
        ident = np.tile(np.array([1.0, -0.5, 2.0]), (n, 1))
        res = np.tile(np.array([0.5, 1.5, -1.0]), (n, 1))
        masks = sample_mask(spec_of(KIND_PATH, 1 - p_keep), 3, n,
                            substream(29, "algebra"))
        m = per_block(masks)[1]
        unnormalized = ident + m.reshape(-1, 1) * res
        assert np.allclose(unnormalized.mean(axis=0),
                           ident[0] + p_keep * res[0], atol=0.01)
        _, row_mult = one_block(masks, 3, n)
        normalized = ident + row_mult * res
        assert np.allclose(normalized.mean(axis=0), (ident + res)[0],
                           atol=0.015)


keeps = st.floats(min_value=0.01, max_value=1.0)


class TestMultiplierProperties:
    """Exact value properties over widths, spans, keep rates and masks; with
    P(m = 1) = keep they give unbiasedness for unit and path drop and exact
    count normalization for block drop, without Monte Carlo loops."""

    @settings(max_examples=200, deadline=None)
    @given(keep=keeps, mask=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_unit_multipliers_are_zero_or_inverse_keep(self, keep, mask):
        m = np.array(mask, dtype=np.float64)
        unit_mult, row_mult = one_block(masks_of(KIND_UNIT, m, keep),
                                        m.size, 3)
        assert row_mult is None and unit_mult.shape == m.shape
        assert (unit_mult[m == 0] == 0.0).all()
        assert (unit_mult[m == 1] == 1.0 / keep).all()

    @settings(max_examples=200, deadline=None)
    @given(keep=keeps, mask=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_path_multipliers_are_zero_or_inverse_keep(self, keep, mask):
        m = np.array(mask, dtype=np.float64)
        unit_mult, row_mult = one_block(masks_of(KIND_PATH, m, keep),
                                        5, m.size)
        assert unit_mult is None and row_mult.shape == (m.size, 1)
        assert (row_mult[m == 0] == 0.0).all()
        assert (row_mult[m == 1] == 1.0 / keep).all()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 64), keep=keeps)
    def test_block_multipliers_zero_dropped_spans_and_sum_to_width(
            self, data, width, keep):
        block_size = data.draw(st.integers(1, width + 2), label="block_size")
        spans = n_spans(width, block_size)
        mask = data.draw(st.lists(st.booleans(), min_size=spans,
                                  max_size=spans), label="mask")
        m = np.array(mask, dtype=np.float64)
        sample = masks_of(KIND_BLOCK, m, keep, block_size=block_size)
        if not m.any():
            with pytest.raises(ValueError):
                one_block(sample, width, 1)
            return
        unit_mult, row_mult = one_block(sample, width, 1)
        assert row_mult is None and unit_mult.shape == (width,)
        dropped = np.repeat(m == 0, block_size)[:width]
        assert (unit_mult[dropped] == 0.0).all()
        assert (unit_mult[~dropped] > 0.0).all()
        assert abs(unit_mult.sum() - width) <= 1e-12 * width


def loop_sample_mask(spec, hidden_width, batch_size, rng):
    """``sample_mask`` before it drew every block at once: one
    ``rng.random`` call per adapted block (block drop: per redraw), in
    block order, into a dict of masks keyed by block."""
    keep = 1.0 - spec.drop_rate
    masks = {}
    for l in sorted(spec.adapted_blocks):
        if spec.kind == KIND_UNIT:
            m = (rng.random(hidden_width) < keep).astype(np.float64)
        elif spec.kind == KIND_BLOCK:
            spans = n_spans(hidden_width, spec.block_size)
            for _ in range(100):
                m = (rng.random(spans) < keep).astype(np.float64)
                if m.any():
                    break
            else:
                raise RuntimeError(f"block {l}: all {spans} spans dropped "
                                   "in 100 consecutive draws")
        else:  # path drop: one survival bit per batch row
            m = (rng.random(batch_size) < keep).astype(np.float64)
        masks[l] = m
    return masks


def loop_multipliers(masks, index, width, batch):
    """``multipliers`` before it took every block at once: block
    ``index``'s ``(unit_mult, row_mult)``, both None for a block the
    masks do not adapt.  The shape checks are left out."""
    m = per_block(masks).get(index)
    if m is None:
        return None, None
    if masks.kind == KIND_UNIT:
        return m / masks.keep_prob, None
    if masks.kind == KIND_BLOCK:
        unit = np.repeat(m, masks.block_size)[:width]  # last span may be short
        kept = unit.sum()
        if kept == 0:
            raise ValueError(f"block {index}: all spans dropped")
        return unit * (width / kept), None
    return None, m.reshape(-1, 1) / masks.keep_prob


def same_bytes(a, b) -> bool:
    """Byte and shape equality for arrays; identity for None."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


oracle_cases = dict(
    kind=st.sampled_from([KIND_UNIT, KIND_BLOCK, KIND_PATH]),
    # non-contiguous sets, the empty set included
    blocks=st.sets(st.integers(1, 9), max_size=5),
    width=st.integers(1, 24), batch=st.integers(1, 24),
    # block sizes that do not divide the width, and wider than it
    block_size=st.integers(1, 7),
    drop_rate=st.one_of(st.sampled_from([0.0, 0.5, 0.99]),
                        st.floats(0.0, 0.99)),
    seed=st.integers(0, 2 ** 32))


class TestMatchesPerBlockOracle:
    """``sample_mask`` and ``multipliers`` against the per-block loops
    they replace, byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(**oracle_cases)
    def test_masks_and_next_draw_match(self, kind, blocks, width, batch,
                                       block_size, drop_rate, seed):
        spec = spec_of(kind, drop_rate, blocks=blocks, block_size=block_size)
        fast, slow = substream(seed, "m"), substream(seed, "m")
        try:
            want = loop_sample_mask(spec, width, batch, slow)
        except RuntimeError as exc:  # block drop ran out of redraws
            with pytest.raises(RuntimeError) as err:
                sample_mask(spec, width, batch, fast)
            assert str(err.value) == str(exc)
        else:
            got = sample_mask(spec, width, batch, fast)
            assert got.blocks == tuple(sorted(blocks))
            assert per_block(got).keys() == want.keys()
            for l, m in want.items():
                assert same_bytes(per_block(got)[l], m), l
        # the stream is left where the per-block calls leave it
        assert fast.random(3).tobytes() == slow.random(3).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(**oracle_cases)
    def test_multipliers_match_per_block(self, kind, blocks, width, batch,
                                         block_size, drop_rate, seed):
        # hand-built draws, so block drop can drop every span of a block
        size = {KIND_UNIT: width, KIND_BLOCK: n_spans(width, block_size),
                KIND_PATH: batch}[kind]
        draws = (substream(seed, "d").random((len(blocks), size))
                 >= drop_rate).astype(np.float64)
        masks = MaskSample(kind, tuple(sorted(blocks)), draws,
                           1.0 - drop_rate, block_size)
        try:
            want = [loop_multipliers(masks, l, width, batch)
                    for l in masks.blocks]
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                multipliers(masks, width, batch)
            assert str(err.value) == str(exc)
            return
        unit, row = multipliers(masks, width, batch)
        assert (unit is None) == (kind == KIND_PATH) == (row is not None)
        got = unit if row is None else row
        assert len(got) == len(want)
        for i, (want_unit, want_row) in enumerate(want):
            assert same_bytes(None if unit is None else unit[i], want_unit)
            assert same_bytes(None if row is None else row[i], want_row)
