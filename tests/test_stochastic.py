import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.nn_core import forward, init_net
from mcuq.rng import substream
from mcuq.stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MODE_MC,
    MODE_SCALED,
    MODE_TRAINING,
    MaskSample,
    ShapeMismatchError,
    StochasticSpec,
    multipliers,
    n_spans,
    sample_mask,
)


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

    def test_scaled_mode_is_path_drop_only(self):
        spec_of(KIND_PATH, 0.2, mode=MODE_SCALED)
        for kind in (KIND_UNIT, KIND_BLOCK):
            with pytest.raises(ValueError):
                spec_of(kind, 0.2, mode=MODE_SCALED)

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
            for m in masks.per_block.values():
                assert (m == 1.0).all()

    def test_same_stream_same_masks(self):
        for kind in (KIND_UNIT, KIND_BLOCK, KIND_PATH):
            a = sample_mask(spec_of(kind, 0.5), 8, 6, substream(3, "m"))
            b = sample_mask(spec_of(kind, 0.5), 8, 6, substream(3, "m"))
            for l in a.per_block:
                assert np.array_equal(a.per_block[l], b.per_block[l])

    def test_stream_advances(self):
        rng = substream(3, "m")
        a = sample_mask(spec_of(KIND_UNIT, 0.5), 64, 1, rng)
        b = sample_mask(spec_of(KIND_UNIT, 0.5), 64, 1, rng)
        assert not np.array_equal(a.per_block[1], b.per_block[1])

    def test_scaled_mode_never_samples(self):
        with pytest.raises(ValueError):
            sample_mask(spec_of(KIND_PATH, 0.2, mode=MODE_SCALED), 8, 4,
                        substream(0))

    def test_keep_fraction_matches_rate(self):
        # law of large numbers at drop 0.5: one million draws per mechanism
        rng = substream(11, "lln")
        unit = sample_mask(spec_of(KIND_UNIT, 0.5), 10 ** 6, 1, rng)
        assert abs(unit.per_block[1].mean() - 0.5) < 0.002
        path = sample_mask(spec_of(KIND_PATH, 0.5), 4, 10 ** 6, rng)
        assert abs(path.per_block[1].mean() - 0.5) < 0.002
        spans = np.concatenate([
            sample_mask(spec_of(KIND_BLOCK, 0.5, block_size=1), 2000, 1,
                        rng).per_block[1]
            for _ in range(500)])
        assert abs(spans.mean() - 0.5) < 0.002

    def test_block_drop_never_returns_all_dropped(self):
        rng = substream(5, "redraw")
        spec = spec_of(KIND_BLOCK, 0.9, block_size=4)
        for _ in range(500):
            m = sample_mask(spec, 8, 1, rng).per_block[1]
            assert m.any()

    def test_mask_independence_across_blocks(self):
        # pairwise correlation between distinct blocks' masks, 1e5 samples
        spec = spec_of(KIND_PATH, 0.3, blocks={1, 2, 3})
        masks = sample_mask(spec, 8, 10 ** 5, substream(7, "indep"))
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    corr = np.corrcoef(masks.per_block[a], masks.per_block[b])[0, 1]
                    assert abs(corr) < 0.01
        # unit-drop masks across repeated draws
        rng = substream(8, "indep-unit")
        spec_u = spec_of(KIND_UNIT, 0.3, blocks={1, 2})
        draws = [sample_mask(spec_u, 4, 1, rng) for _ in range(10 ** 5)]
        first = np.array([d.per_block[1][0] for d in draws])
        second = np.array([d.per_block[2][0] for d in draws])
        assert abs(np.corrcoef(first, second)[0, 1]) < 0.01


def masks_of(kind, mask, keep_prob, block_size=4):
    """A hand-built one-block mask sample for block 1."""
    return MaskSample(kind=kind, per_block={1: np.asarray(mask, dtype=np.float64)},
                      keep_prob=keep_prob, block_size=block_size)


class TestUnitDrop:
    def test_identity_when_nothing_dropped(self):
        acts = np.array([[1.0, -2.0, 3.0]])
        unit_mult, row_mult = multipliers(masks_of(KIND_UNIT, np.ones(3), 1.0),
                                          1, 3, 1)
        assert row_mult is None
        assert np.array_equal(acts * unit_mult, acts)

    def test_inverted_scaling_arithmetic(self):
        unit_mult, _ = multipliers(masks_of(KIND_UNIT, [1.0, 0.0], 0.5), 1, 2, 1)
        assert np.array_equal(np.array([2.0, 4.0]) * unit_mult,
                              np.array([4.0, 0.0]))

    def test_zero_keep_prob_rejected(self):
        with pytest.raises(ValueError):
            multipliers(masks_of(KIND_UNIT, np.ones(3), 0.0), 1, 3, 1)

    def test_mask_length_must_match(self):
        with pytest.raises(ShapeMismatchError) as err:
            multipliers(masks_of(KIND_UNIT, np.ones(3), 0.5), 1, 4, 2)
        assert err.value.block_index == 1

    def test_expectation_matches_activations(self):
        # Monte Carlo expectation oracle, 1e5 masks
        acts = np.array([1.0, -2.0, 0.5, 3.0])
        spec = spec_of(KIND_UNIT, 0.5)
        rng = substream(21, "unit-exp")
        total = np.zeros_like(acts)
        n = 10 ** 5
        for _ in range(n):
            unit_mult, _ = multipliers(sample_mask(spec, 4, 1, rng), 1, 4, 1)
            total += acts * unit_mult
        mean = total / n
        assert (np.abs(mean - acts) < 0.01 * np.abs(acts)).all()


class TestBlockDrop:
    def test_identity_when_no_span_dropped(self):
        acts = np.arange(8.0)
        unit_mult, row_mult = multipliers(masks_of(KIND_BLOCK, np.ones(2), 0.5),
                                          1, 8, 1)
        assert row_mult is None
        assert np.array_equal(acts * unit_mult, acts)

    def test_count_based_rescale(self):
        acts = np.arange(1.0, 9.0)  # width 8, block size 4
        unit_mult, _ = multipliers(masks_of(KIND_BLOCK, [0.0, 1.0], 0.5), 1, 8, 1)
        out = acts * unit_mult
        assert np.array_equal(out[:4], np.zeros(4))
        assert np.array_equal(out[4:], acts[4:] * 2.0)

    def test_all_spans_dropped_is_error(self):
        with pytest.raises(ValueError):
            multipliers(masks_of(KIND_BLOCK, np.zeros(2), 0.5), 1, 8, 1)

    def test_span_count_with_remainder(self):
        assert n_spans(8, 4) == 2
        assert n_spans(9, 4) == 3
        unit_mult, _ = multipliers(masks_of(KIND_BLOCK, [1.0, 0.0], 0.5), 1, 6, 1)
        # last span holds the leftover 2 units; 6 total, 4 kept
        assert np.allclose(unit_mult, [1.5, 1.5, 1.5, 1.5, 0.0, 0.0])

    def test_span_count_must_match(self):
        # three spans cannot cover width 8 at block size 4
        with pytest.raises(ShapeMismatchError) as err:
            multipliers(masks_of(KIND_BLOCK, np.ones(3), 0.5), 1, 8, 1)
        assert err.value.block_index == 1

    def test_expectation_matches_activations(self):
        acts = np.array([1.0, 2.0, -1.0, 0.5, 3.0, -2.0, 1.5, 2.5])
        spec = spec_of(KIND_BLOCK, 0.5, block_size=4)
        rng = substream(22, "block-exp")
        total = np.zeros_like(acts)
        n = 10 ** 5
        for _ in range(n):
            unit_mult, _ = multipliers(sample_mask(spec, 8, 1, rng), 1, 8, 1)
            total += acts * unit_mult
        mean = total / n
        assert (np.abs(mean - acts) < 0.02 * np.abs(acts)).all()


class TestPathDrop:
    def test_zero_drop_is_plain_residual_sum(self):
        res = np.array([[1.0, 2.0], [3.0, 4.0]])
        ident = np.array([[10.0, 20.0], [30.0, 40.0]])
        unit_mult, row_mult = multipliers(masks_of(KIND_PATH, np.ones(2), 1.0),
                                          1, 2, 2)
        assert unit_mult is None
        assert np.array_equal(ident + row_mult * res, ident + res)

    def test_dropped_row_equals_identity(self):
        res = np.array([[1.0, 2.0], [3.0, 4.0]])
        ident = np.array([[10.0, 20.0], [30.0, 40.0]])
        _, row_mult = multipliers(masks_of(KIND_PATH, [0.0, 1.0], 0.8), 1, 2, 2)
        out = ident + row_mult * res
        assert np.array_equal(out[0], ident[0])
        assert np.allclose(out[1], ident[1] + res[1] / 0.8)

    def test_zero_keep_rejected(self):
        with pytest.raises(ValueError):
            multipliers(masks_of(KIND_PATH, np.ones(1), 0.0), 1, 2, 1)

    def test_shape_mismatch_rejected(self):
        # one survival bit per row: a 3-row mask cannot serve a batch of 2
        with pytest.raises(ShapeMismatchError) as err:
            multipliers(masks_of(KIND_PATH, np.ones(3), 0.5), 1, 2, 2)
        assert err.value.block_index == 1

    @pytest.mark.parametrize("p_drop", [0.1, 0.25, 0.5])
    def test_per_block_unbiasedness(self, p_drop):
        # fixed block input, 1e5 sampled masks: E[output] == identity + residual
        n = 10 ** 5
        ident = np.tile(np.array([0.5, -1.0, 2.0, 0.25]), (n, 1))
        res = np.tile(np.array([1.5, 0.5, -0.75, 2.0]), (n, 1))
        spec = spec_of(KIND_PATH, p_drop)
        masks = sample_mask(spec, 4, n, substream(23, "pd", int(p_drop * 100)))
        _, row_mult = multipliers(masks, 1, 4, n)
        mean = (ident + row_mult * res).mean(axis=0)
        target = ident[0] + res[0]
        assert (np.abs(mean - target) < 0.01 * np.abs(res[0])).all()


class TestDeterministicScaled:
    def test_endpoints(self):
        # keep 1 is the plain forward; keep -> 0 approaches the identity
        # path of the adapted block (its branch zeroed)
        net = init_net(2, 6, 2, 3, seed=31)
        x = substream(32).normal(size=(4, 2))
        full = spec_of(KIND_PATH, 0.0, blocks={1, 2}, mode=MODE_SCALED)
        assert np.array_equal(forward(net, x, scale_spec=full), forward(net, x))
        tiny = spec_of(KIND_PATH, 1.0 - 2.0 ** -30, blocks={1}, mode=MODE_SCALED)
        scaled = forward(net, x, scale_spec=tiny)
        for p in net.blocks[0].parameters():
            p.value[...] = 0.0
        assert np.allclose(scaled, forward(net, x), atol=1e-6)

    def test_expectation_algebra(self):
        # unnormalized stochastic output averages to the scaled rule;
        # the normalized one averages to the fully active block
        n = 10 ** 5
        p_keep = 0.7
        ident = np.tile(np.array([1.0, -0.5, 2.0]), (n, 1))
        res = np.tile(np.array([0.5, 1.5, -1.0]), (n, 1))
        masks = sample_mask(spec_of(KIND_PATH, 1 - p_keep), 3, n,
                            substream(29, "algebra"))
        m = masks.per_block[1]
        unnormalized = ident + m.reshape(-1, 1) * res
        assert np.allclose(unnormalized.mean(axis=0),
                           ident[0] + p_keep * res[0], atol=0.01)
        _, row_mult = multipliers(masks, 1, 3, n)
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
        unit_mult, row_mult = multipliers(masks_of(KIND_UNIT, m, keep),
                                          1, m.size, 3)
        assert row_mult is None and unit_mult.shape == m.shape
        assert (unit_mult[m == 0] == 0.0).all()
        assert (unit_mult[m == 1] == 1.0 / keep).all()

    @settings(max_examples=200, deadline=None)
    @given(keep=keeps, mask=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_path_multipliers_are_zero_or_inverse_keep(self, keep, mask):
        m = np.array(mask, dtype=np.float64)
        unit_mult, row_mult = multipliers(masks_of(KIND_PATH, m, keep),
                                          1, 5, m.size)
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
                multipliers(sample, 1, width, 1)
            return
        unit_mult, row_mult = multipliers(sample, 1, width, 1)
        assert row_mult is None and unit_mult.shape == (width,)
        dropped = np.repeat(m == 0, block_size)[:width]
        assert (unit_mult[dropped] == 0.0).all()
        assert (unit_mult[~dropped] > 0.0).all()
        assert abs(unit_mult.sum() - width) <= 1e-12 * width
