import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.harness import PRESETS, resolve_preset
from mcuq.mc_inference import (
    PredictiveSummary,
    deterministic_predict,
    mc_forward_logits,
    mc_predict,
)
from mcuq.nn_core import forward, init_net, sigmoid, softmax
from mcuq.rng import pass_stream, substream
from mcuq.stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    KINDS,
    MODE_MC,
    MODE_TRAINING,
    MaskSample,
    ShapeMismatchError,
    StochasticSpec,
    sample_mask,
)


def mc_spec(kind, rate, blocks={1}, block_size=4):
    return StochasticSpec(kind=kind, drop_rate=rate,
                          adapted_blocks=frozenset(blocks),
                          block_size=block_size, mode=MODE_MC)


@pytest.fixture
def small_net():
    return init_net(2, 8, 2, 3, seed=31)


@pytest.fixture
def x():
    return np.random.default_rng(32).normal(size=(4, 2))


class TestMcPredict:
    def test_zero_rate_means_zero_variance(self, small_net, x):
        summary = mc_predict(small_net, x, mc_spec(KIND_PATH, 0.0, {1, 2}),
                             T=6, base_seed=1)
        for probs in summary.per_pass_probs:
            assert np.array_equal(probs, summary.per_pass_probs[0])
        deviations = (summary.per_pass_probs - summary.per_pass_probs[0]) ** 2
        assert np.array_equal(deviations.mean(axis=0),
                              np.zeros_like(summary.mean_probs))

    def test_single_pass_mean_is_that_pass(self, small_net, x):
        summary = mc_predict(small_net, x, mc_spec(KIND_PATH, 0.3, {1, 2}),
                             T=1, base_seed=2)
        assert np.array_equal(summary.mean_probs, summary.per_pass_probs[0])

    def test_mean_is_exact_arithmetic_mean(self, small_net, x):
        summary = mc_predict(small_net, x, mc_spec(KIND_UNIT, 0.4, {1}),
                             T=9, base_seed=3)
        assert np.array_equal(summary.mean_probs,
                              summary.per_pass_probs.mean(axis=0))

    def test_softmax_rows_sum_to_one(self, small_net, x):
        summary = mc_predict(small_net, x, mc_spec(KIND_BLOCK, 0.4, {2}),
                             T=7, base_seed=4)
        assert np.abs(summary.mean_probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_sigmoid_mode_never_renormalizes(self, x):
        net = init_net(2, 8, 2, 3, output_mode="sigmoid", seed=33)
        summary = mc_predict(net, x, mc_spec(KIND_PATH, 0.3, {1, 2}),
                             T=8, base_seed=5)
        assert ((summary.per_pass_probs >= 0)
                & (summary.per_pass_probs <= 1)).all()
        # per-pass rows are independent sigmoids, not a simplex
        sums = summary.per_pass_probs.sum(axis=2)
        assert np.abs(sums - 1.0).max() > 0.01

    def test_rejects_bad_arguments(self, small_net, x):
        with pytest.raises(ValueError):
            mc_predict(small_net, x, mc_spec(KIND_PATH, 0.2), T=0, base_seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_training_spec_predicts_as_its_mc_label(self, small_net, x,
                                                       kind):
        # the mode is a label: the spec a net trained under predicts as is
        mc = mc_spec(kind, 0.3, {1, 2})
        training = replace(mc, mode=MODE_TRAINING)
        got = mc_predict(small_net, x, training, T=5, base_seed=6)
        want = mc_predict(small_net, x, mc, T=5, base_seed=6)
        assert got.per_pass_probs.tobytes() == want.per_pass_probs.tobytes()

    def test_failed_pass_is_tagged_with_index(self, small_net, x):
        # a head scaled so that every pass's logits overflow
        for p in small_net.parameters():
            if p.id == "head.w":
                p.value[...] *= 1e308
        with pytest.raises(RuntimeError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            mc_predict(small_net, x, mc_spec(KIND_PATH, 0.2), T=2,
                       base_seed=0)
        assert str(err.value) == \
            "MC pass 0 failed: non-finite values in logits"
        assert type(err.value.__cause__) is FloatingPointError

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflow_in_the_shared_prefix_fails_pass_0(self, small_net, x,
                                                        kind):
        # a stem scaled to overflow, in the prefix every pass shares
        with pytest.raises(RuntimeError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            for p in small_net.parameters():
                if p.id == "stem.w":
                    p.value[...] *= 1e308
            mc_forward_logits(small_net, x, mc_spec(kind, 0.2, {2}), T=3,
                              base_seed=0)
        assert str(err.value) == \
            "MC pass 0 failed: non-finite values in logits"
        assert type(err.value.__cause__) is FloatingPointError

    @pytest.mark.parametrize("bad_x", [np.ones((3, 5)), np.ones(2)],
                             ids=["wrong-width", "1-d"])
    def test_bad_input_is_rejected_before_any_pass(self, small_net, bad_x):
        # as deterministic_predict rejects it, unwrapped
        spec = mc_spec(KIND_PATH, 0.2)
        message = ("stem expects input width 2, got shape "
                   f"{bad_x.shape}")
        for run in (mc_predict, mc_forward_logits, deterministic_predict):
            args = (small_net, bad_x) if run is deterministic_predict \
                else (small_net, bad_x, spec, 2, 0)
            with pytest.raises(ShapeMismatchError) as err:
                run(*args)
            assert str(err.value) == message

    def test_adapted_block_outside_the_net_is_rejected(self, small_net, x):
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.3,
                              adapted_blocks={1, 5}, mode=MODE_MC)
        with pytest.raises(ShapeMismatchError,
                           match=r"mask refers to block 5 outside \[1\.\.2\]"
                           ) as err:
            mc_predict(small_net, x, spec, T=2, base_seed=0)
        assert err.value.block_index == 5

    def test_linear_net_mc_mean_matches_deterministic(self):
        # on a linear 1-block net the per-block unbiasedness composes, so
        # the MC mean of the logits approaches the mask-free forward
        net = init_net(2, 6, 1, 3, activation="identity", seed=13)
        x = np.random.default_rng(4).normal(size=(3, 2)) * 2.0
        spec = mc_spec(KIND_PATH, 0.3, {1})
        logits = mc_forward_logits(net, x, spec, T=20000, base_seed=7)
        target = forward(net, x)
        rel = np.abs(logits.mean(axis=0) - target) / np.abs(target)
        assert rel.max() < 0.01


def loop_forward_logits(net, x, spec, T, base_seed):
    """``mc_forward_logits`` as it was before the passes shared their
    deterministic prefix: every pass a whole forward from the stem."""
    return np.stack([
        forward(net, x, masks=sample_mask(spec, net.width, len(x),
                                          pass_stream(base_seed, t)))
        for t in range(T)])


class TestSharedPrefixMatchesLoopOracle:
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
    @pytest.mark.parametrize("preset", [*PRESETS, "none"])
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           activation=st.sampled_from(["relu", "identity"]),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           rate=st.sampled_from([0.0, 0.3, 0.8]),
           T=st.integers(1, 5), batch=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32))
    def test_bit_identical_to_whole_passes(self, n_blocks, preset, kind,
                                           activation, output_mode, rate,
                                           T, batch, seed):
        # "none" adapts no block: the prefix runs up to the head
        blocks = set() if preset == "none" else resolve_preset(preset,
                                                               n_blocks)
        net = init_net(2, 6, n_blocks, 3, output_mode=output_mode,
                       activation=activation, seed=seed)
        spec = mc_spec(kind, rate, blocks, block_size=4)
        x = substream(seed, "x").normal(size=(batch, 2))
        logits = mc_forward_logits(net, x, spec, T=T, base_seed=seed)
        expected = loop_forward_logits(net, x, spec, T, seed)
        assert logits.shape == expected.shape
        assert logits.tobytes() == expected.tobytes()


def loop_softmax(logits):
    """The softmax before it took a whole pass stack: one ``[batch, C]``
    pass, with the row max from ``max(axis=1)``."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loop_sigmoid(logits):
    """The sigmoid before it could write in place: one ``[batch, C]``
    pass into a fresh array."""
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loop_per_pass_probs(net, logits):
    """``per_pass_probs`` as it was built before: probabilities pass by
    pass, then stacked."""
    probs = loop_softmax if net.output_mode == "softmax" else loop_sigmoid
    return np.stack([probs(logits[t]) for t in range(len(logits))], axis=0)


class TestPerPassProbsMatchLoopOracle:
    @settings(max_examples=120, deadline=None)
    @given(n_classes=st.sampled_from([1, 2, 3, 8, 9, 17]),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           kind=st.sampled_from([KIND_UNIT, KIND_BLOCK, KIND_PATH]),
           tied=st.integers(0, 16),
           peak=st.sampled_from([None, 1.0, 40.0, 699.0]),
           T=st.integers(1, 6), batch=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32))
    def test_bit_identical_to_per_pass_stack(self, n_classes, output_mode,
                                             kind, tied, peak, T, batch,
                                             seed):
        net = init_net(2, 6, 2, n_classes, output_mode=output_mode,
                       seed=seed)
        v = {p.id: p.value for p in net.parameters()}
        head_w, head_b = v["head.w"], v["head.b"]
        # the first ``tied`` + 1 classes get equal logits in every row, so
        # with all classes tied every row's maximum is tied
        for j in range(1, min(tied, n_classes - 1) + 1):
            head_w[:, j] = head_w[:, 0]
            head_b[j] = head_b[0]
        spec = mc_spec(kind, 0.3, {1, 2}, block_size=2)
        x = substream(seed, "x").normal(size=(batch, 2))
        if peak is not None:
            # rescale the head so the largest |logit| is ``peak``: 699
            # puts logits near +-700, where exp over- and underflows
            top = np.abs(mc_forward_logits(net, x, spec, T, seed)).max()
            if top > 0:
                head_w *= peak / top
                head_b *= peak / top
        logits = mc_forward_logits(net, x, spec, T=T, base_seed=seed)
        summary = mc_predict(net, x, spec, T=T, base_seed=seed)
        expected = loop_per_pass_probs(net, logits)
        assert summary.per_pass_probs.shape == expected.shape
        assert summary.per_pass_probs.tobytes() == expected.tobytes()
        assert summary.mean_probs.tobytes() \
            == expected.mean(axis=0).tobytes()
        probs = softmax if output_mode == "softmax" else sigmoid
        before = logits.copy()
        assert probs(logits).tobytes() == expected.tobytes()
        assert logits.tobytes() == before.tobytes()  # no ``out``: untouched
        assert probs(logits, out=logits) is logits
        assert logits.tobytes() == expected.tobytes()


def traced_peak(fn):
    """The most bytes ``tracemalloc`` sees allocated at once during
    ``fn()``, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceWorkingSet:
    """An MC prediction holds its ``[T, n, C]`` buffer and a few
    ``[n, width]`` arrays at once: each pass's probabilities overwrite its
    logits, and an inference forward keeps no backward cache."""
    n, width, T, C = 2000, 16, 50, 3

    def net_and_rows(self, output_mode, n_blocks):
        net = init_net(4, self.width, n_blocks, self.C,
                       output_mode=output_mode, seed=41)
        x = substream(42, "x").normal(size=(self.n, 4))
        return net, x, self.n * self.width * 8

    @pytest.mark.parametrize("output_mode", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_mc_predict_holds_one_pass_stack(self, output_mode, kind):
        net, x, row_block = self.net_and_rows(output_mode, 2)
        spec = mc_spec(kind, 0.3, {1, 2})
        mc_predict(net, x, spec, T=self.T, base_seed=3)  # warm-up
        peak = traced_peak(lambda: mc_predict(net, x, spec, T=self.T,
                                              base_seed=3))
        assert peak <= self.T * self.n * self.C * 8 + 6 * row_block

    @pytest.mark.parametrize("output_mode", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("kind", [None, *KINDS])
    def test_forward_keeps_no_backward_cache(self, output_mode, kind):
        net, x, row_block = self.net_and_rows(output_mode, 3)
        masks = None if kind is None else sample_mask(
            mc_spec(kind, 0.3, {1, 2, 3}), self.width, self.n,
            substream(43, "mask"))
        forward(net, x, masks=masks)  # warm-up
        assert traced_peak(lambda: forward(net, x, masks=masks)) \
            <= 4 * row_block


class TestExecutionOrderInvariance:
    def test_indexed_streams_place_passes_by_index(self, small_net, x):
        # running the passes in shuffled execution order and placing results
        # by pass index reproduces the summary bit for bit
        spec = mc_spec(KIND_UNIT, 0.4, {1, 2})
        T = 10
        reference = mc_predict(small_net, x, spec, T=T, base_seed=9)
        shuffled = np.empty_like(reference.per_pass_probs)
        order = np.random.default_rng(0).permutation(T)
        for t in order:
            masks = sample_mask(spec, small_net.width, x.shape[0],
                                pass_stream(9, int(t)))
            shuffled[t] = softmax(forward(small_net, x, masks=masks))
        assert np.array_equal(shuffled, reference.per_pass_probs)

    def test_mean_of_shuffled_passes_is_close(self, small_net, x):
        summary = mc_predict(small_net, x, mc_spec(KIND_PATH, 0.3, {1}),
                             T=16, base_seed=10)
        perm = np.random.default_rng(1).permutation(16)
        assert np.allclose(summary.per_pass_probs[perm].mean(axis=0),
                           summary.mean_probs, atol=1e-12)


class TestVarianceDecay:
    def test_mean_variance_scales_inversely_with_t(self, small_net, x):
        spec = mc_spec(KIND_PATH, 0.4, {1, 2})
        ts = [5, 20, 80, 320]
        variances = []
        for T in ts:
            means = [mc_predict(small_net, x[:1], spec, T=T,
                                base_seed=1000 + r).mean_probs[0, 0]
                     for r in range(40)]
            variances.append(np.var(means))
        slope = np.polyfit(np.log(ts), np.log(variances), 1)[0]
        assert -1.2 < slope < -0.8


class TestDeterministicPredict:
    @pytest.mark.parametrize("keep", [0.3, 0.8])
    @pytest.mark.parametrize("n_adapted", [1, 2, 3])
    def test_is_the_exact_path_drop_ensemble_mean_on_identity_net(
            self, n_adapted, keep):
        # with identity activations the logits are multilinear in the row
        # multipliers z_l / keep, each of mean 1, so the weighted sum over
        # all 2^L whole-batch on/off patterns is the mask-free forward
        net = init_net(2, 5, 3, 3, activation="identity", seed=37 + n_adapted)
        x = np.random.default_rng(38).normal(size=(4, 2))
        blocks = tuple(range(4 - n_adapted, 4))
        mean = np.zeros((len(x), net.n_classes))
        for pattern in product((0.0, 1.0), repeat=n_adapted):
            z = np.array(pattern)
            masks = MaskSample(KIND_PATH, blocks,
                               np.repeat(z[:, None], len(x), axis=1), keep)
            weight = np.prod(np.where(z == 1.0, keep, 1.0 - keep))
            mean += weight * forward(net, x, masks=masks)
        plain = forward(net, x)
        assert np.abs(mean - plain).max() <= 1e-12 * np.abs(plain).max()
        assert deterministic_predict(net, x).tobytes() == \
            softmax(plain).tobytes()

    def test_consumes_no_rng(self, small_net, x):
        a = deterministic_predict(small_net, x)
        b = deterministic_predict(small_net, x)
        assert np.array_equal(a, b)
