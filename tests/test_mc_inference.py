import numpy as np
import pytest

from mcuq.mc_inference import (
    PredictiveSummary,
    deterministic_predict,
    mc_forward_logits,
    mc_predict,
)
from mcuq.nn_core import forward, init_net, softmax
from mcuq.rng import pass_stream
from mcuq.stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MODE_MC,
    MODE_TRAINING,
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
        training = StochasticSpec(kind=KIND_PATH, drop_rate=0.2,
                                  adapted_blocks={1}, mode=MODE_TRAINING)
        with pytest.raises(ValueError):
            mc_predict(small_net, x, training, T=3, base_seed=0)

    def test_failed_pass_is_tagged_with_index(self, small_net):
        bad_x = np.ones((3, 5))  # wrong input width
        with pytest.raises(RuntimeError, match="pass 0"):
            mc_predict(small_net, bad_x, mc_spec(KIND_PATH, 0.2), T=2,
                       base_seed=0)

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
    def test_path_drop_zero_rate_equals_plain_forward(self, small_net, x):
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.0,
                              adapted_blocks={1, 2}, mode=MODE_MC)
        expected = softmax(forward(small_net, x))
        assert np.array_equal(deterministic_predict(small_net, x, spec),
                              expected)

    def test_unit_drop_is_disabled_at_inference(self, small_net, x):
        expected = softmax(forward(small_net, x))
        for rate in (0.1, 0.5, 0.9):
            spec = StochasticSpec(kind=KIND_UNIT, drop_rate=rate,
                                  adapted_blocks={1, 2}, mode=MODE_MC)
            assert np.array_equal(deterministic_predict(small_net, x, spec),
                                  expected)

    def test_scaled_rule_closed_form_on_linear_net(self):
        net = init_net(2, 5, 1, 3, activation="identity", seed=37)
        x = np.random.default_rng(38).normal(size=(4, 2))
        p_keep = 0.8
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=1 - p_keep,
                              adapted_blocks={1}, mode=MODE_MC)
        blk = net.blocks[0]
        stem = x @ net.stem_w.value + net.stem_b.value
        branch = (stem @ blk.w1.value + blk.b1.value) @ blk.w2.value + blk.b2.value
        logits = (stem + p_keep * branch) @ net.head_w.value + net.head_b.value
        assert np.allclose(deterministic_predict(net, x, spec),
                           softmax(logits), atol=1e-12)

    def test_consumes_no_rng(self, small_net, x):
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.3,
                              adapted_blocks={1, 2}, mode=MODE_MC)
        a = deterministic_predict(small_net, x, spec)
        b = deterministic_predict(small_net, x, spec)
        assert np.array_equal(a, b)
