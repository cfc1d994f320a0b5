import copy
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcuq import nn_core
from mcuq.nn_core import (
    ResidualNet,
    ShapeMismatchError,
    TrainConfig,
    TrainingDivergedError,
    _block_mults,
    _forward_cached,
    _stack,
    backward,
    check_finite,
    forward,
    init_net,
    l2_penalty,
    load_checkpoint,
    loss,
    save_checkpoint,
    save_loss_trace,
    sgd_step,
    sigmoid,
    train,
)
from mcuq.rng import substream
from mcuq.stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MODE_MC,
    MODE_TRAINING,
    StochasticSpec,
    sample_mask,
)
from mcuq.datasets import make_blobs
from test_stochastic import loop_multipliers


def zero_net(net: ResidualNet) -> ResidualNet:
    for p in net.parameters():
        p.value[...] = 0.0
    return net


def views(net: ResidualNet) -> dict:
    """Each parameter's (id, value, grad) views, keyed by id."""
    return {p.id: p for p in net.parameters()}


def weights(net: ResidualNet, l: int) -> tuple:
    """Block ``l``'s w1, b1, w2, b2 values."""
    v = views(net)
    return tuple(v[f"block{l}.fc{k}.{kind}"].value
                 for k in (1, 2) for kind in ("w", "b"))


def straightline_forward(net: ResidualNet, x: np.ndarray) -> np.ndarray:
    """Independent re-implementation of the same arithmetic with explicit
    python loops; no shared code with the library path."""

    def affine(vec, w, b):
        out = []
        for j in range(len(b)):
            s = b[j]
            for i in range(len(vec)):
                s += vec[i] * w[i][j]
            out.append(s)
        return out

    p = {p.id: p.value.tolist() for p in net.parameters()}
    rows = []
    for row in x.tolist():
        h = affine(row, p["stem.w"], p["stem.b"])
        for l in range(1, net.n_blocks + 1):
            pre = affine(h, p[f"block{l}.fc1.w"], p[f"block{l}.fc1.b"])
            act = [max(v, 0.0) for v in pre]
            branch = affine(act, p[f"block{l}.fc2.w"], p[f"block{l}.fc2.b"])
            h = [a + b for a, b in zip(h, branch)]
        rows.append(affine(h, p["head.w"], p["head.b"]))
    return np.array(rows)


GOLDEN_X = np.array([[0.5, -1.25], [2.0, 0.75], [-0.5, 0.25]])
# recorded once from the straight-line oracle above on the seed-42 net
GOLDEN_LOGITS = np.array([
    [-0.03941257054549968, -3.780107197367981, 1.6731729215089555],
    [6.061099037610598, 8.176126705402458, -0.6431242292243238],
    [1.6789101000022677, 1.5078308931502704, 0.9594889545518347],
])


class TestForward:
    def test_zero_weight_net_returns_head_bias(self):
        net = zero_net(init_net(2, 4, 2, 3, seed=0))
        views(net)["head.b"].value[...] = [0.5, -1.0, 2.0]
        logits = forward(net, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.array_equal(logits, np.tile([0.5, -1.0, 2.0], (5, 1)))

    def test_zeroed_block_is_identity_path(self):
        net = init_net(2, 4, 1, 3, seed=1)
        for w in weights(net, 1):
            w[...] = 0.0
        p = views(net)
        x = np.array([[0.3, -0.7], [1.2, 0.4]])
        stem = x @ p["stem.w"].value + p["stem.b"].value
        expected = stem @ p["head.w"].value + p["head.b"].value
        assert np.allclose(forward(net, x), expected, atol=1e-15)

    def test_matches_recorded_golden(self):
        net = init_net(in_dim=2, width=4, n_blocks=2, n_classes=3, seed=42)
        logits = forward(net, GOLDEN_X)
        assert np.allclose(logits, GOLDEN_LOGITS, atol=1e-12)
        assert np.allclose(straightline_forward(net, GOLDEN_X), GOLDEN_LOGITS,
                           atol=1e-12)

    def test_wrong_input_width_is_structured_error(self):
        net = init_net(2, 4, 1, 3, seed=0)
        with pytest.raises(ShapeMismatchError):
            forward(net, np.ones((3, 5)))

    def test_bad_mask_names_block(self):
        net = init_net(2, 4, 2, 3, seed=0)
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.5,
                              adapted_blocks={2}, mode="mc-inference")
        masks = sample_mask(spec, 4, 3, substream(0))
        with pytest.raises(ShapeMismatchError) as err:
            forward(net, np.ones((2, 2)), masks=masks)  # batch 2, mask rows 3
        assert err.value.block_index == 2

    def test_mask_outside_block_range_rejected(self):
        net = init_net(2, 4, 1, 3, seed=0)
        spec = StochasticSpec(kind=KIND_UNIT, drop_rate=0.5,
                              adapted_blocks={3}, mode="mc-inference")
        masks = sample_mask(spec, 4, 2, substream(0))
        with pytest.raises(ShapeMismatchError) as err:
            forward(net, np.ones((2, 2)), masks=masks)
        assert err.value.block_index == 3

    def test_zero_rate_masks_reproduce_plain_forward(self):
        net = init_net(2, 8, 2, 3, seed=5)
        x = substream(6).normal(size=(4, 2))
        plain = forward(net, x)
        for kind in (KIND_UNIT, KIND_BLOCK, KIND_PATH):
            spec = StochasticSpec(kind=kind, drop_rate=0.0,
                                  adapted_blocks={1, 2}, block_size=4,
                                  mode="mc-inference")
            masks = sample_mask(spec, 8, 4, substream(7))
            assert np.array_equal(forward(net, x, masks=masks), plain)


class TestLoss:
    def test_confident_correct_prediction_is_near_zero(self):
        net = init_net(2, 4, 1, 3, seed=0)
        logits = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        assert loss(logits, np.array([0, 1]), net, 0.0) < 1e-12

    def test_uniform_softmax_is_log_c(self):
        net = init_net(2, 4, 1, 4, seed=0)
        logits = np.zeros((1, 4))
        assert loss(logits, np.array([2]), net, 0.0) == pytest.approx(np.log(4.0))

    def test_l2_term_arithmetic(self):
        net = zero_net(init_net(2, 4, 1, 3, seed=0))
        views(net)["block1.fc1.w"].value[1, 2] = 3.0
        logits = np.zeros((1, 3))
        base = loss(logits, np.array([0]), net, 0.0)
        assert loss(logits, np.array([0]), net, 1.0) == pytest.approx(base + 9.0)

    def test_l2_decomposition_is_exact(self):
        net = init_net(2, 6, 2, 3, seed=9)
        x = substream(10).normal(size=(5, 2))
        y = np.array([0, 1, 2, 0, 1])
        logits = forward(net, x)
        lam = 0.37
        penalty = sum(float(np.sum(w1 ** 2) + np.sum(w2 ** 2))
                      for w1, _, w2, _ in (weights(net, l) for l in (1, 2)))
        assert loss(logits, y, net, lam) \
            == loss(logits, y, net, 0.0) + lam * penalty

    def test_sigmoid_mode_summed_bce(self):
        net = init_net(2, 4, 1, 2, seed=0)
        net.output_mode = "sigmoid"
        logits = np.zeros((1, 2))
        y = np.array([[1.0, 0.0]])
        # two classes at probability 0.5: 2 * ln 2
        assert loss(logits, y, net, 0.0) == pytest.approx(2 * np.log(2.0))

    def test_empty_batch_rejected(self):
        net = init_net(2, 4, 1, 3, seed=0)
        with pytest.raises(ValueError):
            loss(np.zeros((0, 3)), np.zeros(0, dtype=int), net, 0.0)

    def test_bad_label_rejected(self):
        net = init_net(2, 4, 1, 3, seed=0)
        with pytest.raises(ValueError):
            loss(np.zeros((1, 3)), np.array([7]), net, 0.0)


def finite_difference_grads(net, x, y, lam, masks=None, eps=1e-5):
    grads = {}
    for p in net.parameters():
        g = np.zeros_like(p.value)
        flat = p.value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(forward(net, x, masks=masks), y, net, lam)
            flat[i] = orig - eps
            down = loss(forward(net, x, masks=masks), y, net, lam)
            flat[i] = orig
            g.ravel()[i] = (up - down) / (2 * eps)
        grads[p.id] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for pid, a in analytic.items():
        n = numeric[pid]
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, rel.max())
    return worst


class TestBackward:
    def test_zero_input_zero_weights_kills_stem_weight_grads(self):
        net = zero_net(init_net(2, 4, 1, 3, seed=0))
        grads = backward(net, np.zeros((3, 2)), np.array([0, 1, 2]), 0.0)
        assert np.array_equal(grads["stem.w"], np.zeros((2, 4)))

    @pytest.mark.parametrize("output_mode", ["softmax", "sigmoid"])
    def test_matches_finite_differences(self, output_mode):
        net = init_net(2, 6, 2, 3, output_mode=output_mode, seed=13)
        x = substream(14).normal(size=(4, 2))
        y = np.array([0, 2, 1, 0])
        if output_mode == "sigmoid":
            y = np.eye(3)[y]
        analytic = backward(net, x, y, 0.01)
        numeric = finite_difference_grads(net, x, y, 0.01)
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("kind", [KIND_UNIT, KIND_BLOCK, KIND_PATH])
    def test_matches_finite_differences_under_masks(self, kind):
        net = init_net(2, 8, 2, 3, seed=15)
        x = substream(16).normal(size=(3, 2))
        y = np.array([1, 0, 2])
        spec = StochasticSpec(kind=kind, drop_rate=0.4, adapted_blocks={1, 2},
                              block_size=4)
        masks = sample_mask(spec, 8, 3, substream(17, kind))
        analytic = backward(net, x, y, 0.0, masks=masks)
        numeric = finite_difference_grads(net, x, y, 0.0, masks=masks)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_pure_l2_gradient(self):
        # with zero input and zero first-layer parameters, the second-layer
        # branch weights never see data, so their gradient is 2*lam*value
        net = zero_net(init_net(2, 4, 1, 3, seed=0))
        w2 = views(net)["block1.fc2.w"]
        w2.value[0, 1] = 3.0
        lam = 0.25
        grads = backward(net, np.zeros((2, 2)), np.array([0, 1]), lam)
        assert np.allclose(grads[w2.id], 2 * lam * w2.value)

    def test_fills_parameter_grad_buffers(self):
        net = init_net(2, 4, 1, 3, seed=3)
        grads = backward(net, np.ones((2, 2)), np.array([0, 1]), 0.0)
        for p in net.parameters():
            assert np.array_equal(p.grad, grads[p.id])


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        net = init_net(2, 4, 1, 3, seed=2)
        before = [p.value.copy() for p in net.parameters()]
        backward(net, np.ones((1, 2)), np.array([0]), 0.0)
        sgd_step(net, 0.0)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_single_step_arithmetic(self):
        net = init_net(2, 4, 1, 3, seed=2)
        p = views(net)["stem.w"]
        p.value[...] = 1.0
        before = [q.value.copy() for q in net.parameters()]
        net.grads[...] = 0.0
        p.grad[...] = 2.0
        sgd_step(net, 0.5)
        assert np.array_equal(p.value, np.zeros_like(p.value))
        for q, b in zip(net.parameters()[1:], before[1:]):
            assert np.array_equal(q.value, b)

    def test_descent_on_convex_quadratic(self):
        # loss (w - 3)^2 on a single scalar parameter
        holder = SimpleNamespace(values=np.array([10.0]), grads=np.zeros(1))
        losses = []
        for _ in range(60):
            w = holder.values[0]
            losses.append((w - 3.0) ** 2)
            holder.grads[0] = 2 * (w - 3.0)
            sgd_step(holder, 0.1)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6


class TestTrain:
    def test_separable_blobs_reach_high_accuracy(self):
        for seed in range(5):
            X, y = make_blobs(200, n_classes=2, spread=0.3, radius=3.0,
                              seed=seed)
            net = init_net(2, 8, 1, 2, seed=seed)
            cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0, epochs=30,
                              batch_size=32, seed=seed)
            train(net, (X, y), cfg)
            acc = (forward(net, X).argmax(axis=1) == y).mean()
            assert acc >= 0.99

    def test_zero_epochs_is_noop(self):
        net = init_net(2, 4, 1, 3, seed=4)
        before = [p.value.copy() for p in net.parameters()]
        trace = train(net, make_blobs(50, seed=0),
                      TrainConfig(learning_rate=0.1, epochs=0, seed=0))
        assert trace == []
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_same_seed_same_trace_and_parameters(self):
        X, y = make_blobs(120, seed=1)

        def run():
            net = init_net(2, 8, 2, 3, seed=11)
            spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.2,
                                  adapted_blocks={1, 2})
            trace = train(net, (X, y), TrainConfig(learning_rate=0.05,
                                                   weight_decay=1e-4,
                                                   epochs=8, batch_size=16,
                                                   seed=77), stochastic=spec)
            return trace, [p.value.copy() for p in net.parameters()]

        trace_a, params_a = run()
        trace_b, params_b = run()
        assert trace_a == trace_b
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_divergence_aborts_with_diagnostic(self):
        X, y = make_blobs(100, spread=2.0, seed=2)
        net = init_net(2, 8, 2, 3, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(net, (X * 100, y),
                      TrainConfig(learning_rate=1e6, epochs=5, seed=0))

    def test_empty_dataset_rejected(self):
        net = init_net(2, 4, 1, 3, seed=0)
        with pytest.raises(ValueError):
            train(net, (np.zeros((0, 2)), np.zeros(0, dtype=int)),
                  TrainConfig(learning_rate=0.1, epochs=1, seed=0))

    def test_overflowing_gradient_names_the_first_bad_parameter(self):
        # finite logits (a zero stem keeps every activation at zero) but a
        # stem-weight gradient x.T @ g that overflows on 1e308 inputs
        net = init_net(2, 16, 2, 3, seed=3)
        views(net)["stem.w"].value[...] = 0.0
        views(net)["head.w"].value[...] *= 1e3
        before = net.values.copy()
        X = np.full((32, 2), 1e308)
        y = substream(4).integers(0, 3, size=32)
        with warnings.catch_warnings(), \
                pytest.raises(TrainingDivergedError) as err:
            warnings.simplefilter("error")
            train(net, (X, y), TrainConfig(learning_rate=0.1, epochs=1,
                                           seed=0))
        assert str(err.value) == \
            "epoch 0 batch 0: non-finite values in grad of stem.w"
        assert net.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("extra", [[9, 9], [0], None])
    def test_targets_must_have_one_row_per_input(self, extra):
        # extra labels, even out-of-range ones, and a short y are rejected
        X, y = make_blobs(40, seed=12)
        y = y[:-1] if extra is None else np.concatenate([y, extra])
        net = init_net(2, 4, 1, 3, seed=12)
        before = net.values.copy()
        with pytest.raises(ShapeMismatchError):
            train(net, (X, y), TrainConfig(learning_rate=0.1, epochs=1,
                                           seed=0))
        assert net.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shuffle_seed", range(20))
    def test_bad_label_raises_before_the_first_step(self, shuffle_seed):
        # the bad label sits in whichever minibatch the shuffle puts it
        X, y = make_blobs(70, seed=13)
        y[-1] = 7
        net = init_net(2, 4, 1, 3, seed=13)
        before = net.values.copy()
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            train(net, (X, y), TrainConfig(learning_rate=0.1, epochs=2,
                                           batch_size=32, seed=shuffle_seed))
        assert net.values.tobytes() == before.tobytes()

    def test_float_labels_are_rejected(self):
        # a float label array used to pass the range check and then fail
        # with a raw IndexError at the first step
        X, y = make_blobs(40, seed=15)
        net = init_net(2, 4, 1, 3, seed=15)
        with pytest.raises(ValueError, match="must be integers"):
            train(net, (X, y.astype(np.float64)),
                  TrainConfig(learning_rate=0.1, epochs=1, seed=0))
        with pytest.raises(ValueError, match="must be integers"):
            loss(np.zeros((2, 3)), np.array([0.0, 1.0]), net, 0.0)

    @pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
    def test_bad_sigmoid_target_raises_before_the_first_step(self, bad):
        # a NaN target used to surface as a diverged training run
        X, y = make_blobs(70, seed=14)
        targets = np.eye(3)[y]
        targets[-1, 2] = bad
        net = init_net(2, 4, 1, 3, output_mode="sigmoid", seed=14)
        before = net.values.copy()
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            train(net, (X, targets), TrainConfig(learning_rate=0.1, epochs=1,
                                                 seed=0))
        assert net.values.tobytes() == before.tobytes()
        with pytest.raises(ShapeMismatchError):
            train(net, (X, targets[:, :2]), TrainConfig(learning_rate=0.1,
                                                        epochs=1, seed=0))

    def test_fresh_mask_per_minibatch(self):
        # two minibatches in one epoch must not share masks: with drop 0.5
        # on a 1-block net, identical masks would give identical outputs for
        # identical inputs; train on duplicated rows and check parameters
        # moved (smoke) while determinism holds across repeats
        X = np.tile([[1.0, 2.0]], (64, 1))
        y = np.zeros(64, dtype=int)
        net_a = init_net(2, 8, 1, 2, seed=6)
        net_b = init_net(2, 8, 1, 2, seed=6)
        spec = StochasticSpec(kind=KIND_UNIT, drop_rate=0.5, adapted_blocks={1})
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=32, seed=5)
        trace_a = train(net_a, (X, y), cfg, stochastic=spec)
        trace_b = train(net_b, (X, y), cfg, stochastic=spec)
        assert trace_a == trace_b


def loop_forward_cached(net, x, masks=None):
    """The forward before it computed in place: a fresh array for every
    affine map, activation, multiplier product and residual sum."""
    x = np.asarray(x, dtype=np.float64)
    p = views(net)
    cache = {"x": x, "blocks": []}
    h = x @ p["stem.w"].value + p["stem.b"].value
    for l in range(1, net.n_blocks + 1):
        w1, b1, w2, b2 = weights(net, l)
        unit_mult = row_mult = None
        if masks is not None:
            unit_mult, row_mult = loop_multipliers(masks, l, net.width,
                                                   x.shape[0])
        pre = h @ w1 + b1
        act = np.maximum(pre, 0.0) if net.activation == "relu" else pre
        hidden = act if unit_mult is None else act * unit_mult
        branch = hidden @ w2 + b2
        out = h + branch if row_mult is None else h + row_mult * branch
        cache["blocks"].append({"in": h, "pre": pre, "hidden": hidden,
                                "unit_mult": unit_mult, "row_mult": row_mult})
        h = out
    logits = h @ p["head.w"].value + p["head.b"].value
    cache["head_in"] = h
    check_finite(logits, "logits")
    return logits, cache


def same_bytes(a, b) -> bool:
    """Byte equality for arrays; plain equality for None and floats."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return a == b


class TestForwardMatchesLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from([None, KIND_UNIT, KIND_BLOCK, KIND_PATH]),
           activation=st.sampled_from(["relu", "identity"]),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           n_blocks=st.integers(1, 3), width=st.integers(1, 8),
           block_size=st.integers(1, 4), batch=st.integers(1, 9),
           drop_rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
           seed=st.integers(0, 2 ** 32))
    def test_logits_and_cache_bit_identical(
            self, kind, activation, output_mode, n_blocks, width, block_size,
            batch, drop_rate, seed):
        net = init_net(3, width, n_blocks, 4, output_mode=output_mode,
                       activation=activation, seed=seed)
        x = substream(seed, "x").normal(size=(batch, 3))
        masks = None
        if kind is not None:
            spec = StochasticSpec(
                kind=kind, drop_rate=drop_rate,
                adapted_blocks=range(1, n_blocks + 1), block_size=block_size,
                mode=MODE_MC)
            masks = sample_mask(spec, width, batch, substream(seed, "mask"))
        cache = {"x": x, "blocks": []}
        logits = _forward_cached(net, x, _block_mults(net, masks, batch),
                                 cache=cache)
        want_logits, want = loop_forward_cached(net, x, masks=masks)
        assert same_bytes(logits, want_logits)
        assert same_bytes(forward(net, x, masks=masks), want_logits)
        assert same_bytes(cache["x"], want["x"])
        assert same_bytes(cache["head_in"], want["head_in"])
        assert len(cache["blocks"]) == len(want["blocks"]) == n_blocks
        for got, expected in zip(cache["blocks"], want["blocks"]):
            # the oracle also keeps "pre" for its own backward
            assert got.keys() == {"in", "hidden", "unit_mult", "row_mult"}
            for key in got:
                assert same_bytes(got[key], expected[key]), key


def loop_loss_and_grads(net, x, targets, weight_decay, masks=None):
    """The training step before the flat buffers: the loss and a dict of
    freshly allocated gradients, each checked for non-finite values on its
    own, with the task loss and softmax computed separately, on the
    allocating forward ``loop_forward_cached``."""
    logits, cache = loop_forward_cached(net, x, masks=masks)
    batch = logits.shape[0]
    if net.output_mode == "softmax":
        y = np.asarray(targets)
        z = logits - logits.max(axis=1, keepdims=True)
        logprob = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        task = float(-logprob[np.arange(batch), y].mean())
        e = np.exp(z)
        dlogits = e / e.sum(axis=1, keepdims=True)
        dlogits[np.arange(batch), y] -= 1.0
        dlogits /= batch
    else:
        y = np.asarray(targets, dtype=np.float64)
        bce = (np.maximum(logits, 0.0) - logits * y
               + np.log1p(np.exp(-np.abs(logits))))
        task = float(bce.sum(axis=1).mean())
        dlogits = (sigmoid(logits) - y) / batch
    penalty = float(sum(np.sum(w1 ** 2) + np.sum(w2 ** 2)
                        for w1, _, w2, _ in (weights(net, l) for l in
                                             range(1, net.n_blocks + 1))))
    total = task + weight_decay * penalty

    grads = {}
    h = cache["head_in"]
    grads["head.w"] = h.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    g = dlogits @ views(net)["head.w"].value.T
    for l, c in zip(range(net.n_blocks, 0, -1), reversed(cache["blocks"])):
        w1, _, w2, _ = weights(net, l)
        dbranch = g if c["row_mult"] is None else g * c["row_mult"]
        grads[f"block{l}.fc2.w"] = c["hidden"].T @ dbranch
        grads[f"block{l}.fc2.b"] = dbranch.sum(axis=0)
        dhidden = dbranch @ w2.T
        dact = dhidden * c["unit_mult"] if c["unit_mult"] is not None else dhidden
        if net.activation == "relu":
            act_grad = (c["pre"] > 0.0).astype(np.float64)
        else:
            act_grad = np.ones_like(c["pre"])
        dpre = dact * act_grad
        grads[f"block{l}.fc1.w"] = c["in"].T @ dpre
        grads[f"block{l}.fc1.b"] = dpre.sum(axis=0)
        g = g + dpre @ w1.T
    grads["stem.w"] = cache["x"].T @ g
    grads["stem.b"] = g.sum(axis=0)
    if weight_decay != 0.0:
        for l in range(1, net.n_blocks + 1):
            for pid in (f"block{l}.fc1.w", f"block{l}.fc2.w"):
                value = views(net)[pid].value
                grads[pid] = grads[pid] + 2.0 * weight_decay * value
    for p in net.parameters():
        if not np.all(np.isfinite(grads[p.id])):
            raise FloatingPointError(f"non-finite values in grad of {p.id}")
    if not np.isfinite(total):  # BCE summed over classes can overflow
        raise FloatingPointError(f"loss is {total}")
    return total, grads


class TestBackwardMatchesLoopOracle:
    # a flipped zero sign in a gradient moves no weight, so the trained
    # weights alone would not show it; the gradients are compared as bytes
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from([None, KIND_UNIT, KIND_BLOCK, KIND_PATH]),
           activation=st.sampled_from(["relu", "identity"]),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
           n_blocks=st.integers(1, 3), width=st.integers(1, 8),
           block_size=st.integers(1, 4), batch=st.integers(1, 9),
           drop_rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
           seed=st.integers(0, 2 ** 32))
    def test_gradients_bit_identical(
            self, kind, activation, output_mode, weight_decay, n_blocks,
            width, block_size, batch, drop_rate, seed):
        n_classes = 3
        net = init_net(2, width, n_blocks, n_classes, output_mode=output_mode,
                       activation=activation, seed=seed)
        x = substream(seed, "x").normal(size=(batch, 2))
        y = substream(seed, "y").integers(0, n_classes, size=batch)
        if output_mode == "sigmoid":
            y = np.eye(n_classes)[y]
        masks = None
        if kind is not None:
            spec = StochasticSpec(kind=kind, drop_rate=drop_rate,
                                  adapted_blocks=range(1, n_blocks + 1),
                                  block_size=block_size, mode=MODE_TRAINING)
            masks = sample_mask(spec, width, batch, substream(seed, "mask"))
        _, want = loop_loss_and_grads(net, x, y, weight_decay, masks=masks)
        got = backward(net, x, y, weight_decay, masks=masks)
        assert got.keys() == want.keys()
        for pid, grad in got.items():
            assert grad.shape == want[pid].shape, pid
            assert grad.tobytes() == want[pid].tobytes(), pid


def loop_train(net, dataset, cfg, stochastic=None):
    """Oracle for ``train``: the same substreams and minibatches, with
    ``loop_loss_and_grads`` and one SGD update per parameter."""
    X, y = dataset
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    trace = []
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(n)
        batch_losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            masks = None
            if stochastic is not None:
                masks = sample_mask(stochastic, net.width, len(idx),
                                    substream(cfg.seed, "mask", epoch, bi))
            with np.errstate(over="ignore", invalid="ignore"):
                value, grads = loop_loss_and_grads(
                    net, X[idx], y[idx], cfg.weight_decay, masks=masks)
            for p in net.parameters():
                p.value[...] -= cfg.learning_rate * grads[p.id]
            batch_losses.append(value)
        trace.append(float(np.mean(batch_losses)))
    return trace


class TestFlatBuffers:
    def test_a_deep_net_costs_its_buffers_alone(self):
        # three stacks per buffer, whatever the depth: building 100,000
        # blocks allocates little beyond the two buffers
        tracemalloc.start()
        try:
            net = ResidualNet(1, 1, 100_000, 2)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live - net.values.nbytes - net.grads.nbytes < 10 * 2 ** 20
        with pytest.raises(ValueError, match="^n_blocks 100001 is over the "
                           "cap of 100000$"):
            ResidualNet(1, 1, 100_001, 2)

    def test_parameters_are_views_in_order(self):
        net = init_net(3, 5, 2, 4, seed=30)
        params = net.parameters()
        assert net.values.size == net.grads.size == sum(p.value.size
                                                        for p in params)
        assert np.array_equal(
            net.values, np.concatenate([p.value.ravel() for p in params]))
        for p in params:
            assert np.shares_memory(p.value, net.values)
            assert np.shares_memory(p.grad, net.grads)

    def test_deepcopy_trains_like_the_original(self):
        X, y = make_blobs(70, seed=31)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=1e-3, epochs=3,
                          batch_size=16, seed=32)
        spec = StochasticSpec(kind=KIND_UNIT, drop_rate=0.2,
                              adapted_blocks={1, 2})
        net = init_net(2, 6, 2, 3, seed=33)
        before = net.values.copy()
        clone = copy.deepcopy(net)
        for p, q in zip(net.parameters(), clone.parameters()):
            assert not np.shares_memory(p.value, q.value)
            assert np.shares_memory(q.value, clone.values)
            assert np.shares_memory(q.grad, clone.grads)
        clone_trace = train(clone, (X, y), cfg, stochastic=spec)
        assert np.array_equal(net.values, before)
        assert not np.array_equal(clone.values, before)
        assert train(net, (X, y), cfg, stochastic=spec) == clone_trace
        for p, q in zip(net.parameters(), clone.parameters()):
            assert p.value.tobytes() == q.value.tobytes()

    def test_loaded_checkpoint_fills_the_views(self, tmp_path):
        X, y = make_blobs(60, seed=34)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=16,
                          seed=35)
        net = init_net(2, 6, 2, 3, seed=36)
        train(net, (X, y), cfg)
        save_checkpoint(net, tmp_path / "model.json")
        again, _ = load_checkpoint(tmp_path / "model.json")
        assert again.values.tobytes() == net.values.tobytes()
        for p in again.parameters():
            assert np.shares_memory(p.value, again.values)
        assert train(again, (X, y), cfg) == train(net, (X, y), cfg)
        assert again.values.tobytes() == net.values.tobytes()


    def test_branch_views_share_the_flat_buffers(self, tmp_path):
        def check(net):
            (values, grads), w = net.blocks, net.width
            assert values.shape == grads.shape \
                == (net.n_blocks, 2, w + 1, w)
            assert np.shares_memory(values, net.values)
            assert np.shares_memory(grads, net.grads)
            for l in range(1, net.n_blocks + 1):
                for j in (0, 1):
                    for kind, rows in (("w", slice(-1)), ("b", -1)):
                        p = views(net)[f"block{l}.fc{j + 1}.{kind}"]
                        p.value[...] = 1.0 + p.value
                        p.grad[...] = 2.0 + p.value
                        assert np.array_equal(values[l - 1, j, rows], p.value)
                        assert np.array_equal(grads[l - 1, j, rows], p.grad)

        net = init_net(3, 5, 3, 4, seed=37)
        check(net)
        clone = copy.deepcopy(net)
        check(clone)
        assert not np.shares_memory(clone.blocks[0], net.values)
        save_checkpoint(net, tmp_path / "model.json")
        check(load_checkpoint(tmp_path / "model.json")[0])


    def test_views_sit_at_their_layout_offsets(self, tmp_path):
        def check(net):
            # a stack's views lead with its axis of nets, each net's row
            # laid out as a single net's buffer is
            lead = net.values.shape[:-1]
            params = net.parameters()
            assert [p.id for p in params] == [i for i, _ in layout(net)]
            offset = 0
            for p, (_, shape) in zip(params, layout(net)):
                for view, buf in ((p.value, net.values), (p.grad, net.grads)):
                    assert view.shape == (*lead, *shape)
                    assert np.shares_memory(view, buf)
                    for k in np.ndindex(lead):
                        assert view[k].ctypes.data \
                            == buf[k].ctypes.data + 8 * offset
                offset += math.prod(shape)
            assert net.values.shape[-1] == net.grads.shape[-1] == offset
            # each affine stack starts at its first weight
            first = views(net)
            for (values, grads), id in ((net.stem, "stem.w"),
                                        (net.blocks, "block1.fc1.w"),
                                        (net.head, "head.w")):
                assert values.ctypes.data == first[id].value.ctypes.data
                assert grads.ctypes.data == first[id].grad.ctypes.data
            w, d, c = net.width, net.in_dim, net.n_classes
            assert [pair[0].shape for pair in (net.stem, net.blocks,
                                               net.head)] == [
                (*lead, d + 1, w), (*lead, net.n_blocks, 2, w + 1, w),
                (*lead, w + 1, c)]

        net = init_net(3, 5, 2, 4, seed=38)
        check(net)
        backward(net, substream(39).normal(size=(4, 3)),
                 np.array([0, 1, 2, 3]), 0.1)
        clone = copy.deepcopy(net)
        check(clone)
        assert clone.values.tobytes() == net.values.tobytes()
        assert clone.grads.tobytes() == net.grads.tobytes()
        assert not np.shares_memory(clone.values, net.values)
        assert not np.shares_memory(clone.grads, net.grads)
        path = tmp_path / "model.json"
        save_checkpoint(net, path)
        again, _ = load_checkpoint(path)
        check(again)
        # the stored list is the buffer, in the layout checked above
        assert np.array(json.loads(path.read_text())["values"]).tobytes() \
            == net.values.tobytes()
        # a stack of one net, then of three, each rebound to its row
        check(_stack([clone]))
        nets = [clone, again, init_net(3, 5, 2, 4, seed=40)]
        stack = _stack(nets)
        check(stack)
        for k, net in enumerate(nets):
            check(net)
            assert net.values.ctypes.data == stack.values[k].ctypes.data


def layout(net: ResidualNet) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's (id, shape) in buffer order: the stem, each
    block's fc1 and fc2, then the head, each weight before its bias."""
    layers = [("stem", net.in_dim, net.width),
              *((f"block{l}.fc{k}", net.width, net.width)
                for l in range(1, net.n_blocks + 1) for k in (1, 2)),
              ("head", net.width, net.n_classes)]
    return [entry for name, fan_in, fan_out in layers
            for entry in ((f"{name}.w", (fan_in, fan_out)),
                          (f"{name}.b", (fan_out,)))]


def flat_l2_penalty(net: ResidualNet):
    """``l2_penalty`` with each weight matrix's squares reduced as one flat
    run of width**2 values, then summed over the blocks in order."""
    lead = net.values.shape[:-1]
    sums = [np.add.reduce(np.square(views(net)[f"block{l}.fc{k}.w"].value)
                          .reshape(*lead, -1), axis=-1)
            for l in range(1, net.n_blocks + 1) for k in (1, 2)]
    return sum(sums[i] + sums[i + 1] for i in range(0, len(sums), 2))


def loop_l2_penalty(net) -> float:
    """``l2_penalty`` as one sum per weight matrix, in block order."""
    return float(sum(np.sum(w1 ** 2) + np.sum(w2 ** 2)
                     for w1, _, w2, _ in (weights(net, l) for l in
                                          range(1, net.n_blocks + 1))))


class TestL2MatchesPerMatrixLoops:
    @settings(max_examples=40, deadline=None)
    @given(n_blocks=st.integers(1, 4), width=st.integers(1, 64),
           n_nets=st.integers(1, 3), seed=st.integers(0, 2 ** 32))
    def test_l2_penalty_equals_a_flat_reduce(self, n_blocks, width, n_nets,
                                             seed):
        nets = [init_net(2, width, n_blocks, 3, seed=seed + k)
                for k in range(n_nets)]
        for net in nets:
            assert np.asarray(l2_penalty(net)).tobytes() \
                == np.asarray(flat_l2_penalty(net)).tobytes()
        stack = _stack(nets)
        assert l2_penalty(stack).shape == (n_nets,)
        assert l2_penalty(stack).tobytes() == flat_l2_penalty(stack).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(n_blocks=st.integers(1, 4), width=st.integers(1, 40),
           log_scale=st.floats(-3, 3), weight_decay=st.floats(1e-6, 1.0),
           seed=st.integers(0, 2 ** 32))
    def test_penalty_and_decay_gradient_bit_identical(
            self, n_blocks, width, log_scale, weight_decay, seed):
        net = init_net(2, width, n_blocks, 3, seed=seed)
        net.values *= 10.0 ** log_scale
        assert l2_penalty(net) == loop_l2_penalty(net)
        x = substream(seed, "x").normal(size=(5, 2))
        y = substream(seed, "y").integers(0, 3, size=5)
        task = {k: g.copy() for k, g in backward(net, x, y, 0.0).items()}
        decayed = backward(net, x, y, weight_decay)
        for l in range(1, n_blocks + 1):
            for p in (views(net)[f"block{l}.fc1.w"],
                      views(net)[f"block{l}.fc2.w"]):
                task[p.id] = task[p.id] + 2.0 * weight_decay * p.value
        for key, grad in decayed.items():
            assert grad.tobytes() == task[key].tobytes(), key


class TestTrainMatchesLoopOracle:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([None, KIND_UNIT, KIND_BLOCK, KIND_PATH]),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           activation=st.sampled_from(["relu", "identity"]),
           weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
           n_blocks=st.integers(1, 3), width=st.integers(1, 8),
           batch_size=st.integers(2, 9), n_batches=st.integers(1, 4),
           remainder=st.integers(1, 8), block_size=st.integers(1, 4),
           drop_rate=st.sampled_from([0.0, 0.2, 0.5]),
           seed=st.integers(0, 2 ** 32))
    def test_trace_and_weights_bit_identical(
            self, kind, output_mode, activation, weight_decay, n_blocks,
            width, batch_size, n_batches, remainder, block_size, drop_rate,
            seed):
        # the last minibatch is short: batch_size never divides n
        n = batch_size * n_batches + min(remainder, batch_size - 1)
        n_classes = 3
        X = substream(seed, "x").normal(size=(n, 2))
        y = substream(seed, "y").integers(0, n_classes, size=n)
        if output_mode == "sigmoid":
            y = np.eye(n_classes)[y]
        spec = None
        if kind is not None:
            spec = StochasticSpec(kind=kind, drop_rate=drop_rate,
                                  adapted_blocks=range(1, n_blocks + 1),
                                  block_size=block_size)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=weight_decay,
                          epochs=2, batch_size=batch_size, seed=seed)
        fast, slow = (init_net(2, width, n_blocks, n_classes,
                               output_mode=output_mode,
                               activation=activation, seed=seed)
                      for _ in range(2))
        try:
            want = loop_train(slow, (X, y), cfg, stochastic=spec)
        except FloatingPointError:
            # a diverging run must stop at the same step, before its update
            with pytest.raises(TrainingDivergedError):
                train(fast, (X, y), cfg, stochastic=spec)
        else:
            assert train(fast, (X, y), cfg, stochastic=spec) == want
        for p, q in zip(fast.parameters(), slow.parameters()):
            assert p.value.tobytes() == q.value.tobytes(), p.id


    @settings(max_examples=60, deadline=None)
    @given(group=st.lists(st.tuples(
               st.sampled_from([None, KIND_UNIT, KIND_BLOCK, KIND_PATH]),
               st.sets(st.integers(1, 3), min_size=1),
               st.sampled_from([0.0, 0.2, 0.5]),
               # one-word, two-word (a sweep cell's, below 2**62) and
               # negative net seeds
               st.one_of(st.integers(0, 2 ** 32),
                         st.integers(2 ** 32, 2 ** 62),
                         st.integers(-2 ** 63, -1)),
               # a scaled net may overflow at any step, and a spec may
               # adapt the block after the net's last
               st.sampled_from([1.0, 1.0, 1.0, 1.5, 3.0]),
               st.sampled_from([False, False, False, True])),
               min_size=1, max_size=4),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           activation=st.sampled_from(["relu", "identity"]),
           weight_decay=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
           n_blocks=st.integers(1, 3), width=st.integers(1, 8),
           batch_size=st.integers(2, 9), n_batches=st.integers(1, 3),
           remainder=st.integers(0, 8), epochs=st.sampled_from([2, 2, 2, 0]),
           block_size=st.integers(1, 4), seed=st.integers(0, 2 ** 32))
    # no epoch at all, and a single batch each epoch
    @example(group=[(KIND_UNIT, {1}, 0.2, -7, 1.0, False),
                    (KIND_PATH, {2}, 0.5, 2 ** 61 + 3, 1.0, False)],
             output_mode="softmax", activation="relu", weight_decay=0.0,
             n_blocks=2, width=4, batch_size=4, n_batches=2, remainder=1,
             epochs=0, block_size=1, seed=5)
    @example(group=[(KIND_BLOCK, {1, 2}, 0.2, 2 ** 40, 1.0, False),
                    (KIND_UNIT, {2}, 0.5, -2 ** 63, 1.0, False),
                    (None, {1}, 0.0, 9, 1.0, False)],
             output_mode="softmax", activation="relu", weight_decay=1e-3,
             n_blocks=2, width=4, batch_size=5, n_batches=1, remainder=0,
             epochs=2, block_size=2, seed=6)
    # a loss that overflows (summed BCE) while the logits and gradients
    # stay finite: the net stops before that step's update
    @example(group=[(None, {1}, 0.0, 4_763_938_497_887, 3.0, False)],
             output_mode="sigmoid", activation="identity", weight_decay=0.0,
             n_blocks=2, width=7, batch_size=5, n_batches=3, remainder=4,
             epochs=2, block_size=1, seed=338646)
    def test_lockstep_group_equals_solo_and_oracle(
            self, group, output_mode, activation, weight_decay, n_blocks,
            width, batch_size, n_batches, remainder, epochs, block_size,
            seed):
        # mixed mechanisms and adapted blocks in one group; the last
        # minibatch may be short, and a net that fails restacks the others
        # onto fresh multiplier stacks
        n = batch_size * n_batches + min(remainder, batch_size - 1)
        X = substream(seed, "x").normal(size=(n, 2))
        y = substream(seed, "y").integers(0, 3, size=n)
        if output_mode == "sigmoid":
            y = np.eye(3)[y]
        nets, cfgs, specs = [], [], []
        for kind, blocks, drop_rate, net_seed, scale, outside in group:
            nets.append(init_net(2, width, n_blocks, 3,
                                 output_mode=output_mode,
                                 activation=activation, seed=net_seed))
            nets[-1].values *= scale
            cfgs.append(TrainConfig(learning_rate=0.05,
                                    weight_decay=weight_decay, epochs=epochs,
                                    batch_size=batch_size, seed=net_seed))
            blocks = {min(b, n_blocks) for b in blocks}
            specs.append(None if kind is None else StochasticSpec(
                kind=kind, drop_rate=drop_rate, block_size=block_size,
                adapted_blocks=blocks | {n_blocks + 1} if outside
                else blocks))
        solos, oracles = ([copy.deepcopy(net) for net in nets]
                          for _ in range(2))
        before = [net.values.copy() for net in nets]
        results = train(nets, (X, y), cfgs, stochastic=specs)
        assert len(results) == len(nets)
        for net, solo, oracle, cfg, spec, got, values in zip(
                nets, solos, oracles, cfgs, specs, results, before):
            try:
                want = train(solo, (X, y), cfg, stochastic=spec)
            except ShapeMismatchError as exc:
                # the outside block fails the first step, before any update
                assert type(got) is ShapeMismatchError
                assert str(got) == str(exc)
                assert got.block_index == n_blocks + 1
                assert net.values.tobytes() == values.tobytes()
            except TrainingDivergedError as exc:
                assert type(got) is TrainingDivergedError
                assert str(got) == str(exc)
                with pytest.raises(FloatingPointError):
                    loop_train(oracle, (X, y), cfg, stochastic=spec)
                assert net.values.tobytes() == oracle.values.tobytes()
            else:
                assert got == want
                assert loop_train(oracle, (X, y), cfg, stochastic=spec) == want
                assert net.values.tobytes() == oracle.values.tobytes()
            assert net.values.tobytes() == solo.values.tobytes()
            assert net.grads.tobytes() == solo.grads.tobytes()

    @pytest.mark.parametrize("block", [1, 5, 7, 4096])
    def test_mask_words_are_derived_whole_epochs_at_a_time(self, block):
        # 23 rows in batches of 8: three batches an epoch, so a block of
        # 1 or 5 streams holds one epoch, 7 holds two and 4096 all five
        X, y = make_blobs(23, seed=60)
        spec = StochasticSpec(kind=KIND_UNIT, drop_rate=0.3,
                              adapted_blocks={1, 2})
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=8,
                          seed=2 ** 40 + 61)
        net, oracle = (init_net(2, 6, 2, 3, seed=62) for _ in range(2))
        derive = mock.Mock(wraps=nn_core.substream_words)
        with mock.patch.object(nn_core, "MASK_WORDS_BLOCK", block), \
                mock.patch.object(nn_core, "substream_words", derive):
            got = train(net, (X, y), cfg, stochastic=spec)
        assert got == loop_train(oracle, (X, y), cfg, stochastic=spec)
        assert net.values.tobytes() == oracle.values.tobytes()
        span = max(1, block // 3)
        assert [c.kwargs["grid"] for c in derive.call_args_list] == [
            (range(e, min(e + span, 5)), range(3)) for e in range(0, 5, span)]


def loop_stacks(samples, n_blocks, width, rows):
    """Each block's stacked multipliers as a lockstep step built them
    before: fresh ones, then every block of every net written from its
    per-block pair (1.0 where it has none)."""
    units = np.ones((n_blocks, len(samples), 1, width))
    row_mults = np.ones((n_blocks, len(samples), rows, 1))
    for i, masks in enumerate(samples):
        for l in range(1, n_blocks + 1):
            unit, row = (None, None) if masks is None else \
                loop_multipliers(masks, l, width, rows)
            units[l - 1, i] = 1.0 if unit is None else unit
            row_mults[l - 1, i] = 1.0 if row is None else row
    return list(zip(units, row_mults))


class TestMultiplierStacks:
    @settings(max_examples=60, deadline=None)
    @given(group=st.lists(st.tuples(
               st.sampled_from([None, KIND_UNIT, KIND_BLOCK, KIND_PATH]),
               st.sets(st.integers(1, 4), max_size=4)),
               min_size=1, max_size=5),
           n_blocks=st.integers(1, 4), width=st.integers(1, 8),
           block_size=st.integers(1, 5), batch_size=st.integers(2, 9),
           n_batches=st.integers(1, 3), remainder=st.integers(1, 8),
           drop_rate=st.sampled_from([0.0, 0.2, 0.5]),
           seed=st.integers(0, 2 ** 32))
    def test_reused_stacks_equal_the_per_block_build(
            self, group, n_blocks, width, block_size, batch_size, n_batches,
            remainder, drop_rate, seed):
        # every step's stacks, as the forward pass gets them, against the
        # stacks built afresh from the same masks; two batch heights
        n = batch_size * n_batches + min(remainder, batch_size - 1)
        X = substream(seed, "x").normal(size=(n, 2))
        y = substream(seed, "y").integers(0, 3, size=n)
        nets = [init_net(2, width, n_blocks, 3, seed=seed + k)
                for k in range(len(group))]
        cfgs = [TrainConfig(learning_rate=0.01, epochs=2,
                            batch_size=batch_size, seed=seed + k)
                for k in range(len(group))]
        specs = [None if kind is None else StochasticSpec(
                     kind=kind, drop_rate=drop_rate, block_size=block_size,
                     adapted_blocks={min(b, n_blocks) for b in blocks})
                 for kind, blocks in group]
        drawn, steps = [], []

        def recording(*args):
            drawn.append(sample_mask(*args))
            return drawn[-1]

        def checked_step(stack, x, targets, weight_decay, mults):
            samples = [None if spec is None else drawn.pop(0)
                       for spec in specs]
            assert not drawn
            want = loop_stacks(samples, n_blocks, width, x.shape[1])
            assert len(mults) == len(want) == n_blocks
            for got, expected in zip(mults, want):
                assert same_bytes(got[0], expected[0])
                assert same_bytes(got[1], expected[1])
            steps.append(x.shape[1])
            return loss_and_grads(stack, x, targets, weight_decay, mults)

        loss_and_grads = nn_core._loss_and_grads
        with mock.patch.object(nn_core, "sample_mask", recording), \
                mock.patch.object(nn_core, "_loss_and_grads", checked_step):
            results = train(nets, (X, y), cfgs, stochastic=specs)
        assert all(isinstance(r, list) for r in results)
        heights = [batch_size] * n_batches + [n - batch_size * n_batches]
        assert steps == heights * 2


class TestLockstepFailures:
    def test_a_failing_net_stops_alone_as_it_would_alone(self):
        X, y = make_blobs(150, seed=40)
        nets = [init_net(2, 8, 2, 3, seed=41 + k) for k in range(5)]
        nets[1].values *= 1e200  # its activations overflow
        unit = StochasticSpec(kind=KIND_UNIT, drop_rate=0.2,
                              adapted_blocks={1, 2})
        specs = [unit, unit,
                 # block 5 of a 2-block net
                 StochasticSpec(kind=KIND_PATH, drop_rate=0.2,
                                adapted_blocks={1, 5}),
                 # a single span, nearly always dropped: redraws run out
                 StochasticSpec(kind=KIND_BLOCK, drop_rate=0.99,
                                adapted_blocks={1}, block_size=8),
                 None]
        cfgs = [TrainConfig(learning_rate=0.05, weight_decay=1e-4, epochs=5,
                            batch_size=16, seed=50 + k) for k in range(5)]
        solos = [copy.deepcopy(net) for net in nets]
        results = train(nets, (X, y), cfgs, stochastic=specs)
        for net, solo, cfg, spec, got in zip(nets, solos, cfgs, specs,
                                             results):
            try:
                want = train(solo, (X, y), cfg, stochastic=spec)
            except Exception as exc:
                assert type(got) is type(exc)
                assert str(got) == str(exc)
            else:
                assert got == want
            # a failed net keeps its weights after its last good update
            assert net.values.tobytes() == solo.values.tobytes()
        assert [type(r) for r in results] == [
            list, TrainingDivergedError, ShapeMismatchError, RuntimeError,
            list]
        assert str(results[1]) == \
            "epoch 0 batch 0: non-finite values in logits"
        assert results[2].block_index == 5
        assert "spans dropped in 100 consecutive draws" in str(results[3])
        assert not str(results[3]).startswith("epoch 0 batch 0")


    def test_restacks_mid_epoch_leave_each_net_as_alone(self):
        # 150 rows in batches of 16 end on a short batch of 6; the spec
        # adapting block 5 of a 2-block net is second and fails step 0,
        # and the scaled net overflows in the second epoch, after both
        # batch heights have their stacks
        X, y = make_blobs(150, seed=40)
        nets = [init_net(2, 8, 2, 3, seed=k) for k in (41, 42, 43, 45, 46)]
        nets[2].values *= 1.12
        specs = [StochasticSpec(kind=KIND_PATH, drop_rate=0.2,
                                adapted_blocks={2}),
                 StochasticSpec(kind=KIND_UNIT, drop_rate=0.2,
                                adapted_blocks={1, 5}),
                 StochasticSpec(kind=KIND_UNIT, drop_rate=0.2,
                                adapted_blocks={1, 2}),
                 # width 8 in spans of 3: the last span is short
                 StochasticSpec(kind=KIND_BLOCK, drop_rate=0.3,
                                adapted_blocks={1}, block_size=3),
                 None]
        cfgs = [TrainConfig(learning_rate=0.05, weight_decay=1e-4, epochs=3,
                            batch_size=16, seed=50 + k) for k in range(5)]
        solos = [copy.deepcopy(net) for net in nets]
        results = train(nets, (X, y), cfgs, stochastic=specs)
        for net, solo, cfg, spec, got in zip(nets, solos, cfgs, specs,
                                             results):
            try:
                want = train(solo, (X, y), cfg, stochastic=spec)
            except Exception as exc:
                assert type(got) is type(exc)
                assert str(got) == str(exc)
            else:
                assert got == want
            assert net.values.tobytes() == solo.values.tobytes()
        assert [type(r) for r in results] == [
            list, ShapeMismatchError, TrainingDivergedError, list, list]
        assert str(results[1]) == "mask refers to block 5 outside [1..2]"
        assert str(results[2]).startswith("epoch 1 batch ")
        assert not str(results[2]).startswith("epoch 1 batch 0:")

    def test_an_overflowing_penalty_stops_only_its_net(self):
        # zero inputs keep logits and grads finite, but the squared branch
        # weights of the first net overflow the L2 penalty
        X, y = np.zeros((20, 2)), np.arange(20) % 3
        nets = [init_net(2, 4, 2, 3, seed=k) for k in range(2)]
        nets[0].blocks[0][..., :-1, :] = 1e154
        solos = [copy.deepcopy(net) for net in nets]
        cfgs = [TrainConfig(learning_rate=0.1, weight_decay=1e-4, epochs=2,
                            batch_size=8, seed=k) for k in range(2)]
        with pytest.raises(TrainingDivergedError,
                           match="^epoch 0 batch 0: loss is inf$"):
            train(solos[0], (X, y), cfgs[0])
        got = train(nets, (X, y), cfgs, stochastic=[None, None])
        assert str(got[0]) == "epoch 0 batch 0: loss is inf"
        assert got[1] == train(solos[1], (X, y), cfgs[1])
        for net, solo in zip(nets, solos):
            assert net.values.tobytes() == solo.values.tobytes()


class TestLockstepBoundaries:
    @staticmethod
    def group(**changes):
        X, y = make_blobs(40, seed=60)
        nets = [init_net(2, 4, 1, 3, seed=61 + k) for k in range(2)]
        cfgs = [TrainConfig(learning_rate=0.1, epochs=1, seed=k)
                for k in range(2)]
        args = {"net": nets, "dataset": (X, y), "cfg": cfgs,
                "stochastic": [None, None], **changes}
        return args, [net.values.copy() for net in args["net"]]

    @pytest.mark.parametrize("field", ["cfg", "stochastic"])
    def test_list_lengths_must_match(self, field):
        args, before = self.group()
        args[field] = args[field][:1]
        with pytest.raises(ValueError, match=f"^{field}: needs one entry"):
            train(**args)
        for net, values in zip(args["net"], before):
            assert net.values.tobytes() == values.tobytes()

    def test_nets_must_share_an_arch(self):
        args, _ = self.group()
        args["net"][1] = init_net(2, 5, 1, 3, seed=62)
        with pytest.raises(ValueError,
                           match="^net: width of entry 1 is 5, not 4"):
            train(**args)
        args["net"][1] = args["net"][0]
        with pytest.raises(ValueError, match="^net: .*distinct"):
            train(**args)

    def test_configs_may_differ_only_in_seed(self):
        args, before = self.group()
        args["cfg"][1] = TrainConfig(learning_rate=0.2, epochs=1, seed=1)
        with pytest.raises(ValueError, match="^cfg: learning_rate of entry 1"):
            train(**args)
        for net, values in zip(args["net"], before):
            assert net.values.tobytes() == values.tobytes()


class TestIdentityPathInvariant:
    def test_zeroed_block_equals_net_without_it(self):
        full = init_net(2, 6, 2, 3, seed=21)
        for w in weights(full, 2):
            w[...] = 0.0
        spliced = init_net(2, 6, 1, 3, seed=0)
        for p in spliced.parameters():  # stem.*, block1.* and head.*
            p.value[...] = views(full)[p.id].value
        x = substream(22).normal(size=(5, 2))
        assert np.array_equal(forward(full, x), forward(spliced, x))


class TestCheckpointAndTrace:
    def test_checkpoint_roundtrip(self, tmp_path):
        net = init_net(3, 6, 2, 4, output_mode="sigmoid", seed=8)
        path = tmp_path / "model.json"
        save_checkpoint(net, path, config_echo={"note": "unit"})
        again, config = load_checkpoint(path)
        assert again.values.tobytes() == net.values.tobytes()
        assert again.output_mode == "sigmoid"
        assert config["note"] == "unit"
        assert config["arch"]["n_blocks"] == 2
        # the arch heads the file, the buffer follows it
        assert path.read_text().startswith('{"config": {"arch": {"in_dim": 3')
        assert list(json.loads(path.read_text())) == ["config", "values"]

    @staticmethod
    def _tampered(tmp_path, edit):
        path = tmp_path / "model.json"
        save_checkpoint(init_net(2, 16, 2, 3, seed=8), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    # init_net(2, 16, 2, 3) lays out 3 * 16 + 2 * 2 * 17 * 16 + 17 * 3 values
    @pytest.mark.parametrize("edit,count", [
        (lambda values: values.pop(), 1186),
        (lambda values: values.append(0.5), 1188),
        (lambda values: values.clear(), 0),
    ], ids=["one-too-few", "one-too-many", "empty"])
    def test_values_count_must_match_arch(self, tmp_path, edit, count):
        with pytest.raises(ValueError) as err:
            load_checkpoint(self._tampered(
                tmp_path, lambda payload: edit(payload["values"])))
        assert str(err.value) \
            == f"values: {count} given, the arch lays out 1187"

    @pytest.mark.parametrize("index,bad", [
        (5, [0.5]), (5, "0.5"), (5, True), (5, False), (5, None), (5, {}),
        (None, {"stem.w": [0.0]}), (None, "0.5"), (None, 0.5), (None, None),
    ], ids=["nested-list", "string", "true", "false", "null", "object",
            "whole-object", "whole-string", "whole-number", "whole-null"])
    def test_values_must_be_a_list_of_json_numbers(self, tmp_path, index,
                                                   bad):
        # np.asarray would read "0.5" and true as numbers, and a nested
        # list as a second axis; each entry must be a JSON int or float
        def edit(payload):
            if index is None:
                payload["values"] = bad
            else:
                payload["values"][index] = bad
        with pytest.raises(ValueError) as err:
            load_checkpoint(self._tampered(tmp_path, edit))
        assert str(err.value) == "checkpoint values: not a list of numbers"

    def test_json_ints_load_as_floats(self, tmp_path):
        def edit(payload):
            payload["values"] = [int(v) for v in payload["values"]]
        net, _ = load_checkpoint(self._tampered(tmp_path, edit))
        assert net.values.dtype == np.float64
        assert net.values.tolist() == [float(int(v)) for v in
                                       init_net(2, 16, 2, 3, seed=8).values]

    @pytest.mark.parametrize("edit,message", [
        (lambda payload: payload.pop("values"),
         "checkpoint: missing key 'values'"),
        (lambda payload: payload.pop("config"),
         "checkpoint: missing key 'config'"),
        (lambda payload: payload["config"].pop("arch"),
         "checkpoint config: missing key 'arch'"),
        (lambda payload: payload["config"]["arch"].pop("width"),
         "checkpoint config.arch: missing key 'width'"),
    ], ids=["values", "config", "arch", "arch-width"])
    def test_missing_section_or_key_is_named(self, tmp_path, edit, message):
        with pytest.raises(ValueError) as err:
            load_checkpoint(self._tampered(tmp_path, edit))
        assert str(err.value) == message

    def test_a_checkpoint_of_the_per_parameter_format_is_refused(self,
                                                                 tmp_path):
        # the format before the buffer was stored whole, which no reader
        # loads now
        def edit(payload):
            payload["shapes"] = {"stem.w": [2, 16]}
            payload["data"] = {"stem.w": payload.pop("values")[:32]}
        with pytest.raises(ValueError) as err:
            load_checkpoint(self._tampered(tmp_path, edit))
        assert str(err.value) == "checkpoint: missing key 'values'"

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    @pytest.mark.parametrize("key", ["in_dim", "n_classes"])
    def test_in_dim_and_n_classes_must_be_positive_integers(self, tmp_path,
                                                           key, bad):
        message = f"{key} {bad!r} is not a positive integer"
        arch = {"in_dim": 2, "width": 16, "n_blocks": 2, "n_classes": 3}
        with pytest.raises(ValueError) as err:
            init_net(**{**arch, key: bad})
        assert str(err.value) == message

        def edit(payload):
            payload["config"]["arch"][key] = bad
        with pytest.raises(ValueError) as err:
            load_checkpoint(self._tampered(tmp_path, edit))
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", [float("nan"), float("inf"),
                                       -float("inf"), 10 ** 400],
                             ids=["nan", "inf", "-inf", "int-past-float64"])
    def test_non_finite_value_rejected(self, tmp_path, entry):
        def edit(payload):
            payload["values"][3] = entry
        with pytest.raises(FloatingPointError) as err:
            load_checkpoint(self._tampered(tmp_path, edit))
        assert str(err.value) == "non-finite values in checkpoint values"

    def test_a_deep_arch_is_refused_before_its_buffers_exist(self, tmp_path):
        # 50,000 blocks lay out 27.2 M values, 218 MB a buffer: the count
        # is compared before either buffer is allocated
        def edit(payload):
            payload["config"]["arch"]["n_blocks"] = 50_000
        path = self._tampered(tmp_path, edit)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) \
            == "values: 1187 given, the arch lays out 27200099"
        assert peak < 1 << 20

    @settings(max_examples=30, deadline=None)
    @given(in_dim=st.integers(1, 4), width=st.integers(1, 8),
           n_blocks=st.integers(1, 3), n_classes=st.integers(1, 4),
           output_mode=st.sampled_from(["softmax", "sigmoid"]),
           activation=st.sampled_from(["relu", "identity"]),
           seed=st.integers(0, 2 ** 32))
    def test_roundtrip_gives_identical_logits(self, in_dim, width, n_blocks,
                                              n_classes, output_mode,
                                              activation, seed):
        net = init_net(in_dim, width, n_blocks, n_classes,
                       output_mode=output_mode, activation=activation,
                       seed=seed)
        x = substream(seed, "x").normal(size=(5, in_dim))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_checkpoint(net, path)
            again, _ = load_checkpoint(path)
        assert forward(again, x).tobytes() == forward(net, x).tobytes()

    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_loss_trace([1.5, 0.75, 0.5], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1] == "0,1.5"
        assert len(lines) == 4
