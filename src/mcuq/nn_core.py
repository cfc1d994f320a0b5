"""Dense residual network substrate: parameters, forward, gradients, SGD.

The architecture is a residual MLP: an affine stem, L residual blocks whose
branch is affine-activation-affine added to an identity shortcut, and an
affine head that emits C logits (softmax or per-class sigmoid).  Everything
is float64 numpy, with hand-derived reverse-mode gradients small enough to
audit and to check against central finite differences.

Arrays are C-order float64 throughout; any NaN/Inf produced by an operation
here is treated as an error state, not a value.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .rng import substream
from .stochastic import (
    MODE_TRAINING,
    MaskSample,
    ShapeMismatchError,
    StochasticSpec,
    multipliers,
    sample_mask,
)

ACT_RELU = "relu"
ACT_IDENTITY = "identity"

MODE_SOFTMAX = "softmax"
MODE_SIGMOID = "sigmoid"


class TrainingDivergedError(RuntimeError):
    """Loss became NaN/Inf during training."""


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {context}")
    return arr


@dataclass
class Parameter:
    """A learnable array with its gradient buffer and a stable id."""

    value: np.ndarray
    grad: np.ndarray
    id: str

    @classmethod
    def new(cls, id: str, value: np.ndarray) -> "Parameter":
        value = np.asarray(value, dtype=np.float64)
        return cls(value=value, grad=np.zeros_like(value), id=id)


@dataclass
class ResidualBlock:
    """One residual stage: branch(x) = act(x @ w1 + b1) @ w2 + b2,
    output = x + branch(x).  ``index`` is the 1-based position."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    index: int

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class ResidualNet:
    """Every parameter's value and grad is a reshape view into the flat
    buffers ``values`` and ``grads``, in ``parameters()`` order."""

    stem_w: Parameter
    stem_b: Parameter
    blocks: list[ResidualBlock]
    head_w: Parameter
    head_b: Parameter
    output_mode: str = MODE_SOFTMAX
    activation: str = ACT_RELU

    def __post_init__(self):
        params = self.parameters()
        self.values = np.concatenate([p.value.ravel() for p in params])
        self.grads = np.concatenate([p.grad.ravel() for p in params])
        ends = np.cumsum([p.value.size for p in params])[:-1]
        for p, value, grad in zip(params, np.split(self.values, ends),
                                  np.split(self.grads, ends)):
            p.value = value.reshape(p.value.shape)
            p.grad = grad.reshape(p.value.shape)

    def __deepcopy__(self, memo):
        # a field-by-field copy would give every view its own array, cut
        # off from the buffers sgd_step updates; __init__ repacks the copies
        return ResidualNet(*(copy.deepcopy(getattr(self, f.name), memo)
                             for f in fields(self)))

    @property
    def in_dim(self) -> int:
        return self.stem_w.value.shape[0]

    @property
    def width(self) -> int:
        return self.stem_w.value.shape[1]

    @property
    def n_classes(self) -> int:
        return self.head_w.value.shape[1]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def parameters(self) -> list[Parameter]:
        params = [self.stem_w, self.stem_b]
        for blk in self.blocks:
            params.extend(blk.parameters())
        params.extend([self.head_w, self.head_b])
        return params

    def arch(self) -> dict:
        return {"in_dim": self.in_dim, "width": self.width,
                "n_blocks": self.n_blocks, "n_classes": self.n_classes,
                "output_mode": self.output_mode, "activation": self.activation}


@dataclass
class TrainConfig:
    learning_rate: float
    weight_decay: float = 0.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        integers = (int, np.integer)
        numbers = (int, float, np.integer, np.floating)
        for name, kinds, ok, rule in (
                ("learning_rate", numbers, lambda v: v > 0,
                 "a positive number"),
                ("weight_decay", numbers, lambda v: v >= 0,
                 "a non-negative number"),
                ("epochs", integers, lambda v: v >= 0,
                 "a non-negative integer"),
                ("batch_size", integers, lambda v: v >= 1,
                 "a positive integer")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kinds)
                    or not ok(value)):
                raise ValueError(f"{name} {value!r} is not {rule}")


def check_arch(n_blocks: int, width: int, output_mode: str = MODE_SOFTMAX,
               activation: str = ACT_RELU) -> None:
    """Reject an architecture ``init_net`` cannot build, naming the key."""
    for key, value in (("n_blocks", n_blocks), ("width", width)):
        if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                or value < 1):
            raise ValueError(f"{key} {value!r} is not a positive integer")
    for key, value, choices in (
            ("output_mode", output_mode, (MODE_SOFTMAX, MODE_SIGMOID)),
            ("activation", activation, (ACT_RELU, ACT_IDENTITY))):
        if value not in choices:
            raise ValueError(f"{key} {value!r} is not one of {choices}")


def init_net(in_dim: int, width: int, n_blocks: int, n_classes: int,
             output_mode: str = MODE_SOFTMAX, activation: str = ACT_RELU,
             seed: int = 0) -> ResidualNet:
    """He-style scaled Gaussian weights, zero biases, all drawn from the
    (seed, "init", parameter-name) substreams."""
    check_arch(n_blocks, width, output_mode, activation)

    def affine(name: str, fan_in: int, fan_out: int) -> tuple[Parameter, Parameter]:
        gain = 2.0 if activation == ACT_RELU else 1.0
        w = substream(seed, "init", name).normal(
            0.0, np.sqrt(gain / fan_in), size=(fan_in, fan_out))
        return (Parameter.new(f"{name}.w", w),
                Parameter.new(f"{name}.b", np.zeros(fan_out)))

    stem_w, stem_b = affine("stem", in_dim, width)
    blocks = []
    for l in range(1, n_blocks + 1):
        w1, b1 = affine(f"block{l}.fc1", width, width)
        w2, b2 = affine(f"block{l}.fc2", width, width)
        blocks.append(ResidualBlock(w1=w1, b1=b1, w2=w2, b2=b2, index=l))
    head_w, head_b = affine("head", width, n_classes)
    return ResidualNet(stem_w=stem_w, stem_b=stem_b, blocks=blocks,
                       head_w=head_w, head_b=head_b,
                       output_mode=output_mode, activation=activation)


def _activate(net: ResidualNet, pre: np.ndarray) -> np.ndarray:
    if net.activation == ACT_RELU:
        return np.maximum(pre, 0.0)
    return pre


def _activate_grad(net: ResidualNet, pre: np.ndarray) -> np.ndarray:
    if net.activation == ACT_RELU:
        return (pre > 0.0).astype(np.float64)
    return np.ones_like(pre)


def _forward_cached(net: ResidualNet, x: np.ndarray,
                    masks: MaskSample | None = None,
                    scale_spec: StochasticSpec | None = None):
    """Forward pass keeping every intermediate needed by the backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ShapeMismatchError(
            f"stem expects input width {net.in_dim}, got shape {x.shape}")
    if masks is not None:
        for l in masks.per_block:
            if not 1 <= l <= net.n_blocks:
                raise ShapeMismatchError(
                    f"mask refers to block {l} outside [1..{net.n_blocks}]",
                    block_index=l)

    cache = {"x": x, "blocks": []}
    h = x @ net.stem_w.value + net.stem_b.value
    for blk in net.blocks:
        unit_mult = row_mult = None
        if masks is not None:
            unit_mult, row_mult = multipliers(masks, blk.index, net.width,
                                              x.shape[0])
        if row_mult is None and scale_spec is not None \
                and blk.index in scale_spec.adapted_blocks:
            row_mult = scale_spec.keep_prob  # deterministic scaled rule
        pre = h @ blk.w1.value + blk.b1.value
        act = _activate(net, pre)
        hidden = act if unit_mult is None else act * unit_mult
        branch = hidden @ blk.w2.value + blk.b2.value
        out = h + branch if row_mult is None else h + row_mult * branch
        cache["blocks"].append({"in": h, "pre": pre, "hidden": hidden,
                                "unit_mult": unit_mult, "row_mult": row_mult})
        h = out
    logits = h @ net.head_w.value + net.head_b.value
    cache["head_in"] = h
    check_finite(logits, "logits")
    return logits, cache


def forward(net: ResidualNet, x: np.ndarray,
            masks: MaskSample | None = None,
            scale_spec: StochasticSpec | None = None) -> np.ndarray:
    """Compute logits of shape [batch, n_classes].

    With ``masks`` the corresponding stochastic mechanism is applied to each
    adapted block; with neither argument the pass is fully deterministic.
    ``scale_spec`` applies the deterministic scaled rule for path drop.
    """
    logits, _ = _forward_cached(net, x, masks=masks, scale_spec=scale_spec)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def l2_penalty(net: ResidualNet) -> float:
    """Sum of squared residual-branch weight matrices (biases, stem and
    head excluded; the penalty regularizes the branch weights only)."""
    return float(sum(np.sum(b.w1.value ** 2) + np.sum(b.w2.value ** 2)
                     for b in net.blocks))


def _task_loss(logits: np.ndarray, targets,
               output_mode: str) -> tuple[float, np.ndarray]:
    """The mean task loss and its gradient with respect to the logits."""
    batch = logits.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    if output_mode == MODE_SOFTMAX:
        y = np.asarray(targets)
        if y.ndim != 1 or y.shape[0] != batch:
            raise ShapeMismatchError("softmax targets must be one label per row")
        if y.min() < 0 or y.max() >= logits.shape[1]:
            raise ValueError("class index out of range")
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        total = e.sum(axis=1, keepdims=True)
        value = float(-(z - np.log(total))[np.arange(batch), y].mean())
        dlogits = e / total  # the softmax probabilities
        dlogits[np.arange(batch), y] -= 1.0
        dlogits /= batch
        return value, dlogits
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeMismatchError("sigmoid targets must match logits shape")
    if ((y < 0) | (y > 1)).any():
        raise ValueError("sigmoid targets must be in [0, 1]")
    # per-element stable BCE, summed over classes, mean over batch
    z = logits
    bce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(bce.sum(axis=1).mean()), (sigmoid(logits) - y) / batch


def loss(logits: np.ndarray, targets, net: ResidualNet,
         weight_decay: float) -> float:
    """Task loss (cross-entropy or summed binary cross-entropy, mean over
    the batch) plus weight_decay times the branch-weight L2 penalty."""
    return _task_loss(logits, targets, net.output_mode)[0] \
        + weight_decay * l2_penalty(net)


def _loss_and_grads(net: ResidualNet, x: np.ndarray, targets,
                    weight_decay: float,
                    masks: MaskSample | None = None) -> float:
    """Return the loss and write its gradient into ``net.grads``."""
    logits, cache = _forward_cached(net, x, masks=masks)
    value, dlogits = _task_loss(logits, targets, net.output_mode)
    total = value + weight_decay * l2_penalty(net)

    h = cache["head_in"]
    np.matmul(h.T, dlogits, out=net.head_w.grad)
    dlogits.sum(axis=0, out=net.head_b.grad)
    g = dlogits @ net.head_w.value.T

    for blk, c in zip(reversed(net.blocks), reversed(cache["blocks"])):
        dbranch = g if c["row_mult"] is None else g * c["row_mult"]
        np.matmul(c["hidden"].T, dbranch, out=blk.w2.grad)
        dbranch.sum(axis=0, out=blk.b2.grad)
        dhidden = dbranch @ blk.w2.value.T
        dact = dhidden * c["unit_mult"] if c["unit_mult"] is not None else dhidden
        dpre = dact * _activate_grad(net, c["pre"])
        np.matmul(c["in"].T, dpre, out=blk.w1.grad)
        dpre.sum(axis=0, out=blk.b1.grad)
        g = g + dpre @ blk.w1.value.T

    np.matmul(cache["x"].T, g, out=net.stem_w.grad)
    g.sum(axis=0, out=net.stem_b.grad)

    if weight_decay != 0.0:
        for blk in net.blocks:
            blk.w1.grad += 2.0 * weight_decay * blk.w1.value
            blk.w2.grad += 2.0 * weight_decay * blk.w2.value

    if not np.isfinite(net.grads).all():  # name the first bad parameter
        for p in net.parameters():
            check_finite(p.grad, f"grad of {p.id}")
    return total


def backward(net: ResidualNet, x: np.ndarray, targets, weight_decay: float,
             masks: MaskSample | None = None) -> dict[str, np.ndarray]:
    """Fill every Parameter.grad with d(loss)/d(value) and return those views
    keyed by parameter id.  Deterministic given masks and inputs."""
    _loss_and_grads(net, x, targets, weight_decay, masks=masks)
    return {p.id: p.grad for p in net.parameters()}


def sgd_step(net: ResidualNet, lr: float) -> None:
    """In-place update value <- value - lr * grad for every parameter."""
    net.values -= lr * net.grads


def train(net: ResidualNet, dataset: tuple[np.ndarray, np.ndarray],
          cfg: TrainConfig,
          stochastic: StochasticSpec | None = None) -> list[float]:
    """Minibatch SGD on the task loss plus L2 penalty.

    When ``stochastic`` is given, a fresh mask is sampled per minibatch from
    the (cfg.seed, "mask", epoch, batch) substream, so runs with identical
    seeds and configs are bit-identical.  Returns the per-epoch mean loss.
    """
    X, y = dataset
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    spec = stochastic.with_mode(MODE_TRAINING) if stochastic is not None else None
    trace: list[float] = []
    # divergence is detected explicitly below, so silence the transient
    # overflow warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = substream(cfg.seed, "shuffle", epoch).permutation(n)
            batch_losses = []
            for bi, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                xb, yb = X[idx], y[idx]
                masks = None
                if spec is not None:
                    rng = substream(cfg.seed, "mask", epoch, bi)
                    masks = sample_mask(spec, net.width, xb.shape[0], rng)
                try:
                    value = _loss_and_grads(net, xb, yb, cfg.weight_decay,
                                            masks=masks)
                except FloatingPointError as exc:
                    raise TrainingDivergedError(
                        f"epoch {epoch} batch {bi}: {exc}") from exc
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"epoch {epoch} batch {bi}: loss is {value}")
                sgd_step(net, cfg.learning_rate)
                batch_losses.append(value)
            trace.append(float(np.mean(batch_losses)))
    return trace


def save_checkpoint(net: ResidualNet, path: str | Path,
                    config_echo: dict | None = None) -> None:
    """Self-describing checkpoint: shapes first, then row-major parameter
    data, then the config echo."""
    payload = {
        "shapes": {p.id: list(p.value.shape) for p in net.parameters()},
        "data": {p.id: p.value.ravel(order="C").tolist()
                 for p in net.parameters()},
        "config": {"arch": net.arch(), **(config_echo or {})},
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> tuple[ResidualNet, dict]:
    """Rebuild a net from ``save_checkpoint`` output.

    The stored parameter ids must equal the net's, and each stored shape
    and data length must equal the shape ``arch`` implies; every value must
    be finite.  Errors name the offending parameter id.
    """
    payload = json.loads(Path(path).read_text())
    arch = payload["config"]["arch"]
    net = init_net(in_dim=arch["in_dim"], width=arch["width"],
                   n_blocks=arch["n_blocks"], n_classes=arch["n_classes"],
                   output_mode=arch["output_mode"],
                   activation=arch["activation"], seed=0)
    ids = {p.id for p in net.parameters()}
    for section in ("shapes", "data"):
        if set(payload[section]) != ids:
            raise ValueError(
                f"checkpoint {section}: unknown parameters "
                f"{sorted(set(payload[section]) - ids)}, missing "
                f"{sorted(ids - set(payload[section]))}")
    for p in net.parameters():
        shape = tuple(payload["shapes"][p.id])
        flat = np.asarray(payload["data"][p.id], dtype=np.float64)
        if shape != p.value.shape or flat.shape != (p.value.size,):
            raise ShapeMismatchError(
                f"checkpoint parameter {p.id}: stored shape {list(shape)} "
                f"with {flat.size} values, arch implies {list(p.value.shape)}")
        check_finite(flat, f"checkpoint parameter {p.id}")
        p.value[...] = flat.reshape(shape)
    return net, payload["config"]


def save_loss_trace(trace: list[float], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(trace):
            w.writerow([epoch, repr(float(value))])
