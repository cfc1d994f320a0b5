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

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fields import check_keys, choice, number, parse_json
from .files import atomic_write, write_csv
from .rng import substream, substream_words, words_stream
from .stochastic import (
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

# The most mask streams whose seed words ``train`` holds at once per net,
# 32 bytes each: whole epochs of them, at least one.
MASK_WORDS_BLOCK = 4096

# The deepest net accepted: a block costs tens of microseconds of Python per
# training step, and residual nets with stochastic depth have hundreds.
MAX_BLOCKS = 100_000

# The keys of ``ResidualNet.arch``, which a checkpoint's config echoes.
ARCH_KEYS = ("in_dim", "width", "n_blocks", "n_classes", "output_mode",
             "activation")


class TrainingDivergedError(RuntimeError):
    """Loss became NaN/Inf during training."""


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {context}")
    return arr


class ParamView(NamedTuple):
    """A parameter's stable id and its value and grad views."""

    id: str
    value: np.ndarray
    grad: np.ndarray


@dataclass
class ResidualNet:
    """The architecture and two flat buffers, ``values`` and ``grads``.
    Each holds the affine layers in order (stem, each block's fc1 and fc2,
    head), a layer as its fan_in weight rows, then its bias row.  ``stem``
    [..., in_dim + 1, width], ``blocks`` [..., n_blocks, 2, width + 1,
    width] and ``head`` [..., width + 1, n_classes] are (values, grads)
    view pairs, led by an axis of K nets over [K, P] buffers (``_stack``).
    A float64 ``values`` given to the constructor becomes the buffer."""

    in_dim: int
    width: int
    n_blocks: int
    n_classes: int
    output_mode: str = MODE_SOFTMAX
    activation: str = ACT_RELU
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        number("in_dim", self.in_dim, 1, integer=True)
        number("n_classes", self.n_classes, 1, integer=True)
        check_arch(self.n_blocks, self.width, self.output_mode,
                   self.activation)
        self._bind(self.values)

    def _bind(self, values: np.ndarray | None = None,
              grads: np.ndarray | None = None) -> None:
        """Bind the three views over ``values`` and ``grads``, of shape
        [P], or [K, P] for a stack; zero buffers where not given.  Given
        values must hold the P the arch lays out, checked first."""
        w, n, c = self.width, self.n_blocks, self.n_classes
        shapes = (self.in_dim + 1, w), (n, 2, w + 1, w), (w + 1, c)
        ends = list(accumulate(map(math.prod, shapes)))
        if values is None:
            try:  # an arch too large to hold fails here
                values, grads = np.zeros(ends[-1]), np.zeros(ends[-1])
            except (ValueError, MemoryError) as exc:
                raise MemoryError(f"n_blocks {n} and width {w} give "
                                  f"{ends[-1]} parameters: {exc}") from None
        elif values.shape[-1] != ends[-1]:
            raise ValueError(f"values: {values.shape[-1]} given, the arch "
                             f"lays out {ends[-1]}")
        grads = np.zeros_like(values) if grads is None else grads
        lead = values.shape[:-1]
        self.values, self.grads = values, grads
        self.stem, self.blocks, self.head = (
            tuple(buf[..., lo:hi].reshape(*lead, *shape)
                  for buf in (values, grads))
            for shape, lo, hi in zip(shapes, [0, *ends], ends))

    def __deepcopy__(self, memo):
        twin = ResidualNet(**self.arch())
        twin.values[...], twin.grads[...] = self.values, self.grads
        return twin

    def parameters(self) -> list[ParamView]:
        """Every parameter's id and views in buffer order, built on demand:
        a layer's weight is all its rows but the last, its bias the last."""
        values, grads = self.blocks
        layers = [("stem", *self.stem),
                  *((f"block{l + 1}.fc{j + 1}", values[..., l, j, :, :],
                     grads[..., l, j, :, :])
                    for l, j in product(range(self.n_blocks), (0, 1))),
                  ("head", *self.head)]
        return [ParamView(f"{name}.{kind}", value[..., rows, :],
                          grad[..., rows, :])
                for name, value, grad in layers
                for kind, rows in (("w", slice(-1)), ("b", -1))]

    def arch(self) -> dict:
        return {key: getattr(self, key) for key in ARCH_KEYS}


@dataclass
class TrainConfig:
    learning_rate: float
    weight_decay: float = 0.0
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        number("learning_rate", self.learning_rate, 0, open_lo=True)
        number("weight_decay", self.weight_decay, 0)
        number("epochs", self.epochs, 0, integer=True)
        number("batch_size", self.batch_size, 1, integer=True)
        number("seed", self.seed, integer=True)


def check_arch(n_blocks: int, width: int, output_mode: str = MODE_SOFTMAX,
               activation: str = ACT_RELU) -> dict:
    """Reject an architecture ``init_net`` cannot build, naming the key;
    return it as a dict with every key, defaults filled in."""
    if number("n_blocks", n_blocks, 1, integer=True) > MAX_BLOCKS:
        raise ValueError(f"n_blocks {n_blocks} is over the cap of {MAX_BLOCKS}")
    number("width", width, 1, integer=True)
    choice("output_mode", output_mode, (MODE_SOFTMAX, MODE_SIGMOID))
    choice("activation", activation, (ACT_RELU, ACT_IDENTITY))
    return {"n_blocks": n_blocks, "width": width, "output_mode": output_mode,
            "activation": activation}


def init_net(in_dim: int, width: int, n_blocks: int, n_classes: int,
             output_mode: str = MODE_SOFTMAX, activation: str = ACT_RELU,
             seed: int = 0) -> ResidualNet:
    """He-style scaled Gaussian weights, each drawn from the (seed, "init",
    layer name) substream, and zero biases."""
    net = ResidualNet(in_dim, width, n_blocks, n_classes, output_mode,
                      activation)
    gain = 2.0 if activation == ACT_RELU else 1.0
    for p in net.parameters():
        if p.id.endswith(".w"):
            p.value[...] = substream(seed, "init", p.id[:-2]).normal(
                0.0, np.sqrt(gain / p.value.shape[0]), size=p.value.shape)
    return net


def check_blocks(net: ResidualNet, blocks) -> None:
    """Reject a mask's 1-based block index outside ``net``."""
    for l in sorted(blocks):
        if not 1 <= l <= net.n_blocks:
            raise ShapeMismatchError(
                f"mask refers to block {l} outside [1..{net.n_blocks}]",
                block_index=l)


def check_input(net: ResidualNet, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ShapeMismatchError(
            f"stem expects input width {net.in_dim}, got shape {x.shape}")
    return x


def _block_mults(net: ResidualNet, masks: MaskSample | None,
                 batch: int) -> list:
    """Each block's ``[unit_mult, row_mult]`` under ``masks``, None where
    nothing multiplies."""
    check_blocks(net, () if masks is None else masks.blocks)
    mults = [[None, None] for _ in range(net.n_blocks)]
    for j, mult in enumerate(() if masks is None else
                             multipliers(masks, net.width, batch)):
        for l, row in zip(masks.blocks, () if mult is None else mult):
            mults[l - 1][j] = row
    return mults


def _forward_cached(net: ResidualNet, x: np.ndarray, mults: list,
                    start: tuple | None = None, stop: bool = False,
                    cache: dict | None = None):
    """Logits of one net (x [B, in]) or of K stacked nets (x [K, B, in])
    under each block's multipliers; a ``cache``, passed only by training,
    keeps what the backward pass reads.  With ``stop`` it returns instead
    the state before the first multiplier, ``(l, h, part)``: block l
    (0-based; n_blocks at the head), its input h, and its activation if a
    unit multiplier follows, else its branch; ``start`` resumes a pass
    from that state."""
    # Each array is computed in place once allocated, and never written
    # after it enters the cache, whose arrays the backward pass reads; nor
    # is a start state's ``part``, which many passes share.
    # ``branch * row_mult + h`` rounds as ``h + row_mult * branch`` does:
    # IEEE addition and multiplication are commutative.
    blocks = net.blocks[0]
    first, h, part = start or (0, None, None)
    if h is None:
        h = _affine(x, net.stem[0])
    for l in range(first, net.n_blocks):
        unit_mult, row_mult = mults[l]
        hidden, branch = (None, part) if unit_mult is None else (part, None)
        if part is None:
            hidden = _affine(h, blocks[..., l, 0, :, :])
            if net.activation == ACT_RELU:
                np.maximum(hidden, 0.0, out=hidden)
        if unit_mult is not None:
            if stop:
                return l, h, hidden
            hidden = np.multiply(hidden, unit_mult,
                                 out=None if hidden is part else hidden)
        if branch is None:
            branch = _affine(hidden, blocks[..., l, 1, :, :])
        if row_mult is not None:
            if stop:
                return l, h, branch
            branch = np.multiply(branch, row_mult,
                                 out=None if branch is part else branch)
        branch += h
        if cache is not None:
            cache["blocks"].append({"in": h, "hidden": hidden, "unit_mult":
                                    unit_mult, "row_mult": row_mult})
        h, part = branch, None
    if stop:
        return net.n_blocks, h, None
    logits = _affine(h, net.head[0])
    if cache is not None:
        cache["head_in"] = h
    return logits


def _affine(x: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """``x`` times ``layer``'s weight rows, plus its bias row."""
    out = x @ layer[..., :-1, :]
    out += layer[..., -1:, :]
    return out


def _affine_grads(x: np.ndarray, dout: np.ndarray, grad: np.ndarray) -> None:
    """Write ``_affine(x, layer)``'s gradient, given ``dout``, to ``grad``."""
    np.matmul(x.swapaxes(-1, -2), dout, out=grad[..., :-1, :])
    dout.sum(axis=-2, out=grad[..., -1, :])


def forward(net: ResidualNet, x: np.ndarray,
            masks: MaskSample | None = None,
            prefix: tuple | None = None) -> np.ndarray:
    """Compute logits of shape [batch, n_classes].

    With ``masks`` the corresponding stochastic mechanism is applied to each
    adapted block; without, the pass is fully deterministic.  A ``prefix``
    from ``forward_prefix`` starts the pass where it ends.
    """
    x = check_input(net, x)
    mults = _block_mults(net, masks, len(x))
    logits = _forward_cached(net, x, mults, prefix)
    return check_finite(logits, "logits")


def forward_prefix(net: ResidualNet, x: np.ndarray, masks: MaskSample):
    """``forward``'s ``prefix``: a pass under ``masks`` up to its first
    multiplier, alike for every pass on ``x`` under masks like these."""
    x = check_input(net, x)
    return _forward_cached(net, x, _block_mults(net, masks, len(x)),
                           stop=True)


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, for any shape, into ``out`` (which may
    be ``logits``) or a new array.  The row max is taken column by column,
    which is exact and, for a few classes, far faster than ``max`` over a
    short last axis; the row sums keep ``sum``'s rounding."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.subtract(logits, _row_max(logits), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, taken column by column."""
    top = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(top, a[..., j], out=top)
    return top[..., None]


def sigmoid(logits: np.ndarray, out=None) -> np.ndarray:
    """Per-entry sigmoid into ``out``, which may be ``logits``."""
    out = np.empty_like(logits) if out is None else out
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def l2_penalty(net: ResidualNet) -> float:
    """Sum of squared residual-branch weight matrices (biases, stem and
    head excluded; the penalty regularizes the branch weights only), one
    per cell of a stack."""
    sums = np.square(net.blocks[0][..., :-1, :]).sum(axis=(-2, -1))
    return sum(sums[..., l, 0] + sums[..., l, 1] for l in range(net.n_blocks))


def _check_targets(targets, rows: int, n_classes: int,
                   output_mode: str) -> np.ndarray:
    """``targets`` as an array, once they fit ``rows`` rows of logits."""
    if rows == 0:
        raise ValueError("empty batch")
    if output_mode == MODE_SOFTMAX:
        y = np.asarray(targets)
        if y.ndim != 1 or y.shape[0] != rows:
            raise ShapeMismatchError("softmax targets must be one label per row")
        if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= n_classes:
            raise ValueError(f"labels must be integers in [0, {n_classes})")
        return y
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (rows, n_classes):
        raise ShapeMismatchError("sigmoid targets must match logits shape")
    if not ((y >= 0) & (y <= 1)).all():  # NaN fails too
        raise ValueError("sigmoid targets must be in [0, 1]")
    return y


def _task_loss(logits: np.ndarray, y: np.ndarray, output_mode: str):
    """The mean task loss (one per cell of a stack) and its gradient with
    respect to the logits."""
    batch, n_classes = logits.shape[-2:]
    if output_mode == MODE_SOFTMAX:
        z = logits - _row_max(logits)
        e = np.exp(z)
        total = e.sum(axis=-1, keepdims=True)
        # each row's label entry, picked over the rows of every cell
        pick = np.arange(y.size), y.ravel()
        logp = (z - np.log(total)).reshape(-1, n_classes)
        value = -logp[pick].reshape(y.shape).mean(axis=-1)
        dlogits = e / total  # the softmax probabilities
        dlogits.reshape(-1, n_classes)[pick] -= 1.0
        dlogits /= batch
        return value, dlogits
    # per-element stable BCE, summed over classes, mean over batch
    z = logits
    bce = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return bce.sum(axis=-1).mean(axis=-1), (sigmoid(logits) - y) / batch


def loss(logits: np.ndarray, targets, net: ResidualNet,
         weight_decay: float) -> float:
    """Task loss (cross-entropy or summed binary cross-entropy, mean over
    the batch) plus weight_decay times the branch-weight L2 penalty."""
    y = _check_targets(targets, *logits.shape, net.output_mode)
    return _task_loss(logits, y, net.output_mode)[0] \
        + weight_decay * l2_penalty(net)


def _loss_and_grads(net: ResidualNet, x: np.ndarray, y: np.ndarray,
                    weight_decay: float, mults: list):
    """Write the loss gradient into ``net.grads`` and return the loss and
    the logits, of one net or, one per cell, of a stack.  Non-finite values
    are left for the caller to find."""
    cache = {"x": x, "blocks": []}
    logits = _forward_cached(net, x, mults, cache=cache)
    value, dlogits = _task_loss(logits, y, net.output_mode)
    total = value + weight_decay * l2_penalty(net)

    (blocks, block_grads), (head, head_grad) = net.blocks, net.head
    _affine_grads(cache["head_in"], dlogits, head_grad)
    g = dlogits @ head[..., :-1, :].swapaxes(-1, -2)

    for l in reversed(range(net.n_blocks)):
        c = cache["blocks"][l]
        dbranch = g if c["row_mult"] is None else g * c["row_mult"]
        _affine_grads(c["hidden"], dbranch, block_grads[..., l, 1, :, :])
        dpre = dbranch @ blocks[..., l, 1, :-1, :].swapaxes(-1, -2)
        if c["unit_mult"] is not None:
            dpre *= c["unit_mult"]
        if net.activation == ACT_RELU:
            # A kept unit's multiplier is at least 1 (1/keep or width/kept),
            # so there hidden > 0 exactly where the pre-activation is; a
            # dropped unit's gradient is already a signed zero (or NaN),
            # which times 0.0 or 1.0 leaves unchanged.
            dpre *= c["hidden"] > 0.0
        _affine_grads(c["in"], dpre, block_grads[..., l, 0, :, :])
        g = g + dpre @ blocks[..., l, 0, :-1, :].swapaxes(-1, -2)

    _affine_grads(cache["x"], g, net.stem[1])

    if weight_decay != 0.0:
        block_grads[..., :-1, :] += 2.0 * weight_decay * blocks[..., :-1, :]
    return total, logits


def _step_error(net: ResidualNet, logits: np.ndarray, total) -> str | None:
    """The first non-finite result of one net's step, in the order it was
    computed (its logits, each parameter's grad, its loss), or None."""
    if not np.isfinite(logits).all():
        return "non-finite values in logits"
    if not np.isfinite(net.grads).all():
        return next(f"non-finite values in grad of {p.id}"
                    for p in net.parameters() if not np.isfinite(p.grad).all())
    return None if np.isfinite(total) else f"loss is {total}"


def backward(net: ResidualNet, x: np.ndarray, targets, weight_decay: float,
             masks: MaskSample | None = None) -> dict[str, np.ndarray]:
    """Fill every parameter's grad with d(loss)/d(value) and return those
    views keyed by parameter id.  Deterministic given masks and inputs."""
    y = _check_targets(targets, len(x), net.n_classes, net.output_mode)
    x = check_input(net, x)
    mults = _block_mults(net, masks, len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        total, logits = _loss_and_grads(net, x, y, weight_decay, mults)
    if error := _step_error(net, logits, total):
        raise FloatingPointError(error)
    return {p.id: p.grad for p in net.parameters()}


def sgd_step(net: ResidualNet, lr: float) -> None:
    """In-place update value <- value - lr * grad for every parameter."""
    net.values -= lr * net.grads


def _stack(nets: list[ResidualNet]) -> ResidualNet:
    """A net over [K, P] buffers whose row k holds ``nets[k]``'s values and
    grads, each net's views rebound to its row; one net keeps its own."""
    stack = ResidualNet(**nets[0].arch())
    if len(nets) == 1:
        stack._bind(nets[0].values[None], nets[0].grads[None])
        return stack
    stack._bind(np.stack([net.values for net in nets]),
                np.stack([net.grads for net in nets]))
    for net, values, grads in zip(nets, stack.values, stack.grads):
        net._bind(values, grads)
    return stack


def _check_group(nets: list, cfgs, specs) -> None:
    """Reject a lockstep group, naming the field: repeated nets, lists of
    unequal lengths, nets of unequal arch, configs unequal but for seed."""
    if not nets or len({id(n) for n in nets}) < len(nets):
        raise ValueError("net: needs a list of distinct nets")
    for name, entries in (("cfg", cfgs), ("stochastic", specs)):
        if not isinstance(entries, (list, tuple)) or len(entries) != len(nets):
            raise ValueError(f"{name}: needs one entry per net ({len(nets)})")
    for name, items in (("net", [n.arch() for n in nets]),
                        ("cfg", [{**vars(c), "seed": 0} for c in cfgs])):
        for k, key in product(range(len(nets)), items[0]):
            if items[k][key] != items[0][key]:
                raise ValueError(f"{name}: {key} of entry {k} is "
                                 f"{items[k][key]!r}, not {items[0][key]!r}")


def train(net: ResidualNet | list, dataset: tuple[np.ndarray, np.ndarray],
          cfg: TrainConfig | list,
          stochastic: StochasticSpec | None | list = None) -> list:
    """Minibatch SGD on the task loss plus L2 penalty.

    When ``stochastic`` is given, a fresh mask is sampled per minibatch from
    the (cfg.seed, "mask", epoch, batch) substream, so runs with identical
    seeds and configs are bit-identical.  Returns the per-epoch mean loss.

    Given a list of nets of one arch, and parallel lists of configs (equal
    but for seed) and specs, the nets train in lockstep on one stack of
    their weights, each bit for bit as alone; their buffers become its
    rows.  Per net, the result is its trace or the exception that stopped
    it alone.
    """
    if isinstance(net, ResidualNet):
        (result,) = train([net], dataset, [cfg], [stochastic])
        if isinstance(result, Exception):
            raise result
        return result
    nets, cfgs, specs = list(net), cfg, stochastic
    _check_group(nets, cfgs, specs)
    cfg, arch = cfgs[0], nets[0]
    X = check_input(arch, dataset[0])
    n = X.shape[0]
    y = _check_targets(dataset[1], n, arch.n_classes, arch.output_mode)
    slots = [None if s is None else np.array(sorted(s.adapted_blocks),
                                             dtype=int) - 1 for s in specs]
    results: list = [[] for _ in nets]
    live, stack, stacks = list(range(len(nets))), _stack(nets), {}
    batches = range(0, n, cfg.batch_size)
    span = max(1, MASK_WORDS_BLOCK // len(batches))  # epochs of mask words
    # divergence is detected explicitly below, so silence the transient
    # overflow warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if epoch % span == 0:
                grid = range(epoch, min(epoch + span, cfg.epochs)), \
                    range(len(batches))
                words = {k: substream_words(cfgs[k].seed, "mask", grid=grid)
                         for k in live if specs[k] is not None}
            orders = np.stack([substream(cfgs[k].seed, "shuffle",
                                         epoch).permutation(n) for k in live])
            losses = {k: [] for k in live}
            for bi, start in enumerate(batches):
                idx = orders[:, start:start + cfg.batch_size]
                rows = idx.shape[1]
                if rows not in stacks:
                    # one stack pair per live set and batch height; a net
                    # writes only the blocks it adapts, and elsewhere
                    # multiplies by an exact 1.0: x * 1.0 is x, bit for bit
                    units = np.ones((arch.n_blocks, len(live), arch.width))
                    row_mults = np.ones((arch.n_blocks, len(live), rows, 1))
                    stacks[rows] = (units, row_mults,
                                    list(zip(units[:, :, None], row_mults)))
                units, row_mults, mults = stacks[rows]
                failed = {}
                for i, k in enumerate(live):
                    if specs[k] is None:
                        continue
                    try:
                        masks = sample_mask(
                            specs[k], arch.width, rows,
                            words_stream(words[k][epoch % span, bi]))
                        if epoch == bi == 0:  # once, after the draw
                            check_blocks(arch, masks.blocks)
                        # a net's multipliers for all its blocks, one write
                        for buf, mult in zip((units, row_mults), multipliers(
                                masks, arch.width, rows)):
                            if mult is not None:
                                buf[slots[k], i] = mult
                    except Exception as exc:  # this net's step is discarded
                        failed[k] = exc
                total, logits = _loss_and_grads(
                    stack, X[idx], y[idx], cfg.weight_decay, mults)
                finite = (np.isfinite(logits).all(axis=(-2, -1))
                          & np.isfinite(stack.grads).all(axis=-1)
                          & np.isfinite(total)).tolist()
                for i, (k, value) in enumerate(zip(live, total.tolist())):
                    if k not in failed and not finite[i]:
                        failed[k] = TrainingDivergedError(
                            f"epoch {epoch} batch {bi}: "
                            f"{_step_error(nets[k], logits[i], value)}")
                    elif k not in failed:
                        sgd_step(nets[k], cfg.learning_rate)
                        losses[k].append(value)
                if failed:  # restack the nets still training
                    results = [failed.get(k, r) for k, r in enumerate(results)]
                    orders = orders[[k not in failed for k in live]]
                    live = [k for k in live if k not in failed]
                    if not live:
                        return results
                    stack, stacks = _stack([nets[k] for k in live]), {}
            for k in live:
                results[k].append(float(np.mean(losses[k])))
    return results


def save_checkpoint(net: ResidualNet, path: str | Path,
                    config_echo: dict | None = None) -> None:
    """Self-describing checkpoint: the config echo, its arch first, then
    the net's ``values`` buffer as a list."""
    payload = {"config": {"arch": net.arch(), **(config_echo or {})},
               "values": net.values.tolist()}
    atomic_write(path, lambda tmp: tmp.write_text(json.dumps(payload)))


def load_checkpoint(path: str | Path) -> tuple[ResidualNet, dict]:
    """Rebuild a net from ``save_checkpoint`` output.

    Both sections and every arch key must be present, and ``values`` must
    be a list of finite numbers (JSON ints or floats), as many as ``arch``
    lays out, which is checked before the net's buffers are allocated.
    Errors name the offending section, key or ``values``.
    """
    payload = parse_json(f"checkpoint {path}", Path(path).read_bytes())
    check_keys("checkpoint", payload, required=("config", "values"))
    check_keys("checkpoint config", payload["config"], required=("arch",))
    arch, values = payload["config"]["arch"], payload["values"]
    check_keys("checkpoint config.arch", arch, ARCH_KEYS, ARCH_KEYS)
    if not (isinstance(values, list)
            and all(type(v) in (int, float) for v in values)):
        raise ValueError("checkpoint values: not a list of numbers")
    try:
        values = np.array(values, dtype=np.float64)
    except OverflowError:  # an int past float64's range
        raise FloatingPointError("non-finite values in checkpoint values") \
            from None
    net = ResidualNet(**arch, values=check_finite(values, "checkpoint values"))
    return net, payload["config"]


def save_loss_trace(trace: list[float], path: str | Path) -> None:
    write_csv(path, ["epoch", "mean_loss"],
              ([epoch, repr(float(value))]
               for epoch, value in enumerate(trace)))
