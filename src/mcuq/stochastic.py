"""Bernoulli mask mechanisms: unit drop, block drop, and residual path drop.

Three ways of randomly perturbing a residual network, each usable while
training and while sampling predictions:

* ``unit-drop``   -- classic inverted dropout on individual hidden units.
* ``block-drop``  -- structured dropout zeroing contiguous spans of the
  hidden vector, with count-based rescaling of the survivors.
* ``path-drop``   -- stochastic depth: the whole residual branch of a block
  is kept or dropped per sample, and kept branches are divided by the
  survival probability so each block is an unbiased estimator of its
  deterministic counterpart.

``sample_mask`` draws the {0,1} masks; ``multipliers`` turns them into the
rescaled factors that the network's forward and backward passes both use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import choice, number

KIND_UNIT = "unit-drop"
KIND_BLOCK = "block-drop"
KIND_PATH = "path-drop"
KINDS = (KIND_UNIT, KIND_BLOCK, KIND_PATH)

MODE_TRAINING = "training"
MODE_MC = "mc-inference"

_MAX_REDRAWS = 100


class ShapeMismatchError(ValueError):
    """Incompatible array shapes; carries the offending block index
    (None when the mismatch is at the stem or head)."""

    def __init__(self, message: str, block_index: int | None = None):
        super().__init__(message)
        self.block_index = block_index


@dataclass
class StochasticSpec:
    """Which mechanism to apply, at what rate, and to which blocks.

    ``adapted_blocks`` holds 1-based block indices.  ``drop_rate`` is the
    per-unit / per-span / per-path drop probability; the keep (survival)
    probability is ``1 - drop_rate``.  ``mode`` is a label for checkpoints.
    """

    kind: str
    drop_rate: float
    adapted_blocks: frozenset[int] = field(default_factory=frozenset)
    block_size: int = 1
    mode: str = MODE_TRAINING

    def __post_init__(self):
        choice("kind", self.kind, KINDS)
        choice("mode", self.mode, (MODE_TRAINING, MODE_MC))
        number("drop_rate", self.drop_rate, 0, 1, open_hi=True)
        number("block_size", self.block_size, 1, integer=True)
        self.adapted_blocks = frozenset(
            int(number("adapted_blocks", b, 1, integer=True))
            for b in self.adapted_blocks)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "drop_rate": self.drop_rate,
            "block_size": self.block_size,
            "adapted_blocks": sorted(self.adapted_blocks),
            "mode": self.mode,
        }


@dataclass
class MaskSample:
    """One draw of masks for every adapted block.

    Row i of ``draws`` is the {0,1} mask of block ``blocks[i]`` (1-based,
    ascending): of length ``width`` for unit drop, ``n_spans`` for block
    drop, and ``batch`` for path drop (one survival bit per batch row).
    """

    kind: str
    blocks: tuple[int, ...]
    draws: np.ndarray
    keep_prob: float
    block_size: int = 1


def n_spans(width: int, block_size: int) -> int:
    """Number of contiguous spans covering a hidden vector; the last span
    may be shorter when ``width`` is not a multiple of ``block_size``."""
    return -(-width // block_size)


def sample_mask(spec: StochasticSpec, hidden_width: int, batch_size: int,
                rng: np.random.Generator) -> MaskSample:
    """Draw one independent Bernoulli mask set for every adapted block.

    Each entry is kept with probability ``1 - drop_rate``.  Unit and path
    drop draw every block at once: ``rng.random((L, n))`` takes from the
    stream what L calls of ``rng.random(n)`` would, in block order.
    Block-drop samples that would drop every span are rejected and redrawn
    (at most 100 times) so the count-based rescale is always defined.
    """
    keep, blocks = 1.0 - spec.drop_rate, tuple(sorted(spec.adapted_blocks))
    if spec.kind != KIND_BLOCK:
        size = hidden_width if spec.kind == KIND_UNIT else batch_size
        draws = (rng.random((len(blocks), size)) < keep).astype(np.float64)
    else:
        spans = n_spans(hidden_width, spec.block_size)
        draws = np.empty((len(blocks), spans))
        for l, m in zip(blocks, draws):
            for _ in range(_MAX_REDRAWS):
                m[...] = rng.random(spans) < keep
                if m.any():
                    break
            else:
                raise RuntimeError(
                    f"block {l}: all {spans} spans dropped in "
                    f"{_MAX_REDRAWS} consecutive draws")
    return MaskSample(spec.kind, blocks, draws, keep, spec.block_size)


def multipliers(masks: MaskSample, width: int, batch: int
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Rescaled mask multipliers ``(unit_mult, row_mult)`` of every block
    of ``masks``, row i for block ``masks.blocks[i]``.

    The network computes ``hidden = act * unit_mult`` and
    ``out = h + row_mult * branch``, and its backward pass reuses both, so
    this is the only place a mechanism zeroes and rescales:

    * unit drop: ``unit_mult = m / keep_prob`` (inverted dropout), [L, width];
    * block drop: ``unit_mult`` is the per-unit span mask times
      ``width / kept``, so survivors carry the full feature magnitude even
      when spans have unequal sizes, [L, width];
    * path drop: ``row_mult = m / keep_prob`` as a column, one entry per
      row, [L, batch, 1].

    Unit and path multipliers take only the values 0 and 1/keep_prob, so
    each block is an unbiased estimator of its fully active self.  The
    other one of the pair is None.
    """
    m = masks.draws
    if masks.keep_prob <= 0.0:
        raise ValueError("keep_prob must be positive")
    size = {KIND_UNIT: width, KIND_BLOCK: n_spans(width, masks.block_size),
            KIND_PATH: batch}[masks.kind]
    if m.shape[-1] != size:
        first = masks.blocks[0] if masks.blocks else None
        raise ShapeMismatchError(
            f"block {first}: {masks.kind} mask length {m.shape[-1]}, "
            f"expected {size}", block_index=first)
    if masks.kind == KIND_BLOCK:
        # the last span may be short
        unit = np.repeat(m, masks.block_size, axis=-1)[:, :width]
        kept = unit.sum(axis=-1, keepdims=True)
        if not kept.all():
            raise ValueError(
                f"block {masks.blocks[kept.argmin()]}: all spans dropped")
        return unit * (width / kept), None
    scaled = m / masks.keep_prob
    if masks.kind == KIND_UNIT:
        return scaled, None
    return None, scaled[..., None]
