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

``path-drop`` additionally supports a deterministic mode in which the
residual branch is scaled by the survival probability instead of sampled.

``sample_mask`` draws the {0,1} masks; ``multipliers`` turns them into the
rescaled factors that the network's forward and backward passes both use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KIND_UNIT = "unit-drop"
KIND_BLOCK = "block-drop"
KIND_PATH = "path-drop"
KINDS = (KIND_UNIT, KIND_BLOCK, KIND_PATH)

MODE_TRAINING = "training"
MODE_MC = "mc-inference"
MODE_SCALED = "deterministic-scaled"
MODES = (MODE_TRAINING, MODE_MC, MODE_SCALED)

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
    probability is ``1 - drop_rate``.
    """

    kind: str
    drop_rate: float
    adapted_blocks: frozenset[int] = field(default_factory=frozenset)
    block_size: int = 1
    mode: str = MODE_TRAINING

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.mode == MODE_SCALED and self.kind != KIND_PATH:
            raise ValueError("deterministic-scaled mode applies to path-drop only")
        if self.kind == KIND_BLOCK and self.block_size < 1:
            raise ValueError("block_size must be a positive integer")
        self.adapted_blocks = frozenset(int(b) for b in self.adapted_blocks)

    @property
    def keep_prob(self) -> float:
        return 1.0 - self.drop_rate

    def with_mode(self, mode: str) -> "StochasticSpec":
        return StochasticSpec(self.kind, self.drop_rate, self.adapted_blocks,
                              self.block_size, mode)

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

    ``per_block`` maps a 1-based block index to a {0,1} float array:
    shape ``(width,)`` for unit drop, ``(n_spans,)`` for block drop, and
    ``(batch,)`` for path drop (one survival bit per batch row).
    """

    kind: str
    per_block: dict[int, np.ndarray]
    keep_prob: float
    block_size: int = 1


def n_spans(width: int, block_size: int) -> int:
    """Number of contiguous spans covering a hidden vector; the last span
    may be shorter when ``width`` is not a multiple of ``block_size``."""
    return -(-width // block_size)


def sample_mask(spec: StochasticSpec, hidden_width: int, batch_size: int,
                rng: np.random.Generator) -> MaskSample:
    """Draw one independent Bernoulli mask set for every adapted block.

    Each entry is kept with probability ``1 - drop_rate``.  Block-drop
    samples that would drop every span are rejected and redrawn (at most
    100 times) so the count-based rescale is always defined.
    """
    if spec.mode == MODE_SCALED:
        raise ValueError("deterministic-scaled mode does not sample masks")
    keep = spec.keep_prob
    per_block: dict[int, np.ndarray] = {}
    for l in sorted(spec.adapted_blocks):
        if spec.kind == KIND_UNIT:
            m = (rng.random(hidden_width) < keep).astype(np.float64)
        elif spec.kind == KIND_BLOCK:
            spans = n_spans(hidden_width, spec.block_size)
            for _ in range(_MAX_REDRAWS):
                m = (rng.random(spans) < keep).astype(np.float64)
                if m.any():
                    break
            else:
                raise RuntimeError(
                    f"block {l}: all {spans} spans dropped in "
                    f"{_MAX_REDRAWS} consecutive draws")
        else:  # path drop: one survival bit per batch row
            m = (rng.random(batch_size) < keep).astype(np.float64)
        per_block[l] = m
    return MaskSample(kind=spec.kind, per_block=per_block, keep_prob=keep,
                      block_size=spec.block_size)


def multipliers(masks: MaskSample, index: int, width: int, batch: int
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Rescaled mask multipliers ``(unit_mult, row_mult)`` for block ``index``.

    The network computes ``hidden = act * unit_mult`` and
    ``out = h + row_mult * branch``, and its backward pass reuses both, so
    this is the only place a mechanism zeroes and rescales:

    * unit drop: ``unit_mult = m / keep_prob`` (inverted dropout);
    * block drop: ``unit_mult`` is the per-unit span mask times
      ``width / kept``, so survivors carry the full feature magnitude even
      when spans have unequal sizes;
    * path drop: ``row_mult = m / keep_prob`` as a column, one entry per row.

    Unit and path multipliers take only the values 0 and 1/keep_prob, so
    each block is an unbiased estimator of its fully active self.  Both are
    None for a block the masks do not adapt.
    """
    m = masks.per_block.get(index)
    if m is None:
        return None, None
    if masks.keep_prob <= 0.0:
        raise ValueError("keep_prob must be positive")
    if masks.kind == KIND_UNIT:
        if m.shape[-1] != width:
            raise ShapeMismatchError(
                f"block {index}: unit mask length {m.shape[-1]} != width {width}",
                block_index=index)
        return m / masks.keep_prob, None
    if masks.kind == KIND_BLOCK:
        spans = n_spans(width, masks.block_size)
        if m.shape != (spans,):
            raise ShapeMismatchError(
                f"block {index}: span mask shape {m.shape}, expected ({spans},)",
                block_index=index)
        unit = np.repeat(m, masks.block_size)[:width]  # last span may be short
        kept = unit.sum()
        if kept == 0:
            raise ValueError(f"block {index}: all spans dropped")
        return unit * (width / kept), None
    if m.shape[0] != batch:
        raise ShapeMismatchError(
            f"block {index}: path mask has {m.shape[0]} rows, batch is {batch}",
            block_index=index)
    return None, m.reshape(-1, 1) / masks.keep_prob
