"""Monte Carlo predictive inference.

The predictive distribution is approximated by T stochastic forward passes,
each with an independently sampled mask, averaged in probability space.
Pass t draws from the (base_seed, t) substream, so passes are independent
and order-free: any subset, run in any order, reproduces its passes bit for
bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn_core
from .nn_core import MODE_SOFTMAX, ResidualNet, forward
from .rng import pass_stream
from .stochastic import KIND_PATH, MODE_MC, MODE_SCALED, StochasticSpec, sample_mask


@dataclass
class PredictiveSummary:
    """Mean predictive probabilities plus the raw per-pass probabilities.

    ``mean_probs`` is exactly the arithmetic mean of ``per_pass_probs``
    over the pass axis.
    """

    mean_probs: np.ndarray      # [batch, C]
    per_pass_probs: np.ndarray  # [T, batch, C]
    T: int
    mode: str

    def to_records(self) -> list[tuple[int, int, int, float]]:
        """Flatten to (pass, sample, class, prob) rows."""
        T, batch, C = self.per_pass_probs.shape
        return [(t, i, c, float(self.per_pass_probs[t, i, c]))
                for t in range(T) for i in range(batch) for c in range(C)]

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["pass", "sample", "class", "prob"])
            for row in self.to_records():
                w.writerow([row[0], row[1], row[2], repr(row[3])])


def _probs(net: ResidualNet, logits: np.ndarray) -> np.ndarray:
    if net.output_mode == MODE_SOFTMAX:
        return nn_core.softmax(logits)
    return nn_core.sigmoid(logits)


def mc_forward_logits(net: ResidualNet, x: np.ndarray, spec: StochasticSpec,
                      T: int, base_seed: int) -> np.ndarray:
    """Raw logits of T stochastic passes, shape [T, batch, C]."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if spec.mode != MODE_MC:
        raise ValueError(f"spec.mode must be {MODE_MC!r}, got {spec.mode!r}")
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]

    passes = []
    for t in range(T):
        masks = sample_mask(spec, net.width, batch, pass_stream(base_seed, t))
        try:
            passes.append(forward(net, x, masks=masks))
        except Exception as exc:
            raise RuntimeError(f"MC pass {t} failed: {exc}") from exc
    return np.stack(passes, axis=0)


def mc_predict(net: ResidualNet, x: np.ndarray, spec: StochasticSpec,
               T: int, base_seed: int) -> PredictiveSummary:
    """T-pass Monte Carlo predictive summary.

    Probabilities are taken per pass (softmax or per-class sigmoid of the
    logits) and averaged afterwards; sigmoid entries are never renormalized
    across classes.
    """
    logits = mc_forward_logits(net, x, spec, T, base_seed)
    per_pass = np.stack([_probs(net, logits[t]) for t in range(T)], axis=0)
    return PredictiveSummary(mean_probs=per_pass.mean(axis=0),
                             per_pass_probs=per_pass, T=T,
                             mode=net.output_mode)


def deterministic_predict(net: ResidualNet, x: np.ndarray,
                          spec: StochasticSpec | None = None) -> np.ndarray:
    """Single mask-free pass, no RNG consumed.

    For path drop the adapted blocks use the scaled rule
    (identity + p_keep * branch); unit and block drop are simply disabled
    at inference, so the pass equals the raw forward.
    """
    if spec is not None and spec.kind == KIND_PATH:
        logits = forward(net, x, scale_spec=spec.with_mode(MODE_SCALED))
    else:
        logits = forward(net, x)
    return _probs(net, logits)
