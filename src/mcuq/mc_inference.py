"""Monte Carlo predictive inference.

The predictive distribution is approximated by T stochastic forward passes,
each with an independently sampled mask, averaged in probability space.
Pass t draws from the (base_seed, t) substream, so passes are independent
and order-free: any subset, run in any order, reproduces its passes bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn_core
from .fields import number
from .nn_core import MODE_SOFTMAX, ResidualNet, forward
from .rng import pass_stream
from .stochastic import StochasticSpec, sample_mask


@dataclass
class PredictiveSummary:
    """Mean predictive probabilities plus the raw per-pass probabilities.

    ``mean_probs`` is exactly the arithmetic mean of ``per_pass_probs``
    over the pass axis.
    """

    mean_probs: np.ndarray      # [batch, C]
    per_pass_probs: np.ndarray  # [T, batch, C]


def _probs(net: ResidualNet, logits: np.ndarray, out=None) -> np.ndarray:
    if net.output_mode == MODE_SOFTMAX:
        return nn_core.softmax(logits, out)
    return nn_core.sigmoid(logits, out)


def mc_forward_logits(net: ResidualNet, x: np.ndarray, spec: StochasticSpec,
                      T: int, base_seed: int) -> np.ndarray:
    """Raw logits of T stochastic passes, shape [T, batch, C]."""
    number("T", T, 1, integer=True)
    nn_core.check_blocks(net, spec.adapted_blocks)
    x = nn_core.check_input(net, x)
    batch = x.shape[0]

    logits = np.empty((T, batch, net.n_classes))
    for t in range(T):
        masks = sample_mask(spec, net.width, batch, pass_stream(base_seed, t))
        try:
            if t == 0:  # the deterministic prefix all passes share, once
                prefix = nn_core.forward_prefix(net, x, masks)
            logits[t] = forward(net, x, masks=masks, prefix=prefix)
        except Exception as exc:
            raise RuntimeError(f"MC pass {t} failed: {exc}") from exc
    return logits


def mc_predict(net: ResidualNet, x: np.ndarray, spec: StochasticSpec,
               T: int, base_seed: int) -> PredictiveSummary:
    """T-pass Monte Carlo predictive summary.

    Probabilities are taken per pass (softmax or per-class sigmoid of the
    logits) and averaged afterwards; sigmoid entries are never renormalized
    across classes.  Each pass's probabilities overwrite its logits, so
    the passes hold one [T, batch, C] array.
    """
    per_pass = mc_forward_logits(net, x, spec, T, base_seed)
    for logits in per_pass:
        _probs(net, logits, out=logits)
    return PredictiveSummary(mean_probs=per_pass.mean(axis=0),
                             per_pass_probs=per_pass)


def deterministic_predict(net: ResidualNet, x: np.ndarray) -> np.ndarray:
    """Single mask-free pass, no RNG consumed.  Every mechanism rescales
    what it keeps (``stochastic.multipliers``), so one plain pass serves
    them all."""
    return _probs(net, forward(net, x))
