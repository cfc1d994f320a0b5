"""Scalar quality measures: entropies, Brier score, ECE, AUARC, and
Pareto / ideal-point selection over configuration sweeps.

All functions here are pure and operate on immutable inputs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import number
from .files import write_csv

SUM_TOL = 1e-6


@dataclass
class ScoredPrediction:
    """One prediction with everything the calibration metrics need."""

    probs: np.ndarray
    confidence: float
    correct: bool
    uncertainty: float
    true_label: int | None = None


@dataclass
class ConfigPoint:
    """One cell of the hyperparameter grid."""

    method: str            # MCD | MCDB | MCSD
    drop_rate: float
    T: int
    conf_threshold: float
    adapted_blocks: str    # preset descriptor, e.g. "all", "first-half"

    def key(self) -> tuple:
        return (self.method, self.drop_rate, self.T, self.conf_threshold,
                self.adapted_blocks)


@dataclass
class EvalReport:
    """One row of metric results for one configuration point.

    For classification runs the ``map_50_95`` slot carries plain accuracy
    (both live in [0, 1] and fill the performance axis of the Pareto and
    ideal-point analyses).
    """

    map_50_95: float
    brier: float
    ece: float
    auarc: float
    mean_entropy: float


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy in bits of a distribution over classes; 0 log 0 = 0.

    Entries must be non-negative and sum to 1 within 1e-6 (the vector is
    renormalized inside that tolerance, rejected outside it).
    """
    p = np.asarray(probs, dtype=np.float64)
    if (p < 0).any():
        raise ValueError("negative probability entry")
    total = p.sum()
    if not abs(total - 1.0) <= SUM_TOL:  # also rejects NaN and inf entries
        raise ValueError(f"probabilities sum to {total}, not 1")
    if abs(total - 1.0) > 1e-13:
        # renormalizing a vector already within rounding error of 1 would
        # only perturb it
        p = p / total
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mean_binary_entropy(probs: np.ndarray) -> float:
    """Mean over classes of the binary entropy of each entry, in bits.

    Used for per-class sigmoid outputs, where entries are independent
    probabilities and do not sum to 1.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not ((p >= 0) & (p <= 1)).all():  # NaN fails both comparisons
        raise ValueError("entries must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log2(p), 0.0) \
            - np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
    return float(h.mean())


def entropy_for_mode(probs: np.ndarray, mode: str) -> float:
    if mode == "softmax":
        return shannon_entropy(probs)
    return mean_binary_entropy(probs)


def _first_bad(mask: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row flagged in ``mask``."""
    if mask.any():
        raise ValueError(f"row {int(np.argmax(mask))}: {what}")


def brier(preds: list[ScoredPrediction]) -> float:
    """Mean squared error between probability vectors and one-hot labels,
    normalized by N * C.  Row errors are added left to right, as a running
    total would."""
    if not preds:
        raise ValueError("empty prediction set")
    labels = [p.true_label for p in preds]
    if None in labels:
        raise ValueError(f"row {labels.index(None)}: brier needs a true "
                         "label on every prediction")
    sq = np.array([p.probs for p in preds], dtype=np.float64)
    n, n_classes = sq.shape
    labels = np.array(labels)
    _first_bad((labels < 0) | (labels >= n_classes),
               f"true label outside [0, {n_classes})")
    sq[np.arange(n), labels] -= 1.0
    # cumsum adds the rows in order; a whole-array sum would pair them
    total = np.cumsum(np.sum(sq ** 2, axis=1))[-1]
    return float(total / (n * n_classes))


def ece(preds: list[ScoredPrediction], n_bins: int = 15) -> float:
    """Expected calibration error over equally spaced confidence bins.

    Bin m covers [(m-1)/M, m/M), with the last bin closed at 1.0; empty
    bins contribute nothing.
    """
    if not preds:
        raise ValueError("empty prediction set")
    number("n_bins", n_bins, 1, integer=True)
    conf = np.array([p.confidence for p in preds])
    correct = np.array([p.correct for p in preds], dtype=np.float64)
    _first_bad(~((conf >= 0) & (conf <= 1)), "confidences must lie in [0, 1]")
    n = len(preds)
    total = 0.0
    for m in range(n_bins):
        lower, upper = m / n_bins, (m + 1) / n_bins
        if m < n_bins - 1:
            in_bin = (conf >= lower) & (conf < upper)
        else:
            in_bin = (conf >= lower) & (conf <= 1.0)
        count = int(in_bin.sum())
        if count == 0:
            continue
        acc = correct[in_bin].mean()
        avg_conf = conf[in_bin].mean()
        total += (count / n) * abs(acc - avg_conf)
    return float(total)


def _retained_accuracy(preds: list[ScoredPrediction]) -> np.ndarray:
    """Accuracy of the retained rows after rejecting the k most uncertain,
    for k = 0..N-1.  Ties in uncertainty are broken by stable input order.

    The hit counts are exact integers, so each entry equals the mean of
    the retained 0/1 hits bit for bit."""
    if not preds:
        raise ValueError("empty prediction set")
    unc = np.array([p.uncertainty for p in preds], dtype=np.float64)
    _first_bad(np.isnan(unc), "uncertainty is NaN")
    correct = np.array([p.correct for p in preds], dtype=np.float64)
    order = np.argsort(-unc, kind="stable")  # most uncertain first
    hits_retained = np.cumsum(correct[order][::-1])[::-1]
    return hits_retained / np.arange(len(preds), 0, -1)


def accuracy_rejection_curve(preds: list[ScoredPrediction]) -> list[tuple[float, float]]:
    """(rejected fraction, accuracy of retained) pairs at every rejection
    step k/N for k = 0..N-1, rejecting most-uncertain first.

    Ties in uncertainty are broken by stable input order.
    """
    acc = _retained_accuracy(preds)
    n = len(acc)
    return [(k / n, a) for k, a in enumerate(acc.tolist())]


def auarc(preds: list[ScoredPrediction]) -> float:
    """Area under the accuracy-rejection curve (left Riemann sum over the
    N rejection steps; the all-rejected point is never evaluated).  The
    builtin ``sum`` fixes the rounding: ``math.fsum`` and numpy's pairwise
    sum round differently."""
    acc = _retained_accuracy(preds)
    return float(sum(acc.tolist()) / len(acc))


def ipp_distance(report: EvalReport) -> float:
    """Euclidean distance to the ideal point (performance 1, AUARC 1)."""
    return math.sqrt((1.0 - report.auarc) ** 2 + (1.0 - report.map_50_95) ** 2)


def _check_points(points: list[tuple[ConfigPoint, EvalReport]]) -> None:
    """Reject an empty point list and, naming it, a point whose performance
    or AUARC is not finite."""
    if not points:
        raise ValueError("empty point list")
    finite = np.isfinite([(r.map_50_95, r.auarc) for _, r in points])
    _first_bad(~finite.all(axis=1), "performance and AUARC must be finite")


def ipp_select(points: list[tuple[ConfigPoint, EvalReport]]) -> ConfigPoint:
    """Configuration closest to the ideal performance point; ties go to the
    first occurrence in input order."""
    _check_points(points)
    return min(points, key=lambda point: ipp_distance(point[1]))[0]


def pareto_front(points: list[tuple[ConfigPoint, EvalReport]]) -> list[tuple[ConfigPoint, EvalReport]]:
    """Points not dominated in (performance, AUARC): a point is dominated
    when another is at least as good in both coordinates and strictly
    better in one."""
    _check_points(points)

    def dominates(a: EvalReport, b: EvalReport) -> bool:  # irreflexive
        return (a.map_50_95 >= b.map_50_95 and a.auarc >= b.auarc
                and (a.map_50_95 > b.map_50_95 or a.auarc > b.auarc))
    return [(cfg, rep) for cfg, rep in points
            if not any(dominates(other, rep) for _, other in points)]


# Every reports.csv column with its type: ConfigPoint's fields, then
# EvalReport's.  A float column is written as repr(float(value)).
REPORT_COLUMNS = {"method": str, "drop_rate": float, "T": int,
                  "conf_threshold": float, "adapted_blocks": str,
                  "map_50_95": float, "brier": float, "ece": float,
                  "auarc": float, "mean_entropy": float}


def report_row(cfg: ConfigPoint, report: EvalReport) -> list[str]:
    values = vars(cfg) | vars(report)
    return [repr(float(values[name])) if kind is float else str(values[name])
            for name, kind in REPORT_COLUMNS.items()]


def save_reports(points: list[tuple[ConfigPoint, EvalReport]],
                 path: str | Path) -> None:
    write_csv(path, list(REPORT_COLUMNS),
              (report_row(cfg, report) for cfg, report in points))


def load_reports(path: str | Path) -> list[tuple[ConfigPoint, EvalReport]]:
    """Rows of a reports CSV.  A ValueError names the path and the bytes
    that are not UTF-8, the columns a header lacks or repeats, or the
    column, the data row (from 1) and the value of a missing, unparsable or
    non-finite cell."""
    points = []
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    missing = [name for name in REPORT_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"{path}: header lacks the report columns {missing}")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ValueError(f"{path}: header repeats the columns {repeated}")
    for n, row in enumerate(reader, start=1):
        values = {}
        for name, convert in REPORT_COLUMNS.items():
            raw = row.get(name)
            try:
                if raw is None:
                    raise ValueError
                values[name] = convert(raw)
                if convert is float and not math.isfinite(values[name]):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: data row {n}, column {name!r}: "
                                 f"bad value {raw!r}") from None
        cfg = {k: values.pop(k) for k in ConfigPoint.__dataclass_fields__}
        points.append((ConfigPoint(**cfg), EvalReport(**values)))
    return points
