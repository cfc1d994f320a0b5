"""Reference scorers for the benchmark's output checks.

Written from the definitions in the package docstrings, without calling
``mcuq.metrics`` or ``mcuq.detection``.  Classification scoring is
vectorised numpy over a whole prediction matrix; detection scoring is a
brute-force COCO 0.50:0.95 mAP over plain arrays.

Tie-breaking follows the documented rules (stable input order among equal
uncertainties or confidences, first ground truth among equal IoUs), so the
references agree with a correct implementation to rounding error.
"""

from __future__ import annotations

import numpy as np

IOU_THRESHOLDS = np.arange(50, 100, 5) / 100.0      # 0.50, 0.55, ..., 0.95
RECALL_LEVELS = np.linspace(0.0, 1.0, 101)           # COCO 101-point grid


# --- classification ------------------------------------------------------

def entropy_bits(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row; 0 log 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def brier(probs: np.ndarray, labels: np.ndarray) -> float:
    """Squared distance to the one-hot label, normalised by N * C."""
    p = np.asarray(probs, dtype=np.float64)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(p)), labels] = 1.0
    return float(np.sum((p - onehot) ** 2) / p.size)


def ece(confidence: np.ndarray, correct: np.ndarray, n_bins: int) -> float:
    """Expected calibration error over M equal bins [m/M, (m+1)/M), the
    last one closed at 1."""
    conf = np.asarray(confidence, dtype=np.float64)
    hit = np.asarray(correct, dtype=np.float64)
    edges = np.arange(n_bins + 1) / n_bins
    bins = np.minimum(np.searchsorted(edges, conf, side="right") - 1,
                      n_bins - 1)
    count = np.bincount(bins, minlength=n_bins)
    acc_sum = np.bincount(bins, weights=hit, minlength=n_bins)
    conf_sum = np.bincount(bins, weights=conf, minlength=n_bins)
    used = count > 0
    gap = np.abs(acc_sum[used] / count[used] - conf_sum[used] / count[used])
    return float(np.sum(count[used] / len(conf) * gap))


def auarc(uncertainty: np.ndarray, correct: np.ndarray) -> float:
    """Left Riemann sum of retained accuracy over the N rejection steps
    k/N, k = 0..N-1, rejecting the most uncertain first (stable order)."""
    order = np.argsort(-np.asarray(uncertainty), kind="stable")
    hit = np.asarray(correct, dtype=np.float64)[order]
    n = len(hit)
    retained_hits = np.cumsum(hit[::-1])[::-1]
    return float(np.mean(retained_hits / (n - np.arange(n))))


def classification_scores(probs: np.ndarray, labels: np.ndarray,
                          n_bins: int) -> dict[str, float]:
    """Every classification report column from probabilities and labels;
    accuracy fills the performance column, as in the package's reports."""
    p = np.asarray(probs, dtype=np.float64)
    correct = np.argmax(p, axis=1) == labels
    unc = entropy_bits(p)
    return {"map_50_95": accuracy(p, labels), "brier": brier(p, labels),
            "ece": ece(p.max(axis=1), correct, n_bins),
            "auarc": auarc(unc, correct),
            "mean_entropy": float(np.mean(unc))}


# --- detection -----------------------------------------------------------

def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of [K, 4] and [G, 4] corner boxes (x1, y1, x2, y2);
    disjoint boxes give 0."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    overlap = (iw > 0) & (ih > 0)
    inter = np.where(overlap, iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(overlap, inter / np.where(overlap, union, 1.0), 0.0)


def greedy_tp(boxes, probs, image_ids, gt_boxes, gt_classes, gt_image_ids,
              tau: float) -> np.ndarray:
    """TP flag per item: items in descending confidence (stable) each take
    the unmatched ground truth of the same image and class with the highest
    IoU >= tau (first one on ties)."""
    probs = np.asarray(probs, dtype=np.float64)
    tp = np.zeros(len(probs), dtype=bool)
    if len(probs) == 0 or len(gt_classes) == 0:
        return tp
    cls = np.argmax(probs, axis=1)
    ious = iou_matrix(boxes, gt_boxes)
    eligible = ((cls[:, None] == np.asarray(gt_classes)[None, :])
                & (np.asarray(image_ids)[:, None] == np.asarray(gt_image_ids)[None, :])
                & (ious >= tau))
    matched = np.zeros(len(gt_classes), dtype=bool)
    for i in np.argsort(-probs.max(axis=1), kind="stable"):
        cand = eligible[i] & ~matched
        if cand.any():
            j = int(np.argmax(np.where(cand, ious[i], -1.0)))
            matched[j] = True
            tp[i] = True
    return tp


def ap_101(tp_in_rank_order: np.ndarray, n_gt: int) -> float:
    """101-point interpolated average precision of confidence-ranked TP
    flags: mean over r in {0, .01, ..., 1} of the best precision at any
    recall >= r (0 where that recall is never reached)."""
    flags = np.asarray(tp_in_rank_order, dtype=np.float64)
    if n_gt == 0 or len(flags) == 0:
        return 0.0
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(1 - flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, RECALL_LEVELS, side="left")
    reached = first < len(recall)
    return float(np.sum(envelope[first[reached]]) / len(RECALL_LEVELS))


def map_50_95(boxes, probs, image_ids, gt_boxes, gt_classes, gt_image_ids,
              conf_threshold: float = 0.0) -> float:
    """COCO mAP averaged over the ten IoU thresholds and over every class
    with a ground truth; items below the confidence threshold are dropped
    and items of classes without ground truths are ignored."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    probs = np.asarray(probs, dtype=np.float64)
    image_ids = np.asarray(image_ids)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    gt_classes = np.asarray(gt_classes)
    gt_image_ids = np.asarray(gt_image_ids)
    keep = probs.max(axis=1) >= conf_threshold if len(probs) else np.zeros(0, bool)
    boxes, probs, image_ids = boxes[keep], probs[keep], image_ids[keep]
    item_cls = np.argmax(probs, axis=1) if len(probs) else np.zeros(0, int)
    classes = np.unique(gt_classes)
    total = 0.0
    for c in classes:
        items = np.flatnonzero(item_cls == c)
        items = items[np.argsort(-probs[items].max(axis=1), kind="stable")] \
            if len(items) else items
        gts = np.flatnonzero(gt_classes == c)
        for tau in IOU_THRESHOLDS:
            tp = greedy_tp(boxes[items], probs[items], image_ids[items],
                           gt_boxes[gts], gt_classes[gts], gt_image_ids[gts],
                           tau)
            total += ap_101(tp, len(gts))
    return total / (len(classes) * len(IOU_THRESHOLDS))
