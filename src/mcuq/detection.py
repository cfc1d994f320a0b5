"""Desk-scale detection machinery.

Covers box geometry, sequential fusion of multi-pass detections into object
observations, COCO-style mAP over IoU thresholds 0.50:0.95, TP/FP labelling
for the calibration metrics, and a synthetic stochastic detector that stands
in for a trained vision model.

Ground-truth files hold one record per line, no header:
image_id, class_id, x1, y1, x2, y2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import number
from .files import write_csv
from .metrics import ScoredPrediction, entropy_for_mode
from .rng import substream

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
# Width and height of every scene image, in box coordinate units: ground
# truths lie inside it and hallucinated detections are centred in it.
IMAGE_SIZE = (100.0, 100.0)
RECALL_LEVELS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True, init=False)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1, y1, x2, y2):  # frozen: fields go into __dict__
        x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate box {(x1, y1, x2, y2)}")
        self.__dict__.update(x1=x1, y1=y1, x2=x2, y2=y2)

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass
class Detection:
    box: Box
    probs: np.ndarray
    pass_index: int
    image_id: int

    @property
    def confidence(self) -> float:
        return float(np.max(self.probs))

    @property
    def class_id(self) -> int:
        return int(np.argmax(self.probs))


@dataclass
class GroundTruth:
    box: Box
    class_id: int
    image_id: int


@dataclass
class ClusteredObservation:
    """A fused group of detections: running means of box and probabilities."""

    members: list[Detection]
    mean_box: Box
    mean_probs: np.ndarray
    image_id: int

    @property
    def support(self) -> int:
        return len(self.members)

    @property
    def confidence(self) -> float:
        return float(np.max(self.mean_probs))

    @property
    def class_id(self) -> int:
        return int(np.argmax(self.mean_probs))

    @property
    def box(self) -> Box:
        """The mean box stands in as the observation's box for matching."""
        return self.mean_box


def iou(a: Box, b: Box) -> float:
    """Intersection over union; disjoint boxes give 0."""
    ix1, iy1 = max(a.x1, b.x1), max(a.y1, b.y1)
    ix2, iy2 = min(a.x2, b.x2), min(a.y2, b.y2)
    iw, ih = ix2 - ix1, iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def _argmax(values: list[float]) -> int:
    """Index of the largest value: on a tie the first index wins and the
    first NaN wins outright, as with ``np.argmax``."""
    best, top = 0, values[0]
    for i, v in enumerate(values):
        if v > top or (v != v and top == top):
            best, top = i, v
    return best


def bsas_cluster(dets: list[Detection], theta_iou: float = 0.5
                 ) -> list[ClusteredObservation]:
    """Sequential single-pass fusion of one image's detections.

    Detections are visited in (pass_index, input-order) order.  Each one
    joins the first existing cluster whose running mean box overlaps it with
    IoU >= theta_iou and whose mean-probability argmax matches its own;
    otherwise it founds a new cluster.  Cluster means update incrementally,
    so identical input order always yields identical clusters.

    The walk runs on plain floats, each mean updated as ``(m*k + x)/(k+1)``
    and IoU inline with the float operations of ``iou``.
    """
    return next(_bsas_walk(dets, theta_iou, [math.inf]))


def _bsas_walk(dets: list[Detection], theta_iou: float, cuts: list):
    """Yields, for each ascending cut, the clusters held on first reaching a
    detection with ``pass_index >= cut`` (or the end): BSAS never revisits
    an assignment, so those of the detections below the cut."""
    image_ids = {d.image_id for d in dets}
    if len(image_ids) > 1:
        raise ValueError(f"detections span several images: {sorted(image_ids)}")
    order = sorted(range(len(dets)), key=lambda i: (dets[i].pass_index, i))
    members: list[list[Detection]] = []
    boxes: list[tuple[float, float, float, float, float]] = []  # corners, area
    means: list[list[float]] = []
    classes: list[int] = []

    def held() -> list[ClusteredObservation]:
        return [ClusteredObservation(
            members=group[:],
            mean_box=group[0].box if len(group) == 1 else Box(*box[:4]),
            mean_probs=np.array(mean, dtype=np.float64),
            image_id=group[0].image_id)
            for group, box, mean in zip(members, boxes, means)]

    cuts = iter(cuts)
    cut = next(cuts)
    for i in order:
        det = dets[i]
        while det.pass_index >= cut:  # the caller stops after the last cut
            yield held()
            cut = next(cuts, math.inf)
        x1, y1, x2, y2 = det.box.x1, det.box.y1, det.box.x2, det.box.y2
        area = (x2 - x1) * (y2 - y1)
        probs = np.asarray(det.probs, dtype=np.float64).tolist()
        class_id = _argmax(probs)
        for ci, (cx1, cy1, cx2, cy2, carea) in enumerate(boxes):
            # iou(mean box, det.box): max/min keep the mean's value on a tie
            iw = ((x2 if x2 < cx2 else cx2) - (x1 if x1 > cx1 else cx1))
            ih = ((y2 if y2 < cy2 else cy2) - (y1 if y1 > cy1 else cy1))
            if iw <= 0 or ih <= 0:
                overlap = 0.0
            else:
                inter = iw * ih
                overlap = inter / (carea + area - inter)
            if overlap >= theta_iou and classes[ci] == class_id:
                break
        else:
            members.append([det])
            boxes.append((x1, y1, x2, y2, area))
            means.append(probs)
            classes.append(class_id)
            continue
        k = len(members[ci])
        members[ci].append(det)
        nx1, ny1 = (cx1 * k + x1) / (k + 1), (cy1 * k + y1) / (k + 1)
        nx2, ny2 = (cx2 * k + x2) / (k + 1), (cy2 * k + y2) / (k + 1)
        if not (nx1 < nx2 and ny1 < ny2):
            raise ValueError(f"degenerate box {(nx1, ny1, nx2, ny2)}")
        boxes[ci] = (nx1, ny1, nx2, ny2, (nx2 - nx1) * (ny2 - ny1))
        means[ci] = [(m * k + p) / (k + 1) for m, p in zip(means[ci], probs)]
        classes[ci] = _argmax(means[ci])
    while True:
        yield held()


def cluster_all(dets: list[Detection], theta_iou: float = 0.5,
                Ts: list[int] | None = None):
    """BSAS per image, images processed in sorted image_id order.

    With cuts ``Ts``, one walk serves them all: returns ``{T: clusters}``,
    each what ``cluster_all`` gives on the detections with ``pass_index <
    T``, or the error it raises: the first image's (by image id) whose walk
    failed below T.
    """
    cuts = [math.inf] if Ts is None else sorted(set(Ts))
    held = {T: [] for T in cuts}
    errors = {}
    image_ids = np.array([d.image_id for d in dets], dtype=np.int64)
    for idx in _groups(image_ids).values():
        walk = _bsas_walk([dets[i] for i in idx.tolist()], theta_iou, cuts)
        try:
            for T in cuts:
                held[T] += next(walk)
        except Exception as exc:  # failed below T: so below every later T
            for later in cuts[cuts.index(T):]:
                errors.setdefault(later, exc)
    if Ts is None:
        if errors:
            raise errors[math.inf]
        return held[math.inf]
    return {T: errors.get(T, held[T]) for T in cuts}


def _item_arrays(items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N detections or fused observations read into arrays once: boxes
    [N, 4] (corners), probs [N, C] ([0, 0] for no items), image ids [N]."""
    items = list(items)
    n = len(items)
    boxes = np.array([(it.box.x1, it.box.y1, it.box.x2, it.box.y2)
                      for it in items], dtype=np.float64).reshape(n, 4)
    probs = np.array([it.mean_probs if hasattr(it, "mean_probs") else it.probs
                      for it in items] or np.empty((0, 0)), dtype=np.float64)
    image_ids = np.array([it.image_id for it in items], dtype=np.int64)
    return boxes, probs, image_ids


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise ``iou`` of [K, 4] and [G, 4] boxes.  The float operations
    and their order are those of ``iou``, so every entry equals it exactly."""
    iw = (np.minimum(a[:, None, 2], b[None, :, 2])
          - np.maximum(a[:, None, 0], b[None, :, 0]))
    ih = (np.minimum(a[:, None, 3], b[None, :, 3])
          - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = inter / (area_a[:, None] + area_b[None, :] - inter)
    return np.where((iw <= 0) | (ih <= 0), 0.0, overlap)


def _groups(keys: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of each distinct key, ascending within a group."""
    order = np.argsort(keys, kind="stable")
    values, starts = np.unique(keys[order], return_index=True)
    return dict(zip(values.tolist(), np.split(order, starts[1:])))


def _match(boxes: np.ndarray, probs: np.ndarray, image_ids: np.ndarray,
           gts: list[GroundTruth], taus) -> np.ndarray:
    """Greedy TP flags [len(taus), N] of N items against the ground truths.

    Items go in stable confidence-descending order.  Each takes the
    unmatched ground truth of its image and class with the highest IoU,
    provided that IoU is >= tau and > 0; on a tie the lowest ground-truth
    index wins.  Items of different classes never compete for a ground
    truth, so all classes are matched in one walk.  Each image's IoU matrix
    is built once and serves every threshold.
    """
    flags = np.zeros((len(taus), len(probs)), dtype=bool)
    if not len(probs) or not gts:
        return flags
    classes = np.argmax(probs, axis=1)
    rank = np.empty(len(probs), dtype=np.int64)
    rank[np.argsort(-probs.max(axis=1), kind="stable")] = np.arange(len(probs))
    gt_boxes = np.array([(g.box.x1, g.box.y1, g.box.x2, g.box.y2) for g in gts],
                        dtype=np.float64)
    gt_classes = np.array([g.class_id for g in gts])
    gt_groups = _groups(np.array([g.image_id for g in gts]))
    # candidate (item, ground truth, IoU) pairs: same image and class, IoU > 0
    pair_item, pair_gt, pair_iou = [], [], []
    for image_id, ii in _groups(image_ids).items():
        jj = gt_groups.get(image_id)
        if jj is None:
            continue
        overlap = _iou_matrix(boxes[ii], gt_boxes[jj])
        r, c = np.nonzero((classes[ii, None] == gt_classes[None, jj])
                          & (overlap > 0))
        pair_item.append(ii[r])
        pair_gt.append(jj[c])
        pair_iou.append(overlap[r, c])
    if not pair_item:
        return flags
    pair_item, pair_gt, pair_iou = (np.concatenate(p) for p in
                                    (pair_item, pair_gt, pair_iou))
    # by item rank, then best overlap first, then lowest ground-truth index
    order = np.lexsort((pair_gt, -pair_iou, rank[pair_item]))
    pairs = list(zip(pair_item[order].tolist(), pair_gt[order].tolist(),
                     pair_iou[order].tolist()))
    for k, tau in enumerate(taus):
        taken: set[int] = set()
        hits = []
        decided = -1
        for item, j, overlap in pairs:
            if item == decided:
                continue
            if overlap < tau:
                decided = item  # its remaining candidates overlap less
            elif j not in taken:
                taken.add(j)
                hits.append(item)
                decided = item
        flags[k, hits] = True
    return flags


def average_precision(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from confidence-ordered TP flags: the mean
    over recall levels r of the best precision at any recall >= r."""
    if n_gt == 0 or len(tp_flags) == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1 - tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, RECALL_LEVELS, side="left")
    ap = 0.0
    # a plain left-to-right sum; np.sum and sum() round differently
    for value in envelope[first[first < len(recall)]].tolist():
        ap += value
    return ap / len(RECALL_LEVELS)


def map_50_95(items, gts: list[GroundTruth]) -> float:
    """COCO-style mAP over IoU thresholds 0.50:0.95.

    AP is averaged over every class with at least one ground truth and over
    the ten thresholds; detections of classes without ground truths are
    ignored.  Matching is greedy in confidence-descending order: a
    detection takes the unmatched ground truth of its image and class with
    the highest IoU, which must be >= the threshold and > 0; on a tie the
    lowest ground-truth index wins.
    """
    boxes, probs, image_ids = _item_arrays(items)
    return _mean_ap(_match(boxes, probs, image_ids, gts, IOU_THRESHOLDS),
                    probs, gts)


def _mean_ap(flags: np.ndarray, probs: np.ndarray,
             gts: list[GroundTruth]) -> float:
    """``map_50_95`` of N items from their probabilities [N, C] and the TP
    flags [len(IOU_THRESHOLDS), N] that ``_match`` gives them."""
    if not gts:
        raise ValueError("no ground truths")
    if not len(probs):
        return 0.0
    ranked = np.argsort(-probs.max(axis=1), kind="stable")
    ranked_classes = np.argmax(probs, axis=1)[ranked]
    gt_classes = [gt.class_id for gt in gts]
    classes = sorted(set(gt_classes))
    ap_total = 0.0
    for cls in classes:
        cls_flags = flags[:, ranked[ranked_classes == cls]].astype(np.float64)
        for tau_flags in cls_flags:
            ap_total += average_precision(tau_flags, gt_classes.count(cls))
    return ap_total / (len(classes) * len(IOU_THRESHOLDS))


def label_tp_fp(items, gts: list[GroundTruth], tau: float = 0.5,
                mode: str = "softmax") -> list[ScoredPrediction]:
    """Score fused observations as TP/FP.

    Greedy confidence-descending matching at IoU >= tau with class
    agreement: an observation takes the unmatched ground truth of its image
    and class with the highest IoU, which must also be > 0; on a tie the
    lowest ground-truth index wins.  Matched observations are correct and
    carry the matched ground-truth class as true label.  Uncertainty is the
    mode-appropriate entropy of the mean probabilities.
    """
    number("tau", tau, 0, 1)
    boxes, probs, image_ids = _item_arrays(items)
    return _scored(probs, _match(boxes, probs, image_ids, gts, (tau,))[0],
                   mode)


def threshold_scorer(items, gts: list[GroundTruth], tau: float = 0.5,
                     mode: str = "softmax"):
    """``score(conf_threshold) -> (map_50_95, predictions)``: what
    ``map_50_95`` and ``label_tp_fp`` give for the items of confidence >=
    the threshold, in input order, from one match of all items at ``tau``
    and the mAP IoU thresholds.  Exact, since a threshold keeps a prefix of
    ``_match``'s stable confidence ranking and an item's greedy match
    depends only on the items ranked before it."""
    number("tau", tau, 0, 1)
    boxes, probs, image_ids = _item_arrays(items)
    # initial: the [0, 0] probs of no items have no maximum otherwise
    conf = probs.max(axis=1, initial=-np.inf)
    flags = _match(boxes, probs, image_ids, gts, (tau, *IOU_THRESHOLDS))
    preds = _scored(probs, flags[0], mode)

    def score(conf_threshold):
        keep = np.flatnonzero(conf >= conf_threshold)
        return (_mean_ap(flags[1:, keep], probs[keep], gts),
                [preds[i] for i in keep])
    return score


def _scored(probs: np.ndarray, is_tp: np.ndarray,
            mode: str) -> list[ScoredPrediction]:
    """The ``ScoredPrediction`` of N items; only a TP carries a label."""
    if not len(probs):  # [0, 0] probs have no maximum
        return []
    return [ScoredPrediction(probs=p, confidence=conf, correct=tp,
                             uncertainty=entropy_for_mode(p, mode),
                             true_label=cls if tp else None)
            for p, conf, tp, cls in zip(probs, probs.max(axis=1).tolist(),
                                        is_tp.tolist(),
                                        np.argmax(probs, axis=1).tolist())]


@dataclass
class NoiseSpec:
    """Knobs of the synthetic stochastic detector."""

    box_jitter: float = 0.0       # stddev of corner jitter, in coordinate units
    miss_prob: float = 0.0        # per-pass, per-object miss probability
    halluc_rate: float = 0.0      # Poisson rate of spurious boxes per pass
    sharpness: float = 0.9        # probability mass on the true class

    def __post_init__(self):
        number("box_jitter", self.box_jitter, 0)
        number("miss_prob", self.miss_prob, 0, 1)
        number("halluc_rate", self.halluc_rate, 0)
        number("sharpness", self.sharpness, 0, 1, open_lo=True)


def _peaked_probs(n_classes: int, sharpness: float, mode: str) -> np.ndarray:
    """A read-only [C, C] table whose row c is the probability vector every
    detection of true class c shares.  Sigmoid scores are independent per
    class: confident on the true class only."""
    off = 1.0 - sharpness
    if mode != "sigmoid":
        off /= max(n_classes - 1, 1)
    table = np.full((n_classes, n_classes), off)
    np.fill_diagonal(table, sharpness)
    table.flags.writeable = False
    return table


def _jittered_box(box: Box, jitter: float, rng: np.random.Generator) -> Box:
    if jitter == 0.0:
        return box
    for _ in range(100):
        d1, d2, d3, d4 = rng.normal(0.0, jitter, size=4).tolist()
        x1, y1 = box.x1 + d1, box.y1 + d2
        x2, y2 = box.x2 + d3, box.y2 + d4
        if x1 < x2 and y1 < y2:
            return Box(x1, y1, x2, y2)
    return box


def synth_detector(scene: list[GroundTruth], noise: NoiseSpec, T: int,
                   seed: int, n_classes: int,
                   mode: str = "softmax") -> list[Detection]:
    """Generate T passes of detections for one scene.

    Per pass and per object: with probability 1 - miss_prob emit a jittered
    copy of the ground-truth box with a probability vector peaked at the
    true class; then add Poisson(halluc_rate) spurious boxes with diffuse
    probability vectors.  Pass t draws from the (seed, "synth", t) stream.
    """
    dets: list[Detection] = []
    W, H = IMAGE_SIZE
    peaked = _peaked_probs(n_classes, noise.sharpness, mode)
    image_ids = sorted({gt.image_id for gt in scene})
    for t in range(T):
        rng = substream(seed, "synth", t)
        for gt in scene:
            if rng.random() < noise.miss_prob:
                continue
            box = _jittered_box(gt.box, noise.box_jitter, rng)
            dets.append(Detection(box=box, probs=peaked[gt.class_id],
                                  pass_index=t, image_id=gt.image_id))
        for image_id in image_ids:
            for _ in range(rng.poisson(noise.halluc_rate)):
                cx, cy = rng.uniform(0, W), rng.uniform(0, H)
                w, h = rng.uniform(2.0, W / 4), rng.uniform(2.0, H / 4)
                box = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                if mode == "sigmoid":
                    probs = rng.uniform(0.05, 0.5, n_classes)
                else:
                    probs = rng.dirichlet(np.full(n_classes, 2.0))
                dets.append(Detection(box=box, probs=probs, pass_index=t,
                                      image_id=image_id))
    return dets


def save_ground_truths(gts: list[GroundTruth], path: str | Path) -> None:
    write_csv(path, None,
              ([gt.image_id, gt.class_id, repr(gt.box.x1), repr(gt.box.y1),
                repr(gt.box.x2), repr(gt.box.y2)] for gt in gts))
