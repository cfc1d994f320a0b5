"""Output checks for the benchmark workloads.

Each check returns a list of problems (empty when the outputs are right).
They compare the program's outputs against the reference scorers in
``reference.py`` or against properties the method must have; none
compares against a stored copy of earlier output.

The held-out split, the MC averages and the synthetic detections are
regenerated through public functions (``make_blobs``, ``load_checkpoint``,
``forward``, ``sample_mask``, ``make_box_scenes``, ``synth_detector``,
``cluster_all``) and the public ``substream``, following the harness's
documented rule that every draw comes from a named substream of the
experiment seed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from mcuq import harness
from mcuq.datasets import corrupt, make_blobs, make_box_scenes
from mcuq.detection import (NoiseSpec, cluster_all, label_tp_fp, map_50_95,
                            synth_detector)
from mcuq.nn_core import forward, load_checkpoint
from mcuq.rng import pass_stream, substream
from mcuq.stochastic import MODE_MC, StochasticSpec, sample_mask

TOL = 1e-12
METRIC_FIELDS = ("map_50_95", "brier", "ece", "auarc", "mean_entropy")


def grid_sizes(cfg) -> tuple[int, int]:
    """(model cells, report rows) the config's grid asks for."""
    cells = len(cfg.methods) * len(cfg.drop_rates) * len(cfg.adapted_presets)
    return cells, cells * len(cfg.Ts) * len(cfg.conf_thresholds)


def derived_seed(cfg, *tags) -> int:
    return int(substream(cfg.seed, *tags).integers(2 ** 62))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def check_sweep_shape(cfg, result) -> list[str]:
    """Every row finite with performance in [0, 1], and, when nothing
    failed, every training and row present.  Failed operations are counted
    by the caller, not reported as wrong outputs."""
    cells, rows = grid_sizes(cfg)
    problems = []
    trained = cells if cfg.task == "classification" else 0
    if not result.failures and result.n_training_runs != trained:
        problems.append(f"{result.n_training_runs} trainings, expected {trained}")
    if not result.failures and len(result.points) != rows:
        problems.append(f"{len(result.points)} rows, expected {rows}")
    for point, report in result.points:
        for name in METRIC_FIELDS:
            value = getattr(report, name)
            if not math.isfinite(value):
                problems.append(f"{point.key()}: {name} is {value}")
        if not 0.0 <= report.map_50_95 <= 1.0:
            problems.append(f"{point.key()}: performance {report.map_50_95} "
                            "outside [0, 1]")
    return problems


def held_out_split(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of the held-out split, regenerated from the
    config."""
    ds = cfg.dataset
    X, y = make_blobs(n=int(ds["n"]), n_classes=int(ds["n_classes"]),
                      spread=float(ds["spread"]),
                      label_noise=float(ds["label_noise"]),
                      seed=derived_seed(cfg, "dataset"))
    test = substream(cfg.seed, "split").permutation(len(y))
    test = test[:int(round(cfg.test_fraction * len(y)))]
    return X[test], y[test]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def mc_mean_probs(cfg, out_dir: Path, method: str, drop_rate: float,
                  preset: str, X: np.ndarray, Ts) -> dict[int, np.ndarray]:
    """Mean predictive probabilities for each T, averaged here over the
    per-pass softmax of the cell's saved model.  Pass t draws its masks
    from the (eval seed, t) stream, so smaller Ts average a prefix."""
    net, _ = load_checkpoint(out_dir / f"ckpt_{method}_{drop_rate}_{preset}.json")
    spec = StochasticSpec(kind=harness.METHOD_KINDS[method],
                          drop_rate=drop_rate,
                          adapted_blocks=harness.resolve_preset(preset, net.n_blocks),
                          block_size=cfg.block_size, mode=MODE_MC)
    seed = derived_seed(cfg, "eval", method, repr(float(drop_rate)), preset)
    passes = [_softmax(forward(net, X, masks=sample_mask(
        spec, net.width, len(X), pass_stream(seed, t)))) for t in range(max(Ts))]
    return {T: np.stack(passes[:T]).mean(axis=0) for T in Ts}


def _compare(where: str, report, scores: dict) -> list[str]:
    return [f"{where}: {field} {getattr(report, field)!r} != reference "
            f"{scores[field]!r}"
            for field in METRIC_FIELDS
            if not _close(getattr(report, field), scores[field])]


def check_classification(cfg, result, out_dir: Path,
                         min_accuracy: float) -> list[str]:
    """Grid complete; conf_threshold has no effect; every row equals the
    reference scores of an MC average recomputed from the saved model; the
    returned predictions are that average for the last row; the sweep
    beats chance clearly.  The chance bar is on the median row, not on
    every row: constant-rate SGD leaves about one seed in five with one
    cell that ends on a loss spike (accuracy 0.55-0.78), which is how the
    training behaves, not a wrong output."""
    problems = check_sweep_shape(cfg, result)
    X, labels = held_out_split(cfg)
    by_cell = defaultdict(list)
    means = {}
    for point, report in result.points:
        cell = (point.method, point.drop_rate, point.adapted_blocks)
        by_cell[cell + (point.T,)].append(
            tuple(getattr(report, f) for f in METRIC_FIELDS))
        if cell not in means:
            means[cell] = mc_mean_probs(cfg, out_dir, *cell, X, cfg.Ts)
        scores = ref.classification_scores(means[cell][point.T], labels,
                                           cfg.ece_bins)
        problems += _compare(str(point.key()), report, scores)
    if result.points:
        median = float(np.median([r.map_50_95 for _, r in result.points]))
        if median < min_accuracy:
            problems.append(f"median row accuracy {median} below "
                            f"{min_accuracy}")
    for key, rows in by_cell.items():
        if any(row != rows[0] for row in rows):
            problems.append(f"{key}: rows differing only in conf_threshold "
                            "have different metrics")

    preds = result.last_predictions
    if not preds or not result.points:
        return problems + ["no predictions to rescore"]
    probs = np.stack([np.asarray(p.probs, dtype=np.float64) for p in preds])
    got_labels = np.array([p.true_label for p in preds])
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > TOL:
        problems.append(f"predictive probabilities miss 1 by up to {worst}")
    if got_labels.shape != labels.shape or (got_labels != labels).any():
        problems.append("prediction labels differ from the held-out split")
        return problems
    point, report = result.points[-1]
    last = means.get((point.method, point.drop_rate, point.adapted_blocks))
    if last is not None and np.max(np.abs(probs - last[point.T])) > TOL:
        problems.append("returned predictions are not the last row's MC "
                        "average")
    problems += _compare(f"{point.key()} rescored", report,
                         ref.classification_scores(probs, got_labels,
                                                   cfg.ece_bins))
    return problems


def check_shift(cfg, result, shift_rows, ladder, out_dir: Path) -> list[str]:
    """Every level equals the reference scores of the first cell's MC
    average on the corrupted inputs; the uncorrupted level reproduces the
    sweep's first row; accuracy falls from the first level to the last."""
    if len(shift_rows) != len(ladder.levels):
        return [f"{len(shift_rows)} shift levels, expected {len(ladder.levels)}"]
    problems = []
    X, labels = held_out_split(cfg)
    cell = (cfg.methods[0], cfg.drop_rates[0], cfg.adapted_presets[0])
    noise_seed = derived_seed(cfg, "shift-noise")
    for level, (name, acc, ent) in zip(ladder.levels, shift_rows):
        Xc = corrupt(X, labels, level, seed=noise_seed)
        probs = mc_mean_probs(cfg, out_dir, *cell, Xc, [cfg.Ts[0]])[cfg.Ts[0]]
        scores = ref.classification_scores(probs, labels, cfg.ece_bins)
        if not (_close(acc, scores["map_50_95"])
                and _close(ent, scores["mean_entropy"])):
            problems.append(f"shift {name}: ({acc!r}, {ent!r}) != reference "
                            f"({scores['map_50_95']!r}, "
                            f"{scores['mean_entropy']!r})")
    _, first = result.points[0]
    _, acc0, ent0 = shift_rows[0]
    if (acc0, ent0) != (first.map_50_95, first.mean_entropy):
        problems.append(f"shift level 0 ({acc0!r}, {ent0!r}) does not "
                        f"reproduce the first sweep row ({first.map_50_95!r}, "
                        f"{first.mean_entropy!r})")
    if not shift_rows[-1][1] < acc0:
        problems.append(f"shift accuracy {shift_rows[-1][1]} at the last level "
                        f"is not below {acc0} at level 0")
    return problems


def _detection_scene(cfg):
    ds = cfg.dataset
    gts = make_box_scenes(n_images=int(ds["n_images"]),
                          n_classes=int(ds["n_classes"]),
                          boxes_per_image=int(ds["boxes_per_image"]),
                          seed=derived_seed(cfg, "dataset"))
    noise = NoiseSpec(box_jitter=float(ds["box_jitter"]),
                      miss_prob=float(ds["miss_prob"]),
                      halluc_rate=float(ds["halluc_rate"]),
                      sharpness=float(ds["sharpness"]))
    return gts, noise


def _gt_arrays(gts):
    return (np.array([[g.box.x1, g.box.y1, g.box.x2, g.box.y2] for g in gts]),
            np.array([g.class_id for g in gts]),
            np.array([g.image_id for g in gts]))


def _cluster_arrays(clusters):
    boxes = np.array([[c.mean_box.x1, c.mean_box.y1, c.mean_box.x2,
                       c.mean_box.y2] for c in clusters]).reshape(-1, 4)
    probs = np.array([np.asarray(c.mean_probs, dtype=np.float64)
                      for c in clusters])
    return boxes, probs, np.array([c.image_id for c in clusters])


def check_detection_row(cfg, gts, kept, point, report) -> list[str]:
    """One fused row against the reference: mAP, TP/FP labels, and the
    calibration columns rescored from the reference labels."""
    gt_boxes, gt_cls, gt_img = _gt_arrays(gts)
    boxes, probs, img = _cluster_arrays(kept)
    problems = []
    want_map = ref.map_50_95(boxes, probs, img, gt_boxes, gt_cls, gt_img,
                             point.conf_threshold)
    if not _close(report.map_50_95, want_map):
        problems.append(f"{point.key()}: mAP {report.map_50_95!r} != "
                        f"reference {want_map!r}")
    tp = ref.greedy_tp(boxes, probs, img, gt_boxes, gt_cls, gt_img,
                       cfg.match_tau)
    got = label_tp_fp(kept, gts, tau=cfg.match_tau)
    if [p.correct for p in got] != tp.tolist():
        problems.append(f"{point.key()}: label_tp_fp TP/FP flags differ "
                        "from the reference matching")
    unc = ref.entropy_bits(probs)
    cls = np.argmax(probs, axis=1)
    want = {"map_50_95": want_map,
            "brier": ref.brier(probs[tp], cls[tp]),
            "ece": ref.ece(probs.max(axis=1), tp, cfg.ece_bins),
            "auarc": ref.auarc(unc, tp),
            "mean_entropy": float(np.mean(unc))}
    for field in METRIC_FIELDS[1:]:
        if not _close(getattr(report, field), want[field]):
            problems.append(f"{point.key()}: {field} "
                            f"{getattr(report, field)!r} != reference "
                            f"{want[field]!r}")
    return problems


def check_detection(cfg, result) -> list[str]:
    """Grid complete, and every row matches the reference on its
    regenerated, fused detections."""
    problems = check_sweep_shape(cfg, result)
    gts, noise = _detection_scene(cfg)
    n_classes = int(cfg.dataset["n_classes"])
    fused = {}
    for point, report in result.points:
        key = (point.method, point.drop_rate, point.T, point.adapted_blocks)
        if key not in fused:
            pass_noise = NoiseSpec(
                box_jitter=noise.box_jitter,
                miss_prob=min(0.95, noise.miss_prob + point.drop_rate),
                halluc_rate=noise.halluc_rate, sharpness=noise.sharpness)
            seed = derived_seed(cfg, "detector", point.method,
                                repr(float(point.drop_rate)),
                                point.adapted_blocks)
            dets = synth_detector(gts, pass_noise, T=point.T, seed=seed,
                                  n_classes=n_classes)
            fused[key] = cluster_all(dets, theta_iou=cfg.theta_iou)
        kept = [c for c in fused[key] if c.confidence >= point.conf_threshold]
        problems += check_detection_row(cfg, gts, kept, point, report)
    return problems + check_noise_free_detector(cfg, gts)


def check_noise_free_detector(cfg, gts) -> list[str]:
    """A detector without jitter, misses or hallucinations fuses to the
    ground truth exactly: mAP 1 and every observation a TP.  Boxes that
    overlap an earlier box of the same image and class at IoU >= theta
    would legitimately fuse together, so the check leaves them out."""
    gt_boxes, gt_cls, gt_img = _gt_arrays(gts)
    ious = ref.iou_matrix(gt_boxes, gt_boxes)
    same = (gt_cls[:, None] == gt_cls[None, :]) & (gt_img[:, None] == gt_img[None, :])
    clash = np.tril(same & (ious >= cfg.theta_iou), k=-1).any(axis=1)
    scene = [g for g, drop in zip(gts, clash) if not drop]
    dets = synth_detector(scene, NoiseSpec(), T=3, seed=cfg.seed,
                          n_classes=int(cfg.dataset["n_classes"]))
    clusters = cluster_all(dets, theta_iou=cfg.theta_iou)
    problems = []
    got = map_50_95(clusters, scene)
    if got != 1.0:
        problems.append(f"noise-free detector scores mAP {got!r}, not 1")
    if not all(p.correct for p in label_tp_fp(clusters, scene, tau=cfg.match_tau)):
        problems.append("noise-free detector has a false positive")
    return problems


def check_repeats(digests: list[str]) -> list[str]:
    """Every repetition of the job left a byte-identical output directory."""
    differing = [i for i, d in enumerate(digests) if d != digests[0]]
    if differing:
        return [f"output directory of job(s) {differing} differs from job 0"]
    return []
