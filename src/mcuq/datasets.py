"""Synthetic datasets and parametric input corruptions.

Three generators: Gaussian blobs and two-moons for classification, and
random box scenes for detection.  All draw from named substreams of one
seed, so regenerating with the same seed gives byte-identical files.

Classification files are CSV with a header ``label,f0,f1,...``; detection
scenes use the ground-truth record format from :mod:`mcuq.detection`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import IMAGE_SIZE, Box, GroundTruth, save_ground_truths
from .rng import substream

# Generator parameters of each dataset kind, with their defaults; the
# defaults' types are the types a parameter must have.
DATASET_PARAMS = {
    "blobs-classification": {"n": 600, "n_classes": 3, "spread": 0.6,
                             "radius": 3.0, "label_noise": 0.0},
    "moons-classification": {"n": 600, "noise": 0.1},
    "boxes-detection": {"n_images": 8, "n_classes": 3, "boxes_per_image": 3},
}
DATASET_KINDS = tuple(DATASET_PARAMS)
# Range of a ground-truth box's width and height, in coordinate units.
BOX_SIDE = (8.0, 30.0)


def dataset_params(kind: str, params: dict) -> dict:
    """The generator keyword arguments for ``kind``: the table's defaults
    overridden by ``params``.  An unknown kind or key, or a value of the
    wrong type, raises a ``ValueError`` naming it."""
    if kind not in DATASET_PARAMS:
        raise ValueError(f"dataset: unknown kind {kind!r}; "
                         f"choose from {DATASET_KINDS}")
    defaults = DATASET_PARAMS[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"dataset: unknown keys {sorted(unknown)} "
                         f"for kind {kind!r}")
    resolved = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        if isinstance(default, int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dataset: {key} {value!r} is not an integer")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"dataset: {key} {value!r} is not a number")
        resolved[key] = type(default)(value)
    return resolved


def make_blobs(n: int, n_classes: int = 3, spread: float = 0.6,
               radius: float = 3.0, label_noise: float = 0.0,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs with class centers evenly spaced on a circle.

    ``label_noise`` flips that fraction of labels to a uniformly random
    other class.
    """
    rng = substream(seed, "blobs")
    angles = 2 * np.pi * np.arange(n_classes) / n_classes
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = rng.integers(0, n_classes, size=n)
    X = centers[y] + rng.normal(0.0, spread, size=(n, 2))
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        offsets = rng.integers(1, n_classes, size=n)
        y = np.where(flip, (y + offsets) % n_classes, y)
    return X, y.astype(np.int64)


def make_moons(n: int, noise: float = 0.1, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Classic interleaved half-circles, two classes."""
    rng = substream(seed, "moons")
    n_top = n // 2
    n_bot = n - n_top
    t_top = rng.uniform(0, np.pi, n_top)
    t_bot = rng.uniform(0, np.pi, n_bot)
    top = np.stack([np.cos(t_top), np.sin(t_top)], axis=1)
    bot = np.stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)], axis=1)
    X = np.concatenate([top, bot], axis=0)
    X += rng.normal(0.0, noise, size=X.shape)
    y = np.concatenate([np.zeros(n_top, dtype=np.int64),
                        np.ones(n_bot, dtype=np.int64)])
    perm = rng.permutation(n)
    return X[perm], y[perm]


def make_box_scenes(n_images: int, n_classes: int = 3,
                    boxes_per_image: int = 3,
                    seed: int = 0) -> list[GroundTruth]:
    """Random non-degenerate ground-truth boxes with class labels, each
    inside the ``IMAGE_SIZE`` frame."""
    rng = substream(seed, "boxes")
    W, H = IMAGE_SIZE
    gts = []
    for image_id in range(n_images):
        for _ in range(boxes_per_image):
            w = rng.uniform(*BOX_SIDE)
            h = rng.uniform(*BOX_SIDE)
            x1 = rng.uniform(0, W - w)
            y1 = rng.uniform(0, H - h)
            gts.append(GroundTruth(box=Box(x1, y1, x1 + w, y1 + h),
                                   class_id=int(rng.integers(0, n_classes)),
                                   image_id=image_id))
    return gts


@dataclass
class ShiftLevel:
    """One severity step of the corruption ladder."""

    name: str
    noise_scale: float = 0.0
    rotation_deg: float = 0.0
    drift: float = 0.0       # class-conditional mean shift magnitude


@dataclass
class ShiftSpec:
    """Ordered corruption levels, mildest first."""

    levels: list[ShiftLevel] = field(default_factory=list)

    @classmethod
    def default_ladder(cls, n_levels: int = 4, max_noise: float = 1.2,
                       max_rotation: float = 40.0,
                       max_drift: float = 0.8) -> "ShiftSpec":
        levels = []
        for k in range(n_levels):
            frac = k / max(n_levels - 1, 1)
            levels.append(ShiftLevel(name=f"level{k}",
                                     noise_scale=frac * max_noise,
                                     rotation_deg=frac * max_rotation,
                                     drift=frac * max_drift))
        return cls(levels=levels)


def corrupt(X: np.ndarray, y: np.ndarray, level: ShiftLevel,
            seed: int = 0) -> np.ndarray:
    """Apply one corruption level to 2-D features: additive Gaussian noise,
    rotation about the origin, and a class-conditional drift."""
    rng = substream(seed, "corrupt", level.name)
    out = np.asarray(X, dtype=np.float64).copy()
    if level.rotation_deg != 0.0:
        theta = np.deg2rad(level.rotation_deg)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        out = out @ rot.T
    if level.drift != 0.0:
        classes = np.unique(y)
        directions = substream(seed, "drift").normal(size=(len(classes), 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for ci, cls in enumerate(classes):
            out[y == cls] += level.drift * directions[ci]
    if level.noise_scale != 0.0:
        out += rng.normal(0.0, level.noise_scale, size=out.shape)
    return out


def save_classification(X: np.ndarray, y: np.ndarray, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["label"] + [f"f{i}" for i in range(X.shape[1])])
        for label, row in zip(y, X):
            w.writerow([int(label)] + [repr(float(v)) for v in row])


def make_dataset(kind: str, params: dict, seed: int,
                 out_dir: str | Path) -> list[Path]:
    """Generate a dataset and write it to ``out_dir``; returns the files
    written.  Parameters are validated before anything touches disk."""
    params = dataset_params(kind, params)
    out_dir = Path(out_dir)
    if kind == "boxes-detection":
        gts = make_box_scenes(**params, seed=seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "ground_truth.csv"
        save_ground_truths(gts, path)
        return [path]
    if kind == "blobs-classification":
        X, y = make_blobs(**params, seed=seed)
        path = out_dir / "blobs.csv"
    else:
        X, y = make_moons(**params, seed=seed)
        path = out_dir / "moons.csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    save_classification(X, y, path)
    return [path]
