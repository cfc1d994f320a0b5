"""Synthetic datasets and parametric input corruptions.

Three generators: Gaussian blobs and two-moons for classification, and
random box scenes for detection.  All draw from named substreams of one
seed, so regenerating with the same seed gives byte-identical files.

Classification files are CSV with a header ``label,f0,f1,...``; detection
scenes use the ground-truth record format from :mod:`mcuq.detection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detection import IMAGE_SIZE, Box, GroundTruth, save_ground_truths
from .fields import check_keys, choice, number
from .files import write_csv
from .rng import substream

# Generator parameters of each dataset kind, as name: (default, low[,
# high]) with closed bounds.  A parameter must have its default's type.
DATASET_PARAMS = {
    "blobs-classification": {"n": (600, 1), "n_classes": (3, 1),
                             "spread": (0.6, 0), "radius": (3.0, 0),
                             "label_noise": (0.0, 0, 1)},
    "moons-classification": {"n": (600, 1), "noise": (0.1, 0)},
    "boxes-detection": {"n_images": (8, 1), "n_classes": (3, 1),
                        "boxes_per_image": (3, 1)},
}
DATASET_KINDS = tuple(DATASET_PARAMS)
# Range of a ground-truth box's width and height, in coordinate units.
BOX_SIDE = (8.0, 30.0)


def dataset_params(kind: str, params: dict) -> dict:
    """The generator keyword arguments for ``kind``: the table's defaults
    overridden by ``params``, each checked against its type and bounds; a
    positive ``label_noise`` needs another class to flip a label to."""
    table = DATASET_PARAMS[choice("dataset: kind", kind, DATASET_KINDS)]
    check_keys("dataset", params, table)
    out = {key: type(default)(number(
               f"dataset: {key}", params.get(key, default), *bounds,
               integer=isinstance(default, int)))
           for key, (default, *bounds) in table.items()}
    if out.get("label_noise", 0.0) > 0.0 and out["n_classes"] < 2:
        raise ValueError(f"dataset: label_noise {out['label_noise']!r} needs "
                         f"n_classes >= 2, got n_classes {out['n_classes']!r}")
    return out


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
    """One severity step of the corruption ladder.  The noise scale and
    the drift are non-negative magnitudes; the rotation is signed."""

    name: str
    noise_scale: float = 0.0
    rotation_deg: float = 0.0
    drift: float = 0.0       # class-conditional mean shift magnitude

    def __post_init__(self):
        number("shift: noise_scale", self.noise_scale, 0)
        number("shift: rotation_deg", self.rotation_deg)
        number("shift: drift", self.drift, 0)


@dataclass
class ShiftSpec:
    """Ordered corruption levels, mildest first."""

    levels: list[ShiftLevel] = field(default_factory=list)

    @classmethod
    def default_ladder(cls, n_levels: int = 4, max_noise: float = 1.2,
                       max_rotation: float = 40.0,
                       max_drift: float = 0.8) -> "ShiftSpec":
        """``n_levels`` (at least 1) levels from no corruption up to the
        given maxima, which must be non-negative."""
        number("shift: n_levels", n_levels, 1, integer=True)
        number("shift: max_noise", max_noise, 0)
        number("shift: max_rotation", max_rotation, 0)
        number("shift: max_drift", max_drift, 0)
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
    write_csv(path, ["label"] + [f"f{i}" for i in range(X.shape[1])],
              ([int(label)] + [repr(float(v)) for v in row]
               for label, row in zip(y, X)))


def make_dataset(kind: str, params: dict, seed: int,
                 out_dir: str | Path) -> list[Path]:
    """Generate a dataset and write it to ``out_dir``; returns the files
    written.  Parameters are validated before anything touches disk."""
    params = dataset_params(kind, params)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "boxes-detection":
        path = out_dir / "ground_truth.csv"
        save_ground_truths(make_box_scenes(**params, seed=seed), path)
    else:
        make = make_blobs if kind == "blobs-classification" else make_moons
        path = out_dir / f"{kind.split('-')[0]}.csv"  # blobs.csv, moons.csv
        save_classification(*make(**params, seed=seed), path)
    return [path]
