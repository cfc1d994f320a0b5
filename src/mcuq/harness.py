"""Config-driven experiment harness.

Reproduces the experimental shape at desk scale: synthesize data, train one
model per (method, drop rate, adapted-blocks preset) cell, evaluate every
(T, confidence threshold) on the trained model, and emit deterministic CSVs
for Pareto, accuracy-rejection and shift analyses.

Methods map onto mechanisms as MCD = unit-drop, MCDB = block-drop,
MCSD = path-drop.  All randomness flows from the experiment seed through
named substreams, so a full sweep is byte-reproducible.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import metrics as M
from .datasets import (
    ShiftSpec,
    corrupt,
    dataset_params,
    make_blobs,
    make_box_scenes,
    make_moons,
)
from .detection import (
    ClusteredObservation,
    NoiseSpec,
    cluster_all,
    label_tp_fp,
    map_50_95,
    synth_detector,
)
from .mc_inference import mc_predict
from .metrics import ConfigPoint, EvalReport, ScoredPrediction, entropy_for_mode
from .nn_core import (
    ResidualNet,
    TrainConfig,
    check_arch,
    init_net,
    save_checkpoint,
    save_loss_trace,
    train,
)
from .rng import substream
from .stochastic import (
    KIND_BLOCK,
    KIND_PATH,
    KIND_UNIT,
    MODE_MC,
    MODE_TRAINING,
    StochasticSpec,
)

METHOD_KINDS = {"MCD": KIND_UNIT, "MCDB": KIND_BLOCK, "MCSD": KIND_PATH}
PRESETS = ("all", "first-half", "last-half", "single-first", "single-last")
# Dataset kinds each task accepts; the first is the default.
TASK_DATASETS = {"classification": ("blobs-classification",
                                    "moons-classification"),
                 "detection": ("boxes-detection",)}
# Synthetic-detector noise keys a detection dataset may add to the
# generator parameters, with their defaults.
DETECTOR_NOISE = {"box_jitter": 1.0, "miss_prob": 0.05, "halluc_rate": 0.3,
                  "sharpness": 0.9}
ARCH_KEYS = ("n_blocks", "width", "output_mode", "activation")
# The train block's keys; each cell derives its own training seed.
TRAIN_KEYS = ("learning_rate", "weight_decay", "epochs", "batch_size")


def resolve_preset(preset: str, n_blocks: int) -> frozenset[int]:
    """Map an adapted-blocks preset name to 1-based block indices."""
    half = -(-n_blocks // 2)  # ceil
    if preset == "all":
        return frozenset(range(1, n_blocks + 1))
    if preset == "first-half":
        return frozenset(range(1, half + 1))
    if preset == "last-half":
        return frozenset(range(n_blocks - half + 1, n_blocks + 1))
    if preset == "single-first":
        return frozenset({1})
    if preset == "single-last":
        return frozenset({n_blocks})
    raise ValueError(f"unknown adapted-blocks preset {preset!r}; "
                     f"choose from {PRESETS}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_keys(name: str, d, allowed, required) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{name}: {d!r} is not a mapping")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise ValueError(f"{name}: missing key {key!r}")


@dataclass
class ExperimentConfig:
    task: str = "classification"
    dataset: dict = field(default_factory=lambda: {"kind": "blobs-classification"})
    arch: dict = field(default_factory=lambda: {
        "n_blocks": 2, "width": 16, "output_mode": "softmax",
        "activation": "relu"})
    train: dict = field(default_factory=lambda: {
        "learning_rate": 0.05, "weight_decay": 1e-4, "epochs": 30,
        "batch_size": 32})
    methods: list[str] = field(default_factory=lambda: ["MCSD"])
    drop_rates: list[float] = field(default_factory=lambda: [0.1])
    Ts: list[int] = field(default_factory=lambda: [10])
    conf_thresholds: list[float] = field(default_factory=lambda: [0.0])
    adapted_presets: list[str] = field(default_factory=lambda: ["all"])
    block_size: int = 4
    ece_bins: int = 15
    theta_iou: float = 0.5
    match_tau: float = 0.5
    test_fraction: float = 0.4
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("classification", "detection"):
            raise ValueError(f"unknown task {self.task!r}")
        for grid_name in ("methods", "drop_rates", "Ts", "conf_thresholds",
                          "adapted_presets"):
            if not getattr(self, grid_name):
                raise ValueError(f"grid list {grid_name} must be non-empty")
        for m in self.methods:
            if m not in METHOD_KINDS:
                raise ValueError(f"unknown method {m!r}")
        for p in self.adapted_presets:
            if p not in PRESETS:
                raise ValueError(f"unknown preset {p!r}")
        for r in self.drop_rates:
            if not (_is_real(r) and 0.0 <= r < 1.0):
                raise ValueError(f"drop_rates: {r!r} is not in [0, 1)")
        for T in self.Ts:
            if not (_is_int(T) and T >= 1):
                raise ValueError(f"Ts: {T!r} is not a positive integer")
        for name in ("block_size", "ece_bins"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name}: {value!r} is not a positive integer")
        fraction = self.test_fraction
        if not (_is_real(fraction) and 0.0 < fraction < 1.0):
            raise ValueError(f"test_fraction: {fraction!r} is not in (0, 1)")
        for c in self.conf_thresholds:
            if not (_is_real(c) and 0.0 <= c <= 1.0):
                raise ValueError(f"conf_thresholds: {c!r} is not in [0, 1]")
        for name in ("theta_iou", "match_tau"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name}: {value!r} is not in [0, 1]")
        for name, keys, required, check in (
                ("arch", ARCH_KEYS, ("n_blocks", "width"), check_arch),
                ("train", TRAIN_KEYS, ("learning_rate",), TrainConfig)):
            block = getattr(self, name)
            _check_keys(name, block, keys, required)
            try:
                check(**block)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        _dataset_parts(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**known)


def _cell_seed(cfg: ExperimentConfig, *tags) -> int:
    return int(substream(cfg.seed, *tags).integers(2 ** 62))


def _dataset_parts(cfg: ExperimentConfig
                   ) -> tuple[str, dict, NoiseSpec | None]:
    """The dataset kind, its generator parameters and, for detection, the
    synthetic detector's noise; raises ``ValueError`` naming a bad key."""
    ds = dict(cfg.dataset)
    kinds = TASK_DATASETS[cfg.task]
    kind = ds.pop("kind", kinds[0])
    if kind not in kinds:
        raise ValueError(f"dataset: kind {kind!r} is not one of {kinds} "
                         f"(task {cfg.task!r})")
    if cfg.task == "classification":
        return kind, dataset_params(kind, ds), None
    noise = {key: ds.pop(key, default)
             for key, default in DETECTOR_NOISE.items()}
    for key, value in noise.items():
        if not _is_real(value):
            raise ValueError(f"dataset: {key} {value!r} is not a number")
    try:
        noise = NoiseSpec(**{k: float(v) for k, v in noise.items()})
    except ValueError as exc:
        raise ValueError(f"dataset: {exc}") from None
    return kind, dataset_params(kind, ds), noise


def load_task_data(cfg: ExperimentConfig):
    """Build the task dataset from the config's generator parameters:
    ``(train (X, y), test (X, y), n_classes)`` for classification and
    ``(ground truths, detector noise, n_classes)`` for detection."""
    kind, params, noise = _dataset_parts(cfg)
    data_seed = _cell_seed(cfg, "dataset")
    if cfg.task == "detection":
        gts = make_box_scenes(**params, seed=data_seed)
        return gts, noise, params["n_classes"]
    if kind == "moons-classification":
        X, y = make_moons(**params, seed=data_seed)
    else:
        X, y = make_blobs(**params, seed=data_seed)
    n_classes = params.get("n_classes", 2)  # moons are two classes
    perm = substream(cfg.seed, "split").permutation(len(y))
    n_test = int(round(cfg.test_fraction * len(y)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (X[train_idx], y[train_idx]), (X[test_idx], y[test_idx]), n_classes


def score_classification(mean_probs: np.ndarray, labels: np.ndarray,
                         mode: str) -> list[ScoredPrediction]:
    mean_probs = np.asarray(mean_probs)
    labels = np.asarray(labels).astype(np.int64)
    confidence = mean_probs.max(axis=1).tolist()
    correct = (mean_probs.argmax(axis=1) == labels).tolist()
    return [ScoredPrediction(probs=row, confidence=conf, correct=hit,
                             uncertainty=entropy_for_mode(row, mode),
                             true_label=label)
            for row, conf, hit, label in zip(mean_probs, confidence, correct,
                                             labels.tolist())]


def classification_report(mean_probs: np.ndarray, labels: np.ndarray,
                          mode: str, ece_bins: int = 15
                          ) -> tuple[EvalReport, list[ScoredPrediction]]:
    """Metrics for one set of mean predictive probabilities.  The
    performance slot carries plain accuracy for classification."""
    preds = score_classification(mean_probs, labels, mode)
    accuracy = float(np.mean([p.correct for p in preds]))
    report = EvalReport(
        map_50_95=accuracy,
        brier=M.brier(preds),
        ece=M.ece(preds, n_bins=ece_bins),
        auarc=M.auarc(preds),
        mean_entropy=float(np.mean([p.uncertainty for p in preds])))
    return report, preds


def _cell_tags(method: str, drop_rate: float, preset: str
               ) -> tuple[str, str, str]:
    """The substream tags naming one (method, drop rate, preset) cell."""
    return method, repr(float(drop_rate)), preset


def _cell_spec(cfg: ExperimentConfig, method: str, drop_rate: float,
               preset: str, n_blocks: int, mode: str) -> StochasticSpec:
    return StochasticSpec(kind=METHOD_KINDS[method], drop_rate=drop_rate,
                          adapted_blocks=resolve_preset(preset, n_blocks),
                          block_size=cfg.block_size, mode=mode)


def train_cell(cfg: ExperimentConfig, method: str, drop_rate: float,
               preset: str, train_data, n_classes: int
               ) -> tuple[ResidualNet, list[float], StochasticSpec]:
    """Train one sweep cell's model; fully determined by the config.
    Returns the net, its loss trace, and the stochastic spec it trained
    under."""
    cell_seed = _cell_seed(cfg, "cell", *_cell_tags(method, drop_rate, preset))
    # the arch keys are init_net's parameters, checked at config load
    net = init_net(in_dim=train_data[0].shape[1], n_classes=n_classes,
                   seed=cell_seed, **cfg.arch)
    y = train_data[1]
    if net.output_mode == "sigmoid" and y.ndim == 1:
        y = np.eye(n_classes)[y]
    spec = _cell_spec(cfg, method, drop_rate, preset, net.n_blocks,
                      MODE_TRAINING)
    tc = TrainConfig(seed=cell_seed, **cfg.train)
    trace = train(net, (train_data[0], y), tc, stochastic=spec)
    return net, trace, spec


def save_cell(cfg: ExperimentConfig, method: str, net: ResidualNet,
              trace: list[float], spec: StochasticSpec, checkpoint: Path,
              trace_path: Path) -> None:
    """Write a trained cell's checkpoint, echoing its method, stochastic
    spec and train block, and its loss trace, each atomically."""
    echo = {"method": method, "stochastic": spec.to_dict(), "train": cfg.train}
    _atomic(lambda p: save_checkpoint(net, p, config_echo=echo), checkpoint)
    _atomic(lambda p: save_loss_trace(trace, p), trace_path)


def _detection_report(cfg: ExperimentConfig, gts,
                      clusters: list[ClusteredObservation],
                      conf_threshold: float
                      ) -> tuple[EvalReport, list[ScoredPrediction]]:
    mode = cfg.arch.get("output_mode", "softmax")
    kept = [c for c in clusters if c.confidence >= conf_threshold]
    preds = label_tp_fp(kept, gts, tau=cfg.match_tau, mode=mode)
    # calibration over every observation; Brier over true positives, which
    # are the only ones with a defined label
    tp_preds = [p for p in preds if p.correct]
    report = EvalReport(
        map_50_95=map_50_95(kept, gts),
        brier=M.brier(tp_preds),
        ece=M.ece(preds, n_bins=cfg.ece_bins),
        auarc=M.auarc(preds),
        mean_entropy=float(np.mean([p.uncertainty for p in preds])))
    return report, preds


def _cell_evaluator(cfg: ExperimentConfig, data, net: ResidualNet | None,
                    method: str, drop_rate: float, preset: str, max_T: int):
    """Build what one cell needs once; return ``evaluate(T, conf_threshold)
    -> (report, predictions)`` for ``T <= max_T``.  The threshold only
    filters detection observations.  The detector runs once, at ``max_T``:
    pass t draws from its own stream, so the passes with ``pass_index < T``
    are exactly a T-pass run, and each T fuses that prefix once."""
    tags = _cell_tags(method, drop_rate, preset)
    if cfg.task == "classification":
        X, labels = data[1]
        spec = _cell_spec(cfg, method, drop_rate, preset, net.n_blocks,
                          MODE_MC)
        eval_seed = _cell_seed(cfg, "eval", *tags)

        def evaluate(T, conf_threshold):
            summary = mc_predict(net, X, spec, T=T, base_seed=eval_seed)
            return classification_report(summary.mean_probs, labels,
                                         mode=net.output_mode,
                                         ece_bins=cfg.ece_bins)
        return evaluate

    gts, noise, n_classes = data
    # there is no trained vision model for detection; the drop rate instead
    # raises the synthetic detector's miss probability, playing the role a
    # stronger stochastic mechanism would
    noise = replace(noise, miss_prob=min(0.95, noise.miss_prob + drop_rate))
    dets = synth_detector(gts, noise, T=max_T,
                          seed=_cell_seed(cfg, "detector", *tags),
                          n_classes=n_classes,
                          mode=cfg.arch.get("output_mode", "softmax"))
    fused = {}  # T -> clusters, for one T at a time

    def evaluate(T, conf_threshold):
        if T not in fused:
            fused.clear()  # release the previous T's clusters first
            fused[T] = cluster_all([d for d in dets if d.pass_index < T],
                                   theta_iou=cfg.theta_iou)
        return _detection_report(cfg, gts, fused[T], conf_threshold)
    return evaluate


@dataclass
class SweepResult:
    points: list[tuple[ConfigPoint, EvalReport]]
    failures: list[tuple[str, str]]
    n_training_runs: int
    files: list[Path]
    last_predictions: list[ScoredPrediction] = field(default_factory=list)


def first_point(cfg: ExperimentConfig) -> ConfigPoint:
    """The grid point made of each grid list's first entry."""
    return ConfigPoint(method=cfg.methods[0], drop_rate=cfg.drop_rates[0],
                       T=cfg.Ts[0], conf_threshold=cfg.conf_thresholds[0],
                       adapted_blocks=cfg.adapted_presets[0])


def evaluate_point(cfg: ExperimentConfig, net: ResidualNet | None, data,
                   point: ConfigPoint
                   ) -> tuple[EvalReport, list[ScoredPrediction]]:
    """Metrics for one grid point on an already trained net (unused by the
    synthetic detector, so None there).  ``data`` is what
    ``load_task_data`` returns.  A detection point draws and fuses its own
    T passes."""
    evaluate = _cell_evaluator(cfg, data, net, point.method, point.drop_rate,
                               point.adapted_blocks, point.T)
    return evaluate(point.T, point.conf_threshold)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full grid sweep.

    One training run per (method, drop_rate, adapted preset) cell, one
    evaluation per (T, conf_threshold) on that cell's model.  Emits
    reports.csv (all rows), pareto_front.csv (the non-dominated subset) and
    pareto_points.csv / arc_curve.csv plot data.  Failures are recorded
    and the sweep continues: a training error under the cell's name, an
    error building the cell's evaluator (such as a detector error) for
    every row of the cell, and an evaluation error for its row.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points: list[tuple[ConfigPoint, EvalReport]] = []
    failures: list[tuple[str, str]] = []
    n_training_runs = 0
    last_preds: list[ScoredPrediction] = []
    data = load_task_data(cfg)

    for method, drop_rate, preset in product(cfg.methods, cfg.drop_rates,
                                             cfg.adapted_presets):
        cell_name = f"{method}/rate={drop_rate}/blocks={preset}"
        # drop the previous cell's model, passes and clusters first
        net = evaluate = None
        if cfg.task == "classification":
            try:
                net, trace, spec = train_cell(cfg, method, drop_rate, preset,
                                              data[0], data[2])
                n_training_runs += 1
                stem = f"{method}_{drop_rate}_{preset}"
                save_cell(cfg, method, net, trace, spec,
                          out_dir / f"ckpt_{stem}.json",
                          out_dir / f"trace_{stem}.csv")
            except Exception as exc:
                failures.append((cell_name, str(exc)))
                continue
        cell_error = None
        try:
            evaluate = _cell_evaluator(cfg, data, net, method, drop_rate,
                                       preset, max(cfg.Ts))
        except Exception as exc:
            cell_error = str(exc)
        for T, conf_threshold in product(cfg.Ts, cfg.conf_thresholds):
            point = ConfigPoint(method=method, drop_rate=drop_rate, T=T,
                                conf_threshold=conf_threshold,
                                adapted_blocks=preset)
            row_name = f"{cell_name}/T={T}/conf={conf_threshold}"
            if cell_error is not None:
                failures.append((row_name, cell_error))
                continue
            try:
                report, preds = evaluate(T, conf_threshold)
            except Exception as exc:
                failures.append((row_name, str(exc)))
                continue
            points.append((point, report))
            last_preds = preds

    files = []
    if points:
        reports_path = out_dir / "reports.csv"
        _atomic(lambda p: M.save_reports(points, p), reports_path)
        front = M.pareto_front(points)
        front_path = out_dir / "pareto_front.csv"
        _atomic(lambda p: M.save_reports(front, p), front_path)
        files = [reports_path, front_path]
        files += emit_curves(points, last_preds, out_dir=out_dir)
    return SweepResult(points=points, failures=failures,
                       n_training_runs=n_training_runs, files=files,
                       last_predictions=last_preds)


def rerun_row(cfg: ExperimentConfig, point: ConfigPoint) -> EvalReport:
    """Re-run a single emitted row standalone; training and evaluation use
    the same derived seeds, so the metrics reproduce exactly."""
    data = load_task_data(cfg)
    net = None
    if cfg.task == "classification":
        net, _, _ = train_cell(cfg, point.method, point.drop_rate,
                               point.adapted_blocks, data[0], data[2])
    return evaluate_point(cfg, net, data, point)[0]


def run_shift(cfg: ExperimentConfig, shift: ShiftSpec
              ) -> list[tuple[str, float, float]]:
    """Evaluate one trained model across the corruption ladder.

    Returns (level name, accuracy, mean entropy) per level and writes
    shift.csv.  The model is the first grid cell's, trained as the sweep
    trains it.
    """
    if cfg.task != "classification":
        raise ValueError("shift runs are defined for the classification task")
    train_data, (X, labels), n_classes = load_task_data(cfg)
    point = first_point(cfg)
    net, _, _ = train_cell(cfg, point.method, point.drop_rate,
                           point.adapted_blocks, train_data, n_classes)
    rows = []
    for level in shift.levels:
        Xc = corrupt(X, labels, level, seed=_cell_seed(cfg, "shift-noise"))
        # the same eval substream as the sweep, so the zero-corruption level
        # reproduces the in-distribution report exactly
        report, _ = evaluate_point(cfg, net, (train_data, (Xc, labels),
                                              n_classes), point)
        rows.append((level.name, report.map_50_95, report.mean_entropy))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "shift.csv", ["level", "performance", "mean_entropy"],
               [[name, repr(float(perf)), repr(float(ent))]
                for name, perf, ent in rows])
    return rows


def emit_curves(points: list[tuple[ConfigPoint, EvalReport]],
                predictions: list[ScoredPrediction],
                out_dir: str | Path) -> list[Path]:
    """Plot-data files: pareto_points.csv (every configuration with an
    on_front flag) and arc_curve.csv (rejection fraction vs retained
    accuracy for the given predictions; run_sweep passes its most recent
    successful evaluation).  Shift curves are written by run_shift."""
    if not points or not predictions:
        raise ValueError("emit_curves needs non-empty points and predictions")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    front_keys = {cfg.key() for cfg, _ in M.pareto_front(points)}
    files = [out_dir / "pareto_points.csv", out_dir / "arc_curve.csv"]
    _write_csv(files[0], M.REPORT_COLUMNS + ["on_front"],
               [M.report_row(cfg_pt, report)
                + [str(int(cfg_pt.key() in front_keys))]
                for cfg_pt, report in points])
    _write_csv(files[1], ["r", "acc"],
               [[repr(float(r)), repr(float(acc))]
                for r, acc in M.accuracy_rejection_curve(predictions)])
    return files


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)

    _atomic(write, path)


def _atomic(write_fn, path: Path) -> None:
    """Write through a temp file in the same directory, then rename it into
    place.  The temp name is unique per call, so concurrent writers never
    share it, and a failed write leaves nothing behind."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
