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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as M
from .datasets import ShiftSpec, corrupt, make_blobs, make_box_scenes, make_moons
from .detection import (
    ClusteredObservation,
    Detection,
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
    init_net,
    save_checkpoint,
    save_loss_trace,
    train,
)
from .rng import substream
from .stochastic import KIND_BLOCK, KIND_PATH, KIND_UNIT, MODE_MC, StochasticSpec

METHOD_KINDS = {"MCD": KIND_UNIT, "MCDB": KIND_BLOCK, "MCSD": KIND_PATH}
PRESETS = ("all", "first-half", "last-half", "single-first", "single-last")


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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        unknown = set(d) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**known)

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _cell_seed(cfg: ExperimentConfig, *tags) -> int:
    return int(substream(cfg.seed, *tags).integers(2 ** 62))


def load_task_data(cfg: ExperimentConfig):
    """Build the task dataset from the config's generator parameters."""
    ds = dict(cfg.dataset)
    kind = ds.pop("kind", "blobs-classification")
    data_seed = _cell_seed(cfg, "dataset")
    if cfg.task == "classification":
        if kind == "moons-classification":
            X, y = make_moons(n=int(ds.get("n", 600)),
                              noise=float(ds.get("noise", 0.1)),
                              seed=data_seed)
            n_classes = 2
        else:
            n_classes = int(ds.get("n_classes", 3))
            X, y = make_blobs(n=int(ds.get("n", 600)), n_classes=n_classes,
                              spread=float(ds.get("spread", 0.6)),
                              radius=float(ds.get("radius", 3.0)),
                              label_noise=float(ds.get("label_noise", 0.0)),
                              seed=data_seed)
        perm = substream(cfg.seed, "split").permutation(len(y))
        n_test = int(round(cfg.test_fraction * len(y)))
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        return (X[train_idx], y[train_idx]), (X[test_idx], y[test_idx]), n_classes
    n_classes = int(ds.get("n_classes", 3))
    gts = make_box_scenes(n_images=int(ds.get("n_images", 8)),
                          n_classes=n_classes,
                          boxes_per_image=int(ds.get("boxes_per_image", 3)),
                          seed=data_seed)
    noise = NoiseSpec(box_jitter=float(ds.get("box_jitter", 1.0)),
                      miss_prob=float(ds.get("miss_prob", 0.05)),
                      halluc_rate=float(ds.get("halluc_rate", 0.3)),
                      sharpness=float(ds.get("sharpness", 0.9)))
    return gts, noise, n_classes


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


def train_cell(cfg: ExperimentConfig, method: str, drop_rate: float,
               preset: str, train_data, n_classes: int
               ) -> tuple[ResidualNet, list[float], StochasticSpec]:
    """Train one sweep cell's model; fully determined by the config.
    Returns the net, its loss trace, and the stochastic spec it trained
    under."""
    arch = cfg.arch
    cell_seed = _cell_seed(cfg, "cell", method, repr(float(drop_rate)), preset)
    net = init_net(in_dim=train_data[0].shape[1], width=int(arch["width"]),
                   n_blocks=int(arch["n_blocks"]), n_classes=n_classes,
                   output_mode=arch.get("output_mode", "softmax"),
                   activation=arch.get("activation", "relu"),
                   seed=cell_seed)
    y = train_data[1]
    if net.output_mode == "sigmoid" and y.ndim == 1:
        y = np.eye(n_classes)[y]
    spec = StochasticSpec(kind=METHOD_KINDS[method], drop_rate=drop_rate,
                          adapted_blocks=resolve_preset(preset, net.n_blocks),
                          block_size=cfg.block_size)
    tc = TrainConfig(seed=cell_seed, **cfg.train)
    trace = train(net, (train_data[0], y), tc, stochastic=spec)
    return net, trace, spec


def _mc_spec(cfg: ExperimentConfig, method: str, drop_rate: float,
             preset: str, n_blocks: int) -> StochasticSpec:
    return StochasticSpec(kind=METHOD_KINDS[method], drop_rate=drop_rate,
                          adapted_blocks=resolve_preset(preset, n_blocks),
                          block_size=cfg.block_size, mode=MODE_MC)


def _detection_noise(base: NoiseSpec, drop_rate: float) -> NoiseSpec:
    """For the detection task there is no trained vision model; the drop
    rate instead raises the synthetic detector's miss probability, playing
    the role a stronger stochastic mechanism would."""
    return NoiseSpec(box_jitter=base.box_jitter,
                     miss_prob=min(0.95, base.miss_prob + drop_rate),
                     halluc_rate=base.halluc_rate, sharpness=base.sharpness,
                     image_size=base.image_size)


def _detector_passes(cfg: ExperimentConfig, gts, noise: NoiseSpec,
                     n_classes: int, method: str, drop_rate: float,
                     preset: str, T: int) -> list[Detection]:
    """T synthetic passes of one detector cell.  Pass t draws from its own
    stream, so the passes with ``pass_index < T'`` of this run are exactly
    a T'-pass run, detection for detection."""
    pass_seed = _cell_seed(cfg, "detector", method, repr(float(drop_rate)),
                           preset)
    return synth_detector(gts, _detection_noise(noise, drop_rate), T=T,
                          seed=pass_seed, n_classes=n_classes,
                          mode=cfg.arch.get("output_mode", "softmax"))


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
        map_50_95=map_50_95(kept, gts, conf_threshold=conf_threshold),
        brier=M.brier(tp_preds),
        ece=M.ece(preds, n_bins=cfg.ece_bins),
        auarc=M.auarc(preds),
        mean_entropy=float(np.mean([p.uncertainty for p in preds])))
    return report, preds


@dataclass
class SweepResult:
    points: list[tuple[ConfigPoint, EvalReport]]
    failures: list[tuple[str, str]]
    n_training_runs: int
    files: list[Path]
    last_predictions: list[ScoredPrediction] = field(default_factory=list)


def evaluate_point(cfg: ExperimentConfig, net: ResidualNet | None,
                   test_data, n_classes: int, point: ConfigPoint,
                   detection_ctx=None
                   ) -> tuple[EvalReport, list[ScoredPrediction]]:
    """Metrics for one grid point on an already trained (or synthetic)
    model.  The confidence threshold only filters detection observations;
    classification evaluates every test sample."""
    if cfg.task == "detection":
        gts, noise = detection_ctx
        dets = _detector_passes(cfg, gts, noise, n_classes, point.method,
                                point.drop_rate, point.adapted_blocks,
                                point.T)
        clusters = cluster_all(dets, theta_iou=cfg.theta_iou)
        return _detection_report(cfg, gts, clusters, point.conf_threshold)
    spec = _mc_spec(cfg, point.method, point.drop_rate, point.adapted_blocks,
                    net.n_blocks)
    eval_seed = _cell_seed(cfg, "eval", point.method,
                           repr(float(point.drop_rate)), point.adapted_blocks)
    summary = mc_predict(net, test_data[0], spec, T=point.T,
                         base_seed=eval_seed)
    report, preds = classification_report(summary.mean_probs, test_data[1],
                                          mode=net.output_mode,
                                          ece_bins=cfg.ece_bins)
    report.config_echo = point
    return report, preds


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full grid sweep.

    One training run per (method, drop_rate, adapted preset) cell, one
    evaluation per (T, conf_threshold) on that cell's model.  Emits
    reports.csv (all rows), pareto_front.csv (the non-dominated subset) and
    pareto_points.csv / arc_curve.csv plot data.  Cell failures are
    recorded and the sweep continues.

    A detection cell runs the synthetic detector once, at the largest T;
    each T fuses the passes with ``pass_index < T`` once, and every
    confidence threshold filters those clusters.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points: list[tuple[ConfigPoint, EvalReport]] = []
    failures: list[tuple[str, str]] = []
    n_training_runs = 0
    last_preds: list[ScoredPrediction] = []

    if cfg.task == "classification":
        train_data, test_data, n_classes = load_task_data(cfg)
    else:
        gts, noise, n_classes = load_task_data(cfg)
        train_data = test_data = None

    for method in cfg.methods:
        for drop_rate in cfg.drop_rates:
            for preset in cfg.adapted_presets:
                cell_name = f"{method}/rate={drop_rate}/blocks={preset}"
                net = None
                if cfg.task == "classification":
                    try:
                        net, trace, spec = train_cell(cfg, method, drop_rate,
                                                      preset, train_data,
                                                      n_classes)
                        n_training_runs += 1
                        stem = f"{method}_{drop_rate}_{preset}"
                        save_checkpoint(
                            net, out_dir / f"ckpt_{stem}.json",
                            config_echo={"method": method,
                                         "stochastic": spec.to_dict(),
                                         "train": cfg.train})
                        save_loss_trace(trace, out_dir / f"trace_{stem}.csv")
                    except Exception as exc:
                        failures.append((cell_name, str(exc)))
                        continue
                detector_error = None
                if cfg.task == "detection":
                    # one detector run at the largest T serves every T;
                    # drop the previous cell's passes and clusters first
                    dets = clusters = None
                    try:
                        dets = _detector_passes(cfg, gts, noise, n_classes,
                                                method, drop_rate, preset,
                                                max(cfg.Ts))
                    except Exception as exc:
                        detector_error = str(exc)
                for T in cfg.Ts:
                    clusters = None
                    fusion_error = detector_error
                    if cfg.task == "detection" and fusion_error is None:
                        try:
                            clusters = cluster_all(
                                [d for d in dets if d.pass_index < T],
                                theta_iou=cfg.theta_iou)
                        except Exception as exc:
                            fusion_error = str(exc)
                    for conf_threshold in cfg.conf_thresholds:
                        point = ConfigPoint(method=method, drop_rate=drop_rate,
                                            T=T, conf_threshold=conf_threshold,
                                            adapted_blocks=preset)
                        row_name = f"{cell_name}/T={T}/conf={conf_threshold}"
                        if fusion_error is not None:
                            failures.append((row_name, fusion_error))
                            continue
                        try:
                            if cfg.task == "classification":
                                report, preds = evaluate_point(
                                    cfg, net, test_data, n_classes, point)
                            else:
                                report, preds = _detection_report(
                                    cfg, gts, clusters, conf_threshold)
                        except Exception as exc:
                            failures.append((row_name, str(exc)))
                            continue
                        report.config_echo = point
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
    if cfg.task == "classification":
        train_data, test_data, n_classes = load_task_data(cfg)
        net, _, _ = train_cell(cfg, point.method, point.drop_rate,
                               point.adapted_blocks, train_data, n_classes)
        report, _ = evaluate_point(cfg, net, test_data, n_classes, point)
        return report
    gts, noise, n_classes = load_task_data(cfg)
    report, _ = evaluate_point(cfg, None, None, n_classes, point,
                               detection_ctx=(gts, noise))
    return report


def run_shift(cfg: ExperimentConfig, shift: ShiftSpec,
              net: ResidualNet | None = None
              ) -> list[tuple[str, float, float]]:
    """Evaluate one trained model across the corruption ladder.

    Returns (level name, accuracy, mean entropy) per level and writes
    shift.csv.  The model is the first grid cell's unless one is passed in.
    """
    if cfg.task != "classification":
        raise ValueError("shift runs are defined for the classification task")
    train_data, test_data, n_classes = load_task_data(cfg)
    method = cfg.methods[0]
    drop_rate = cfg.drop_rates[0]
    preset = cfg.adapted_presets[0]
    T = cfg.Ts[0]
    if net is None:
        net, _, _ = train_cell(cfg, method, drop_rate, preset, train_data,
                               n_classes)
    spec = _mc_spec(cfg, method, drop_rate, preset, net.n_blocks)
    # the same eval substream as the sweep, so the zero-corruption level
    # reproduces the in-distribution report exactly
    eval_seed = _cell_seed(cfg, "eval", method, repr(float(drop_rate)), preset)
    rows = []
    for level in shift.levels:
        Xc = corrupt(test_data[0], test_data[1], level,
                     seed=_cell_seed(cfg, "shift-noise"))
        summary = mc_predict(net, Xc, spec, T=T, base_seed=eval_seed)
        report, _ = classification_report(summary.mean_probs, test_data[1],
                                          mode=net.output_mode,
                                          ece_bins=cfg.ece_bins)
        rows.append((level.name, report.map_50_95, report.mean_entropy))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["level", "performance", "mean_entropy"])
            for name, perf, ent in rows:
                w.writerow([name, repr(float(perf)), repr(float(ent))])

    _atomic(write, out_dir / "shift.csv")
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

    def write_pareto(path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(M.REPORT_COLUMNS + ["on_front"])
            for cfg_pt, report in points:
                w.writerow(M.report_row(cfg_pt, report)
                           + [str(int(cfg_pt.key() in front_keys))])

    def write_arc(path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["r", "acc"])
            for r, acc in M.accuracy_rejection_curve(predictions):
                w.writerow([repr(float(r)), repr(float(acc))])

    files = [out_dir / "pareto_points.csv", out_dir / "arc_curve.csv"]
    _atomic(write_pareto, files[0])
    _atomic(write_arc, files[1])
    return files


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
