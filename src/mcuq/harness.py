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

from dataclasses import dataclass, field, replace
from functools import partial
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
    NoiseSpec,
    cluster_all,
    label_tp_fp,  # noqa: F401 -- bench/tracing.py times it under this name
    map_50_95,  # noqa: F401 -- likewise
    synth_detector,
    threshold_scorer,
)
from .fields import check_keys, choice, number
from .files import write_csv
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
# The train block's keys with their defaults; each cell derives its own
# training seed.
DEFAULT_TRAIN = {"learning_rate": 0.05, "weight_decay": 1e-4, "epochs": 30,
                 "batch_size": 32}
# The five grid lists, each with the check every one of its values must pass.
GRID_CHECKS = {"methods": partial(choice, choices=METHOD_KINDS),
               "drop_rates": partial(number, lo=0, hi=1, open_hi=True),
               "Ts": partial(number, lo=1, integer=True),
               "conf_thresholds": partial(number, lo=0, hi=1),
               "adapted_presets": partial(choice, choices=PRESETS)}


def resolve_preset(preset: str, n_blocks: int) -> frozenset[int]:
    """Map an adapted-blocks preset name to 1-based block indices."""
    choice("adapted-blocks preset", preset, PRESETS)
    half = -(-n_blocks // 2)  # ceil
    if preset == "all":
        return frozenset(range(1, n_blocks + 1))
    if preset == "first-half":
        return frozenset(range(1, half + 1))
    if preset == "last-half":
        return frozenset(range(n_blocks - half + 1, n_blocks + 1))
    if preset == "single-first":
        return frozenset({1})
    return frozenset({n_blocks})  # single-last


@dataclass
class ExperimentConfig:
    task: str = "classification"
    dataset: dict = field(default_factory=lambda: {"kind": "blobs-classification"})
    arch: dict = field(default_factory=lambda: {"n_blocks": 2, "width": 16})
    train: dict = field(default_factory=lambda: dict(DEFAULT_TRAIN))
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
        choice("task:", self.task, TASK_DATASETS)
        for name, check in GRID_CHECKS.items():
            values = getattr(self, name)
            is_list = isinstance(values, (list, tuple))
            for value in values if is_list else ():
                check(f"{name}:", value)
            # a value that passed its check is hashable
            if not is_list or not values or len(set(values)) < len(values):
                raise ValueError(f"{name}: {values!r} is not a non-empty "
                                 "list of distinct values")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir: {self.out_dir!r} is not a string")
        for name in ("block_size", "ece_bins"):
            number(f"{name}:", getattr(self, name), 1, integer=True)
        number("test_fraction:", self.test_fraction, 0, 1, open_lo=True,
               open_hi=True)
        for name in ("theta_iou", "match_tau"):
            number(f"{name}:", getattr(self, name), 0, 1)
        number("seed:", self.seed, integer=True)
        # each block's missing keys take their defaults here, so every
        # reader of the config sees the same values
        for name, keys, required, fill in (
                ("arch", ARCH_KEYS, ("n_blocks", "width"), check_arch),
                ("train", DEFAULT_TRAIN, ("learning_rate",), _train_block)):
            check_keys(name, getattr(self, name), keys, required)
            try:
                setattr(self, name, fill(**getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        _dataset_parts(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_keys("config", d, cls.__dataclass_fields__)
        return cls(**d)


def _train_block(**block) -> dict:
    """``block`` over ``DEFAULT_TRAIN``, checked by ``TrainConfig``."""
    block = {**DEFAULT_TRAIN, **block}
    TrainConfig(**block)
    return block


def _cell_seed(cfg: ExperimentConfig, *tags) -> int:
    return int(substream(cfg.seed, *tags).integers(2 ** 62))


def _dataset_parts(cfg: ExperimentConfig
                   ) -> tuple[str, dict, NoiseSpec | None]:
    """The dataset kind, its generator parameters and, for detection, the
    synthetic detector's noise; raises ``ValueError`` naming a bad key."""
    check_keys("dataset", cfg.dataset)
    ds = dict(cfg.dataset)
    kinds = TASK_DATASETS[cfg.task]
    kind = choice("dataset: kind", ds.pop("kind", kinds[0]), kinds)
    noise = None
    if cfg.task == "detection":
        try:
            noise = NoiseSpec(**{key: ds.pop(key, default)
                                 for key, default in DETECTOR_NOISE.items()})
        except ValueError as exc:
            raise ValueError(f"dataset: {exc}") from None
    params = dataset_params(kind, ds)
    if cfg.task == "detection" and params["n_classes"] == 1 \
            and cfg.arch["output_mode"] == "softmax":
        raise ValueError("dataset: n_classes 1 needs arch: output_mode "
                         "sigmoid; a one-class softmax is constant")
    n = params.get("n")  # classification only
    if n is not None and not 0 < (n_test := _n_test(cfg, n)) < n:
        raise ValueError(f"test_fraction: {cfg.test_fraction!r} splits n {n} "
                         f"into {n_test} test and {n - n_test} training rows")
    return kind, params, noise


def _n_test(cfg: ExperimentConfig, n: int) -> int:
    return int(round(cfg.test_fraction * n))


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
    n_test = _n_test(cfg, len(y))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (X[train_idx], y[train_idx]), (X[test_idx], y[test_idx]), n_classes


def _report(performance: float, preds: list[ScoredPrediction],
            ece_bins: int) -> EvalReport:
    """The report row of one evaluation: Brier over the predictions that
    carry a true label (every classification row; the true positives of a
    detection run), ECE, AUARC and mean entropy over all of them."""
    return EvalReport(
        map_50_95=performance,
        brier=M.brier([p for p in preds if p.true_label is not None]),
        ece=M.ece(preds, n_bins=ece_bins),
        auarc=M.auarc(preds),
        mean_entropy=float(np.mean([p.uncertainty for p in preds])))


def classification_report(mean_probs: np.ndarray, labels: np.ndarray,
                          mode: str, ece_bins: int = 15
                          ) -> tuple[EvalReport, list[ScoredPrediction]]:
    """Metrics and scored rows for one set of mean predictive
    probabilities.  The performance slot carries plain accuracy for
    classification."""
    mean_probs = np.asarray(mean_probs)
    labels = np.asarray(labels).astype(np.int64)
    hits = mean_probs.argmax(axis=1) == labels
    preds = [ScoredPrediction(probs=row, confidence=conf, correct=hit,
                              uncertainty=entropy_for_mode(row, mode),
                              true_label=label)
             for row, conf, hit, label in zip(
                 mean_probs, mean_probs.max(axis=1).tolist(), hits.tolist(),
                 labels.tolist())]
    return _report(float(np.mean(hits)), preds, ece_bins), preds


def _cell_tags(method: str, drop_rate: float, preset: str
               ) -> tuple[str, str, str]:
    """The substream tags naming one (method, drop rate, preset) cell."""
    return method, repr(float(drop_rate)), preset


def _cell_spec(cfg: ExperimentConfig, method: str, drop_rate: float,
               preset: str) -> StochasticSpec:
    blocks = resolve_preset(preset, cfg.arch["n_blocks"])
    return StochasticSpec(kind=METHOD_KINDS[method], drop_rate=drop_rate,
                          adapted_blocks=blocks, block_size=cfg.block_size)


def _mean_probs(cfg: ExperimentConfig, net: ResidualNet, *cell):
    """``(X, T) -> mean probabilities`` of a cell's MC run on its eval stream."""
    spec = _cell_spec(cfg, *cell)
    seed = _cell_seed(cfg, "eval", *_cell_tags(*cell))
    return lambda X, T: mc_predict(net, X, spec, T=T, base_seed=seed).mean_probs


def train_cells(cfg: ExperimentConfig, cells: list[tuple[str, float, str]],
                train_data, n_classes: int) -> list:
    """Train the (method, drop rate, preset) cells' models in lockstep;
    each is fully determined by the config.  Per cell, the net, its loss
    trace and the stochastic spec it trained under, or the exception that
    stopped its training."""
    X, y = train_data
    if cfg.arch["output_mode"] == "sigmoid" and y.ndim == 1:
        y = np.eye(n_classes)[y]  # one-hot targets
    seeds = [_cell_seed(cfg, "cell", *_cell_tags(*cell)) for cell in cells]
    # the arch keys are init_net's parameters, checked at config load
    nets = [init_net(in_dim=X.shape[1], n_classes=n_classes, seed=seed,
                     **cfg.arch) for seed in seeds]
    specs = [_cell_spec(cfg, *cell) for cell in cells]
    traces = train(nets, (X, y), [TrainConfig(seed=seed, **cfg.train)
                                  for seed in seeds], stochastic=specs)
    return [trace if isinstance(trace, Exception) else (net, trace, spec)
            for net, trace, spec in zip(nets, traces, specs)]


def train_cell(cfg: ExperimentConfig, point: ConfigPoint, data
               ) -> tuple[ResidualNet, list[float], StochasticSpec]:
    """``train_cells`` for ``point``'s cell on what ``load_task_data``
    returns, raising its training error."""
    (result,) = train_cells(cfg, [(point.method, point.drop_rate,
                                   point.adapted_blocks)], data[0], data[2])
    if isinstance(result, Exception):
        raise result
    return result


def save_cell(cfg: ExperimentConfig, method: str, net: ResidualNet,
              trace: list[float], spec: StochasticSpec, checkpoint: Path,
              trace_path: Path) -> None:
    """Write a trained cell's checkpoint, echoing its method, stochastic
    spec and train block, and its loss trace; a failed write leaves
    neither file."""
    echo = {"method": method, "stochastic": spec.to_dict(), "train": cfg.train}
    save_checkpoint(net, checkpoint, config_echo=echo)
    try:
        save_loss_trace(trace, trace_path)
    except BaseException:
        checkpoint.unlink(missing_ok=True)  # a cell is saved whole or not
        raise


def check_checkpoint(cfg: ExperimentConfig, data, point: ConfigPoint,
                     echo: dict) -> None:
    """Reject a checkpoint that does not fit the evaluation: the arch that
    ``load_checkpoint`` returns must match the data's input width and class
    count and the config's arch block and, where echoed, the method and
    stochastic cell (every field but the mode) must match ``point``'s.  The
    ``ValueError`` names each mismatched field with both values."""
    (X, _), _, n_classes = data
    spec = _cell_spec(cfg, point.method, point.drop_rate,
                      point.adapted_blocks).to_dict()
    expected = {"arch": {**cfg.arch, "in_dim": X.shape[1],
                         "n_classes": n_classes},
                "stochastic": {k: v for k, v in spec.items() if k != "mode"}}
    wrong = []
    for section, want in expected.items():
        stored = echo.get(section, want)
        check_keys(f"checkpoint config.{section}", stored)
        wrong += [f"{section}.{key} is {stored.get(key)!r}, expected {value!r}"
                  for key, value in want.items() if stored.get(key) != value]
    if echo.get("method", point.method) != point.method:
        wrong.append(f"method is {echo['method']!r}, "
                     f"expected {point.method!r}")
    if wrong:
        raise ValueError("checkpoint does not fit the config: "
                         + ", ".join(wrong))


def cell_evaluator(cfg: ExperimentConfig, data, net: ResidualNet | None,
                   method: str, drop_rate: float, preset: str, Ts: list[int]):
    """Build what one cell needs once; return ``evaluate(T, conf_threshold) ->
    (report, predictions)`` over ``Ts``; the threshold only filters detection
    observations.  ``data`` is what ``load_task_data`` returns; ``net`` is None
    for detection.  The detector runs once, at ``max(Ts)``: pass t draws from
    its own stream, so the passes with ``pass_index < T`` are exactly a T-pass
    run.  One fusion walk cuts every T's prefix, and each T's
    ``threshold_scorer`` is built the first time that T is evaluated.  A
    detector or fusion error is raised by each T it fails."""
    if cfg.task == "classification":
        X, labels = data[1]
        predict = _mean_probs(cfg, net, method, drop_rate, preset)
        return lambda T, conf_threshold: classification_report(
            predict(X, T), labels, mode=net.output_mode, ece_bins=cfg.ece_bins)

    gts, noise, n_classes = data
    tags = _cell_tags(method, drop_rate, preset)
    # there is no trained vision model for detection; the drop rate instead
    # raises the synthetic detector's miss probability, playing the role a
    # stronger stochastic mechanism would
    noise = replace(noise, miss_prob=min(0.95, noise.miss_prob + drop_rate))
    # T -> its clusters, their scorer once built, or its error
    try:
        dets = synth_detector(gts, noise, T=max(Ts),
                              seed=_cell_seed(cfg, "detector", *tags),
                              n_classes=n_classes,
                              mode=cfg.arch["output_mode"])
        fused = cluster_all(dets, theta_iou=cfg.theta_iou, Ts=Ts)
    except Exception as exc:
        fused = dict.fromkeys(Ts, exc)

    def evaluate(T, conf_threshold):
        if isinstance(fused[T], Exception):
            raise fused[T]
        if isinstance(fused[T], list):
            fused[T] = threshold_scorer(fused[T], gts, cfg.match_tau,
                                        cfg.arch["output_mode"])
        performance, preds = fused[T](conf_threshold)
        return _report(performance, preds, cfg.ece_bins), preds
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


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full grid sweep.

    One training run per (method, drop_rate, adapted preset) cell, all in
    lockstep, then one evaluation per (T, conf_threshold) on that cell's
    model.  Emits reports.csv (all rows), pareto_front.csv (the
    non-dominated subset) and pareto_points.csv / arc_curve.csv plot
    data.  Failures are recorded and the sweep continues: a training
    error under the cell's name, and an evaluation error under its row's;
    a detector error fails every row of its cell, a fusion error every
    row of its T.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each file the sweep owns (these and each cell's checkpoint and trace)
    # is from this run or absent, never an earlier run's
    for name in ("reports.csv", "pareto_front.csv", "pareto_points.csv",
                 "arc_curve.csv"):
        (out_dir / name).unlink(missing_ok=True)
    points: list[tuple[ConfigPoint, EvalReport]] = []
    failures: list[tuple[str, str]] = []
    n_training_runs = 0
    last_preds: list[ScoredPrediction] = []
    data = load_task_data(cfg)
    cells = list(product(cfg.methods, cfg.drop_rates, cfg.adapted_presets))
    trained = (train_cells(cfg, cells, data[0], data[2])
               if cfg.task == "classification" else [None] * len(cells))

    for (method, drop_rate, preset), fit in zip(cells, trained):
        cell_name = f"{method}/rate={drop_rate}/blocks={preset}"
        # drop the previous cell's passes and clusters first
        net = evaluate = None
        if cfg.task == "classification":
            stem = f"{method}_{drop_rate}_{preset}"
            cell_files = (out_dir / f"ckpt_{stem}.json",
                          out_dir / f"trace_{stem}.csv")
            for path in cell_files:
                path.unlink(missing_ok=True)
            try:
                if isinstance(fit, Exception):
                    raise fit
                net, trace, spec = fit
                n_training_runs += 1
                save_cell(cfg, method, net, trace, spec, *cell_files)
            except Exception as exc:
                failures.append((cell_name, str(exc)))
                continue
        evaluate = cell_evaluator(cfg, data, net, method, drop_rate, preset,
                                  cfg.Ts)
        for T, conf_threshold in product(cfg.Ts, cfg.conf_thresholds):
            point = ConfigPoint(method=method, drop_rate=drop_rate, T=T,
                                conf_threshold=conf_threshold,
                                adapted_blocks=preset)
            try:
                report, preds = evaluate(T, conf_threshold)
            except Exception as exc:
                failures.append((f"{cell_name}/T={T}/conf={conf_threshold}",
                                 str(exc)))
                continue
            points.append((point, report))
            last_preds = preds

    files = []
    if points:
        files = [out_dir / "reports.csv", out_dir / "pareto_front.csv"]
        M.save_reports(points, files[0])
        M.save_reports(M.pareto_front(points), files[1])
        files += emit_curves(points, last_preds, out_dir=out_dir)
    return SweepResult(points=points, failures=failures,
                       n_training_runs=n_training_runs, files=files,
                       last_predictions=last_preds)


def run_shift(cfg: ExperimentConfig, shift: ShiftSpec
              ) -> list[tuple[str, float, float]]:
    """Evaluate one trained model across the corruption ladder.

    Returns (level name, accuracy, mean entropy) per level and writes
    shift.csv.  The model is the first grid cell's, trained as the sweep
    trains it.
    """
    if cfg.task != "classification":
        raise ValueError("shift runs are defined for the classification task")
    if not shift.levels:
        raise ValueError("shift: the ladder has no levels")
    data = load_task_data(cfg)
    X, labels = data[1]
    point = first_point(cfg)
    net, _, _ = train_cell(cfg, point, data)
    rows = []
    noise_seed = _cell_seed(cfg, "shift-noise")
    # the sweep's eval stream: level 0 reproduces its in-distribution row
    predict = _mean_probs(cfg, net, point.method, point.drop_rate,
                          point.adapted_blocks)
    for level in shift.levels:
        probs = predict(corrupt(X, labels, level, seed=noise_seed), point.T)
        rows.append((level.name, float(np.mean(probs.argmax(axis=1) == labels)),
                     float(np.mean(M.entropies(probs, net.output_mode)))))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "shift.csv", ["level", "performance", "mean_entropy"],
              ([name, repr(float(perf)), repr(float(ent))]
               for name, perf, ent in rows))
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
    write_csv(files[0], [*M.REPORT_COLUMNS, "on_front"],
              (M.report_row(cfg_pt, report)
               + [str(int(cfg_pt.key() in front_keys))]
               for cfg_pt, report in points))
    write_csv(files[1], ["r", "acc"],
              ([repr(float(r)), repr(float(acc))]
               for r, acc in M.accuracy_rejection_curve(predictions)))
    return files

