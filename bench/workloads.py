"""The benchmark's workloads: configs built from the workload seed, one job
each through the package's public entry points, and the output checks.

* ``cls-train-sweep`` -- the demos/03 grid with conf_thresholds {0.0, 0.5}:
  6 trainings and 24 rows.  Training dominates, and the repeated
  conf_threshold rows repeat MC inference, so shared-work changes show.
* ``cls-mc-eval`` -- 10,000 blobs with 8,000 held out and 3-epoch training,
  Ts {10, 50}, then a 5-level shift ladder.  MC passes and per-row scoring
  at large n and T dominate.
* ``det-fusion-sweep`` -- 40 images x 5 boxes, no network: synthetic
  detector, BSAS fusion, TP/FP matching and mAP dominate.  The confidence
  threshold is 0.5, not 0.3: with 3 softmax classes every fused
  confidence is at least 1/3, so 0.3 would only repeat the 0.0 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from mcuq import harness
from mcuq.datasets import ShiftSpec

import checks

ARCH = {"n_blocks": 2, "width": 16, "output_mode": "softmax",
        "activation": "relu"}
BLOBS = {"kind": "blobs-classification", "n_classes": 3, "spread": 0.9,
         "label_noise": 0.1}
SHIFT_LEVELS = 5
# Chance is 1/3 with three classes; a working sweep's median row is far
# above it.
MIN_ACCURACY = 0.6


def _config(name: str, seed: int, out_dir: Path) -> dict:
    if name == "cls-train-sweep":
        return dict(task="classification", dataset={**BLOBS, "n": 600},
                    arch=ARCH,
                    train={"learning_rate": 0.03, "weight_decay": 1e-4,
                           "epochs": 80, "batch_size": 32},
                    methods=["MCD", "MCDB", "MCSD"], drop_rates=[0.05, 0.15],
                    Ts=[5, 20], conf_thresholds=[0.0, 0.5],
                    adapted_presets=["all"], out_dir=str(out_dir), seed=seed)
    if name == "cls-mc-eval":
        return dict(task="classification", dataset={**BLOBS, "n": 10_000},
                    arch=ARCH,
                    train={"learning_rate": 0.03, "weight_decay": 1e-4,
                           "epochs": 3, "batch_size": 32},
                    methods=["MCD", "MCDB", "MCSD"], drop_rates=[0.1],
                    Ts=[10, 50], conf_thresholds=[0.0],
                    adapted_presets=["all"], test_fraction=0.8,
                    out_dir=str(out_dir), seed=seed)
    if name == "det-fusion-sweep":
        return dict(task="detection",
                    dataset={"kind": "boxes-detection", "n_images": 40,
                             "boxes_per_image": 5, "n_classes": 3,
                             "box_jitter": 1.0, "miss_prob": 0.05,
                             "halluc_rate": 0.3, "sharpness": 0.9},
                    methods=["MCD", "MCSD"], drop_rates=[0.05, 0.15],
                    Ts=[10, 30], conf_thresholds=[0.0, 0.5],
                    adapted_presets=["all"], out_dir=str(out_dir), seed=seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = ("cls-train-sweep", "cls-mc-eval", "det-fusion-sweep")


@dataclass
class Inputs:
    name: str
    cfg: harness.ExperimentConfig
    ladder: ShiftSpec | None = None


@dataclass
class JobOutput:
    result: harness.SweepResult
    shift_rows: list | None = None
    shift_error: str | None = None


def build(name: str, seed: int, out_dir: Path,
          overrides: dict | None = None) -> Inputs:
    """The workload's config and inputs.  ``overrides`` replaces top-level
    config fields (the benchmark's own tests use it to shrink a workload)."""
    cfg = harness.ExperimentConfig.from_dict(
        {**_config(name, seed, out_dir), **(overrides or {})})
    ladder = None
    if name == "cls-mc-eval":
        ladder = ShiftSpec.default_ladder(n_levels=SHIFT_LEVELS, max_noise=1.5,
                                          max_rotation=50.0, max_drift=1.0)
    return Inputs(name=name, cfg=cfg, ladder=ladder)


def run_job(inputs: Inputs) -> JobOutput:
    """One full job: the sweep, then the shift ladder where the workload
    has one.  A shift run that raises counts its levels as failed."""
    out = JobOutput(result=harness.run_sweep(inputs.cfg))
    if inputs.ladder is not None:
        try:
            out.shift_rows = harness.run_shift(inputs.cfg, inputs.ladder)
        except Exception as exc:  # recorded like a sweep cell failure
            out.shift_error = f"{type(exc).__name__}: {exc}"
    return out


def operations(inputs: Inputs) -> int:
    """Operations one job attempts: trainings, grid points, shift levels."""
    cells, rows = checks.grid_sizes(inputs.cfg)
    trainings = cells if inputs.cfg.task == "classification" else 0
    return trainings + rows + (len(inputs.ladder.levels) if inputs.ladder else 0)


def succeeded(inputs: Inputs, out: JobOutput) -> int:
    shift_ok = len(out.shift_rows) if out.shift_rows is not None else 0
    return out.result.n_training_runs + len(out.result.points) + shift_ok


def check(inputs: Inputs, out: JobOutput, out_dir: Path) -> list[str]:
    """Problems with the outputs of one job's operations that did not fail;
    ``out_dir`` holds its sweep files."""
    cfg = inputs.cfg
    if cfg.task == "detection":
        return checks.check_detection(cfg, out.result)
    problems = checks.check_classification(cfg, out.result, out_dir,
                                           MIN_ACCURACY)
    if out.shift_rows is not None:
        problems += checks.check_shift(cfg, out.result, out.shift_rows,
                                       inputs.ladder, out_dir)
    return problems
