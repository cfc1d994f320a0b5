"""Command-line entry point.

Subcommands: make-data, train, eval, sweep, shift, select.  A JSON config
file can supply every experiment field; individual flags override it.
Exit codes: 0 success, 1 hard failure, 2 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datasets import DATASET_KINDS, ShiftSpec, make_dataset
from .harness import (
    ExperimentConfig,
    evaluate_point,
    first_point,
    load_task_data,
    run_shift,
    run_sweep,
    train_cell,
)
from .metrics import ipp_distance, ipp_select, load_reports
from .nn_core import load_checkpoint, save_checkpoint, save_loss_trace


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON experiment config")
    p.add_argument("--task", choices=["classification", "detection"])
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--methods", nargs="+")
    p.add_argument("--drop-rates", dest="drop_rates", nargs="+", type=float)
    p.add_argument("--ts", dest="Ts", nargs="+", type=int)
    p.add_argument("--conf-thresholds", dest="conf_thresholds", nargs="+",
                   type=float)
    p.add_argument("--presets", dest="adapted_presets", nargs="+")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
    for name in ("task", "out_dir", "seed", "methods", "drop_rates", "Ts",
                 "conf_thresholds", "adapted_presets"):
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    train_flags = {name: getattr(args, name) for name in
                   ("epochs", "learning_rate", "weight_decay")
                   if getattr(args, name, None) is not None}
    if train_flags:
        # the flags override single keys of the config's train block, or
        # of the default one when the config has none
        raw["train"] = {**raw.get("train", ExperimentConfig().train),
                        **train_flags}
    return ExperimentConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcuq",
        description="Monte Carlo uncertainty quantification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="write a synthetic dataset")
    p.add_argument("--kind", required=True, choices=DATASET_KINDS)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default="{}",
                   help="generator parameters as JSON, e.g. '{\"n\": 400}'")

    p = sub.add_parser("train", help="train one model cell and checkpoint it")
    _add_config_flags(p)
    p.add_argument("--checkpoint", type=Path,
                   help="checkpoint path (default <out>/model.json)")

    p = sub.add_parser("eval", help="evaluate one grid point on a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True, type=Path)

    p = sub.add_parser("sweep", help="run the full hyperparameter sweep")
    _add_config_flags(p)

    p = sub.add_parser("shift", help="evaluate across the corruption ladder")
    _add_config_flags(p)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--max-noise", dest="max_noise", type=float, default=1.2)

    p = sub.add_parser("select",
                       help="pick the configuration closest to the ideal point")
    p.add_argument("--reports", required=True, type=Path)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "make-data":
        files = make_dataset(args.kind, json.loads(args.params), args.seed,
                             args.out)
        for f in files:
            print(f)
        return 0

    if args.command == "select":
        points = load_reports(args.reports)
        if not points:
            raise ValueError("empty report file")
        best = ipp_select(points)
        d = min(ipp_distance(rep) for cfg, rep in points
                if cfg.key() == best.key())
        print(f"selected: method={best.method} drop_rate={best.drop_rate} "
              f"T={best.T} conf_threshold={best.conf_threshold} "
              f"adapted_blocks={best.adapted_blocks} (distance {d:.4f})")
        return 0

    cfg = _build_config(args)

    if args.command == "train":
        if cfg.task != "classification":
            raise ValueError("train applies to the classification task")
        train_data, _, n_classes = load_task_data(cfg)
        point = first_point(cfg)
        net, trace, spec = train_cell(cfg, point.method, point.drop_rate,
                                      point.adapted_blocks, train_data,
                                      n_classes)
        out = args.checkpoint or Path(cfg.out_dir) / "model.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(net, out, config_echo={"experiment": cfg.to_dict(),
                                               "stochastic": spec.to_dict()})
        save_loss_trace(trace, out.with_name(out.stem + "_trace.csv"))
        print(out)
        return 0

    if args.command == "eval":
        net, _ = load_checkpoint(args.checkpoint)
        report, _ = evaluate_point(cfg, net, load_task_data(cfg),
                                   first_point(cfg))
        print(f"performance={report.map_50_95:.4f} brier={report.brier:.4f} "
              f"ece={report.ece:.4f} auarc={report.auarc:.4f} "
              f"mean_entropy={report.mean_entropy:.4f}")
        return 0

    if args.command == "sweep":
        result = run_sweep(cfg)
        for name, message in result.failures:
            print(f"cell failed: {name}: {message}", file=sys.stderr)
        for f in result.files:
            print(f)
        if not result.points:
            return 1
        return 2 if result.failures else 0

    if args.command == "shift":
        shift = ShiftSpec.default_ladder(n_levels=args.levels,
                                         max_noise=args.max_noise)
        rows = run_shift(cfg, shift)
        for name, perf, ent in rows:
            print(f"{name}: performance={perf:.4f} mean_entropy={ent:.4f}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
