"""Command-line entry point.

Subcommands: make-data, train, eval, sweep, shift, select.  A JSON config
file can supply every experiment field; individual flags override it.
Exit codes: 0 success, 1 hard failure, 2 partial sweep failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datasets import DATASET_KINDS, ShiftSpec, make_dataset
from .fields import check_keys, parse_json
from .harness import (
    DEFAULT_TRAIN,
    ExperimentConfig,
    cell_evaluator,
    check_checkpoint,
    first_point,
    load_task_data,
    run_shift,
    run_sweep,
    save_cell,
    train_cell,
)
from .metrics import ipp_distance, ipp_select, load_reports
from .nn_core import load_checkpoint


# The experiment flags of train, eval, sweep and shift.  A flag that is not
# given is absent from the namespace; a given one overrides the config field
# that its dest names, or else that key of the train block.
CONFIG_FLAGS = argparse.ArgumentParser(add_help=False,
                                       argument_default=argparse.SUPPRESS)
CONFIG_FLAGS.add_argument("--config", type=Path, help="JSON experiment config")
CONFIG_FLAGS.add_argument("--task", choices=["classification", "detection"])
CONFIG_FLAGS.add_argument("--out", dest="out_dir")
CONFIG_FLAGS.add_argument("--seed", type=int)
CONFIG_FLAGS.add_argument("--methods", nargs="+")
CONFIG_FLAGS.add_argument("--drop-rates", nargs="+", type=float)
CONFIG_FLAGS.add_argument("--ts", dest="Ts", nargs="+", type=int)
CONFIG_FLAGS.add_argument("--conf-thresholds", nargs="+", type=float)
CONFIG_FLAGS.add_argument("--presets", dest="adapted_presets", nargs="+")
CONFIG_FLAGS.add_argument("--epochs", type=int)
CONFIG_FLAGS.add_argument("--learning-rate", type=float)
CONFIG_FLAGS.add_argument("--weight-decay", type=float)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = vars(args)
    path = flags.get("config")
    raw = parse_json(f"config {path}", path.read_bytes()) if path else {}
    check_keys("config", raw)
    fields = ExperimentConfig.__dataclass_fields__
    raw.update({name: v for name, v in flags.items() if name in fields})
    train = {name: v for name, v in flags.items() if name in DEFAULT_TRAIN}
    if train:  # over the file's train block, or else the default one
        check_keys("train", raw.setdefault("train", DEFAULT_TRAIN))
        raw["train"] = {**raw["train"], **train}
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

    p = sub.add_parser("train", parents=[CONFIG_FLAGS],
                       help="train one model cell and checkpoint it")
    p.add_argument("--checkpoint", type=Path,
                   help="checkpoint path (default <out>/model.json)")

    p = sub.add_parser("eval", parents=[CONFIG_FLAGS],
                       help="evaluate one grid point on a checkpoint")
    p.add_argument("--checkpoint", type=Path, help="classification only")

    sub.add_parser("sweep", parents=[CONFIG_FLAGS],
                   help="run the full hyperparameter sweep")

    p = sub.add_parser("shift", parents=[CONFIG_FLAGS],
                       help="evaluate across the corruption ladder")
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--max-noise", dest="max_noise", type=float, default=1.2)

    p = sub.add_parser("select",
                       help="pick the configuration closest to the ideal point")
    p.add_argument("--reports", required=True, type=Path)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "make-data":
        print(*make_dataset(args.kind, parse_json("--params", args.params),
                            args.seed, args.out), sep="\n")
        return 0

    if args.command == "select":
        points = load_reports(args.reports)
        if not points:
            raise ValueError("empty report file")
        best = ipp_select(points)
        d = min(ipp_distance(rep) for _, rep in points)
        print(f"selected: method={best.method} drop_rate={best.drop_rate} "
              f"T={best.T} conf_threshold={best.conf_threshold} "
              f"adapted_blocks={best.adapted_blocks} (distance {d:.4f})")
        return 0

    cfg = _build_config(args)

    if args.command == "train":
        if cfg.task != "classification":
            raise ValueError("train applies to the classification task")
        point = first_point(cfg)
        net, trace, spec = train_cell(cfg, point, load_task_data(cfg))
        out = args.checkpoint or Path(cfg.out_dir) / "model.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        save_cell(cfg, point.method, net, trace, spec, out,
                  out.with_name(out.stem + "_trace.csv"))
        print(out)
        return 0

    if args.command == "eval":
        if (cfg.task == "classification") != (args.checkpoint is not None):
            need = "takes no" if args.checkpoint else "needs"
            raise ValueError(f"{cfg.task} eval {need} --checkpoint")
        data, point = load_task_data(cfg), first_point(cfg)
        net = None  # the synthetic detector never reads a net
        if args.checkpoint:
            net, echo = load_checkpoint(args.checkpoint)
            check_checkpoint(cfg, data, point, echo)
        report, _ = cell_evaluator(cfg, data, net, point.method,
                                   point.drop_rate, point.adapted_blocks,
                                   [point.T])(point.T, point.conf_threshold)
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
        return 1 if not result.points else 2 if result.failures else 0

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
