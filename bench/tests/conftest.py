"""Shared set-up for the benchmark's own tests: import paths and reduced
workloads that run in well under a second each.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

# Same shape as the full workloads, shrunk: two model cells, two Ts, and
# both confidence thresholds so the repeat and threshold checks have rows
# to compare.
SMALL = {
    "cls-train-sweep": dict(
        dataset={**workloads.BLOBS, "n": 300},
        train={"learning_rate": 0.03, "weight_decay": 1e-4, "epochs": 10,
               "batch_size": 32},
        methods=["MCD", "MCSD"], drop_rates=[0.1], Ts=[2, 4]),
    "cls-mc-eval": dict(
        dataset={**workloads.BLOBS, "n": 500},
        train={"learning_rate": 0.03, "weight_decay": 1e-4, "epochs": 3,
               "batch_size": 32},
        methods=["MCDB"], Ts=[2, 3]),
    "det-fusion-sweep": dict(
        dataset={"kind": "boxes-detection", "n_images": 4,
                 "boxes_per_image": 3, "n_classes": 3, "box_jitter": 1.0,
                 "miss_prob": 0.05, "halluc_rate": 0.3, "sharpness": 0.9},
        drop_rates=[0.05], Ts=[2, 4]),
}


def small_job(name: str, seed: int, out_dir: Path):
    """(inputs, job output, output directory) of a reduced workload."""
    inputs = workloads.build(name, seed, out_dir, overrides=SMALL[name])
    return inputs, workloads.run_job(inputs), out_dir


@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    """Reduced job output of every workload, seed 17."""
    return {name: small_job(name, 17, tmp_path_factory.mktemp(name))
            for name in workloads.NAMES}
