#!/usr/bin/env python3
"""Benchmark for mcuq: end-to-end sweep timings and a traced per-layer run.

    python3 bench/run.py --workload cls-train-sweep --seed 17 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  Each run builds the workload's config from the seed, times whole
jobs (``run_sweep``, plus ``run_shift`` where the workload has one) until
``--seconds`` have passed, checks the outputs, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` traced and untraced jobs
alternate and the metrics are the per-layer ones (see ``tracing.py``).

End-to-end times are scaled to the reference VM's full speed: each is
multiplied by PROBE_REF_S over the mean of ``speed_probe()`` timed just
before and just after it.  The raw wall times are printed too.

Sweep outputs go to a fresh directory under ``.bench_work/`` in the
checkout, which is removed at exit; trace spans go to ``.bench_traces/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread: the network is 16 units wide, so BLAS threads only add
# spin.  Set before numpy is first imported, here and in setup probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

END_TO_END = [("setup_s", "s"), ("job_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]
SETUP_PROBES = 7      # fresh interpreters timed per run for setup_s
PROBE_REF_S = 0.04    # speed_probe() time on the reference VM at full speed
MIN_JOBS = 3          # timed jobs per run, whatever --seconds says
WORKLOADS = ("cls-train-sweep", "cls-mc-eval", "det-fusion-sweep")

PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import mcuq, workloads
workloads.build({name!r}, {seed!r}, {out!r})
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout holding the package source."""
    if not (SRC / "mcuq" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}/mcuq; run from a "
                 "checkout of the repository")


def time_setup(name: str, seed: int, out_dir: Path) -> float:
    """Median over fresh interpreters of importing mcuq and building the
    workload's config and inputs."""
    code = PROBE.format(src=str(SRC), bench=str(ROOT / "bench"), name=name,
                        seed=seed, out=str(out_dir))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def digest_dir(path: Path) -> tuple[str, int]:
    """(sha256 over every file's relative name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        total += len(data)
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def speed_probe() -> float:
    """Seconds a fixed task takes right now: an interpreter loop and small
    matrix products, the same mix of work as a job.  The VM's speed drifts
    by up to 1.5x for seconds to minutes at a time; timings are scaled by
    PROBE_REF_S / probe so that drift cancels."""
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    a = np.full((64, 64), 1.0 / 64)   # rows sum to 1, so products stay 1/64
    for _ in range(800):
        a = a @ a
    return time.perf_counter() - start


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    out_dir = work / "sweep"
    speed_probe()   # warm-up: the first call pays numpy's lazy set-up
    before = speed_probe()
    setup_s = time_setup(args.workload, args.seed, out_dir)
    after = speed_probe()
    setup_scale = 2 * PROBE_REF_S / (before + after)

    import numpy as np
    import mcuq
    if Path(mcuq.__file__).resolve().parent != SRC / "mcuq":
        sys.exit(f"bench: imported mcuq from {mcuq.__file__}, not {SRC}")
    import checks
    import tracing
    import workloads

    inputs = workloads.build(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None

    jobs = []   # (traced, wall s, cpu s, output digest, speed scale)
    first_output = None
    attempted = failed = 0
    per_job_layers, shares = [], []
    start = time.perf_counter()
    before = speed_probe()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        gc.collect()
        t0, c0 = time.perf_counter(), cpu_seconds()
        if traced:
            output = tracer.run(len(jobs), workloads.run_job, inputs)
        else:
            output = workloads.run_job(inputs)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        after = speed_probe()
        scale = 2 * PROBE_REF_S / (before + after)
        before = after
        digest, size = digest_dir(out_dir)
        if jobs:
            shutil.rmtree(out_dir)
        else:   # the checks read the first job's saved models
            out_dir.rename(work / "job0")
        if traced:
            layers, job_shares = tracer.job_metrics(len(jobs), wall)
            layers["harness.io.bytes"] = size
            per_job_layers.append(layers)
            shares.append(job_shares)
        jobs.append((traced, wall, cpu, digest, scale))
        if first_output is None:
            first_output = output
        ops = workloads.operations(inputs)
        attempted += ops
        failed += ops - workloads.succeeded(inputs, output)
        # stop before a job that would end past --seconds; a traced run
        # ends on a traced job, so both kinds have as many jobs
        elapsed = time.perf_counter() - start
        enough = len(jobs) >= MIN_JOBS and (tracer is None or len(jobs) % 2 == 0)
        if enough and elapsed + wall > args.seconds:
            break
    rss = peak_rss_mb()

    problems = workloads.check(inputs, first_output, work / "job0")
    problems += checks.check_repeats([j[3] for j in jobs])
    for problem in problems:
        print(f"check failed: {problem}")
    for name, msg in first_output.result.failures:
        print(f"operation failed: {name}: {msg}")
    if first_output.shift_error:
        print(f"operation failed: shift ladder: {first_output.shift_error}")

    info = {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "jobs": len(jobs), "attempted": attempted, "failed": failed,
            "trace": args.trace, "job_wall_s": [round(j[1], 4) for j in jobs],
            "speed_scale": [round(j[4], 4) for j in jobs],
            "traced_jobs": [j[0] for j in jobs],
            "setup_wall_s": round(setup_s, 4)}
    print("run: " + json.dumps(info))

    if tracer is None:
        values = {"setup_s": setup_s * setup_scale,
                  "job_s": statistics.median(j[1] * j[4] for j in jobs),
                  "cpu_s": statistics.median(j[2] * j[4] for j in jobs),
                  "peak_rss_mb": rss}
        units = dict(END_TO_END)
    else:
        values = tracing.median_metrics(per_job_layers)
        values["trace.overhead_s"] = (
            statistics.median(j[1] * j[4] for j in jobs if j[0])
            - statistics.median(j[1] * j[4] for j in jobs if not j[0]))
        units = dict(tracing.PER_LAYER)
        report_layers(values, units, shares)
        traces = ROOT / ".bench_traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl", info)

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def report_layers(values: dict, units: dict, shares: list[dict]) -> None:
    """Human-readable per-layer table and each layer group's share of a
    traced job (median over traced jobs)."""
    for name, unit in units.items():
        print(f"layer {name:40s} {values[name]:>16.6g} {unit}")
    for group in sorted({g for s in shares for g in s}):
        share = statistics.median(s.get(group, 0.0) for s in shares)
        print(f"share {group:60s} {100 * share:6.1f} %")


if __name__ == "__main__":
    sys.exit(main())
