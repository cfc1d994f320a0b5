"""Traced mode: per-layer spans and counts, recorded from outside the package.

While a traced job runs, the module-level functions named below are
replaced, at every place the package looks them up at call time, by
wrappers that record a span (name, start, end, parent span, job id) or
just count calls.  Nothing under ``src/`` changes, and the originals are
restored when the job ends.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.

Spans and counts stay in memory; ``write`` saves them once the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# (module that looks the function up, attribute, span name).  A function
# imported by name into several modules is wrapped in each of them.
SPANS = [
    ("mcuq.harness", "run_sweep", "harness.run_sweep"),
    ("mcuq.harness", "run_shift", "harness.run_shift"),
    ("mcuq.harness", "substream", "rng.substream"),
    ("mcuq.nn_core", "substream", "rng.substream"),
    ("mcuq.rng", "substream", "rng.substream"),
    ("mcuq.detection", "substream", "rng.substream"),
    ("mcuq.datasets", "substream", "rng.substream"),
    ("mcuq.nn_core", "sample_mask", "stochastic.sample_mask"),
    ("mcuq.mc_inference", "sample_mask", "stochastic.sample_mask"),
    ("mcuq.harness", "train", "nn_core.train"),
    ("mcuq.nn_core", "sgd_step", "nn_core.sgd_step"),
    ("mcuq.mc_inference", "forward", "nn_core.forward"),
    ("mcuq.harness", "mc_predict", "mc_inference.mc_predict"),
    ("mcuq.harness", "classification_report", "harness.classification_report"),
    ("mcuq.metrics", "brier", "metrics.brier"),
    ("mcuq.metrics", "ece", "metrics.ece"),
    ("mcuq.metrics", "auarc", "metrics.auarc"),
    ("mcuq.harness", "synth_detector", "detection.synth_detector"),
    ("mcuq.harness", "cluster_all", "detection.cluster_all"),
    ("mcuq.harness", "label_tp_fp", "detection.label_tp_fp"),
    ("mcuq.harness", "map_50_95", "detection.map_50_95"),
    ("mcuq.harness", "make_blobs", "datasets.make_blobs"),
    ("mcuq.harness", "make_moons", "datasets.make_moons"),
    ("mcuq.harness", "make_box_scenes", "datasets.make_box_scenes"),
    ("mcuq.harness", "corrupt", "datasets.corrupt"),
    ("mcuq.harness", "save_checkpoint", "harness.io.save_checkpoint"),
    ("mcuq.harness", "save_loss_trace", "harness.io.save_loss_trace"),
    ("mcuq.metrics", "save_reports", "harness.io.save_reports"),
    ("mcuq.harness", "emit_curves", "harness.io.emit_curves"),
]
# Called too often for a span each; only their calls are counted, and
# their time stays in the caller's self time.
COUNTED = [
    ("mcuq.detection", "iou", "detection.iou"),
    ("mcuq.harness", "entropy_for_mode", "metrics.entropy_for_mode"),
    ("mcuq.detection", "entropy_for_mode", "metrics.entropy_for_mode"),
]

SCORING = {"harness.classification_report", "metrics.brier", "metrics.ece",
           "metrics.auarc"}
ENTRY = {"harness.run_sweep", "harness.run_shift"}

# Per-layer metrics: name, unit.  Ratios name their base in README.md.
PER_LAYER = [
    ("rng.substream.calls", "count"),
    ("rng.substream.self_s", "s"),
    ("stochastic.sample_mask.calls", "count"),
    ("stochastic.sample_mask.self_s", "s"),
    ("nn_core.train.self_s", "s"),
    ("nn_core.train.us_per_step", "us"),
    ("nn_core.sgd_step.calls", "count"),
    ("nn_core.sgd_step.self_s", "s"),
    ("nn_core.forward.calls", "count"),
    ("nn_core.forward.self_s", "s"),
    ("mc_inference.mc_predict.calls", "count"),
    ("mc_inference.mc_predict.self_s", "s"),
    ("mc_inference.passes", "count"),
    ("mc_inference.pass_rows_per_s", "rows/s"),
    ("mc_inference.useful_pass_ratio", "ratio"),
    ("harness.classification_report.self_s", "s"),
    ("metrics.entropy_for_mode.calls", "count"),
    ("metrics.brier.self_s", "s"),
    ("metrics.ece.self_s", "s"),
    ("metrics.auarc.self_s", "s"),
    ("metrics.scored_rows_per_s", "rows/s"),
    ("detection.synth_detector.self_s", "s"),
    ("detection.detections", "count"),
    ("detection.cluster_all.self_s", "s"),
    ("detection.clusters", "count"),
    ("detection.useful_cluster_ratio", "ratio"),
    ("detection.iou.calls", "count"),
    ("detection.label_tp_fp.self_s", "s"),
    ("detection.map_50_95.self_s", "s"),
    ("datasets.self_s", "s"),
    ("harness.run_sweep.self_s", "s"),
    ("harness.io.self_s", "s"),
    ("harness.io.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

# Layer groups for the share table: a span directly under run_sweep or
# run_shift counts, with everything inside it, toward the first group
# whose prefix its name starts with.
ORCHESTRATION = "orchestration (run_sweep/run_shift self, seed derivation)"
GROUPS = [
    ("nn_core.train", "training (nn_core.train with its rng, stochastic calls)"),
    ("mc_inference.", "mc inference (mc_predict with forward, sample_mask)"),
    ("harness.classification_report", "scoring (classification_report, metrics.*)"),
    ("metrics.", "scoring (classification_report, metrics.*)"),
    ("detection.", "detection.*"),
    ("datasets.", "datasets"),
    ("harness.io.", "harness.io"),
    ("rng.", ORCHESTRATION),
]


def _group(name: str) -> str:
    return next(g for prefix, g in GROUPS if name.startswith(prefix))


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans and counts for the jobs passed to ``run``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job, self_s)
        self._stack: list[list] = []
        self._next_id = 0
        self._job = -1
        self._counts: dict[str, int] = defaultdict(int)
        self._pass_keys: set = set()
        self._cluster_keys: set = set()
        self._det_keys: dict[int, tuple] = {}
        self._signatures: dict = {}
        self._saved: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _bind(self, fn, args, kwargs) -> dict:
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        return sig.bind(*args, **kwargs).arguments

    def _before(self, name, fn, args, kwargs):
        """Counts that depend on a call's arguments; runs outside the span."""
        if name == "mc_inference.mc_predict":
            a = self._bind(fn, args, kwargs)
            net, x = a["net"], np.asarray(a["x"])
            self._counts["mc_inference.passes"] += a["T"]
            self._counts["mc_inference.pass_rows"] += a["T"] * len(x)
            key = (_digest(*(p.value for p in net.parameters())), _digest(x),
                   repr(sorted(a["spec"].to_dict().items())), a["base_seed"])
            self._pass_keys.update((key, t) for t in range(a["T"]))
        elif name == "metrics.ece":
            self._counts["metrics.scored_rows"] += len(self._bind(fn, args, kwargs)["preds"])
        elif name == "detection.cluster_all":
            dets = self._bind(fn, args, kwargs)["dets"]
            self._cluster_keys.add(self._det_keys.pop(id(dets), ("unseen", id(dets))))

    def _after(self, name, fn, args, kwargs, result):
        if name == "detection.synth_detector":
            a = self._bind(fn, args, kwargs)
            self._counts["detection.detections"] += len(result)
            self._det_keys[id(result)] = (id(a["scene"]), a["seed"], a["T"])
        elif name == "detection.cluster_all":
            self._counts["detection.clusters"] += len(result)

    def _span(self, name, fn):
        tracer = self
        hooked = name in ("mc_inference.mc_predict", "metrics.ece",
                          "detection.cluster_all", "detection.synth_detector")

        def wrapper(*args, **kwargs):
            if hooked:
                tracer._before(name, fn, args, kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer._job, duration - frame[1]))
            if hooked:
                tracer._after(name, fn, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self):
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def _uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- jobs --------------------------------------------------------------

    def run(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as one traced job; returns its result."""
        self._job = job_id
        self._counts.clear()
        self._pass_keys.clear()
        self._cluster_keys.clear()
        self._det_keys.clear()
        self._install()
        try:
            return fn(*args)
        finally:
            self._uninstall()

    def job_metrics(self, job_id: int, job_s: float) -> tuple[dict, dict]:
        """(per-layer metrics, group shares of the job) for one traced job.
        Must be called before the next job starts."""
        spans = [s for s in self.spans if s[5] == job_id]
        name_of = {s[0]: s[1] for s in spans}
        parent_of = {s[0]: s[4] for s in spans}
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total = defaultdict(float)
        scoring_s = 0.0
        groups = defaultdict(float)
        for span_id, name, start, end, parent, _, own in spans:
            calls[name] += 1
            self_s[name] += own
            total[name] += end - start
            if name in SCORING and not self._has_ancestor(span_id, SCORING,
                                                          name_of, parent_of):
                scoring_s += end - start
            if name in ENTRY:
                groups[ORCHESTRATION] += own
            elif name_of.get(parent) in ENTRY:
                groups[_group(name)] += end - start
        c = self._counts

        def per(a, b):
            return a / b if b else 0.0

        m = {
            "rng.substream.calls": calls["rng.substream"],
            "rng.substream.self_s": self_s["rng.substream"],
            "stochastic.sample_mask.calls": calls["stochastic.sample_mask"],
            "stochastic.sample_mask.self_s": self_s["stochastic.sample_mask"],
            "nn_core.train.self_s": self_s["nn_core.train"],
            "nn_core.train.us_per_step": 1e6 * per(total["nn_core.train"],
                                                   calls["nn_core.sgd_step"]),
            "nn_core.sgd_step.calls": calls["nn_core.sgd_step"],
            "nn_core.sgd_step.self_s": self_s["nn_core.sgd_step"],
            "nn_core.forward.calls": calls["nn_core.forward"],
            "nn_core.forward.self_s": self_s["nn_core.forward"],
            "mc_inference.mc_predict.calls": calls["mc_inference.mc_predict"],
            "mc_inference.mc_predict.self_s": self_s["mc_inference.mc_predict"],
            "mc_inference.passes": c["mc_inference.passes"],
            "mc_inference.pass_rows_per_s": per(c["mc_inference.pass_rows"],
                                                total["mc_inference.mc_predict"]),
            "mc_inference.useful_pass_ratio": per(len(self._pass_keys),
                                                  c["mc_inference.passes"]),
            "harness.classification_report.self_s":
                self_s["harness.classification_report"],
            "metrics.entropy_for_mode.calls": c["metrics.entropy_for_mode"],
            "metrics.brier.self_s": self_s["metrics.brier"],
            "metrics.ece.self_s": self_s["metrics.ece"],
            "metrics.auarc.self_s": self_s["metrics.auarc"],
            "metrics.scored_rows_per_s": per(c["metrics.scored_rows"], scoring_s),
            "detection.synth_detector.self_s": self_s["detection.synth_detector"],
            "detection.detections": c["detection.detections"],
            "detection.cluster_all.self_s": self_s["detection.cluster_all"],
            "detection.clusters": c["detection.clusters"],
            "detection.useful_cluster_ratio": per(len(self._cluster_keys),
                                                  calls["detection.cluster_all"]),
            "detection.iou.calls": c["detection.iou"],
            "detection.label_tp_fp.self_s": self_s["detection.label_tp_fp"],
            "detection.map_50_95.self_s": self_s["detection.map_50_95"],
            "datasets.self_s": sum(v for k, v in self_s.items()
                                   if k.startswith("datasets.")),
            "harness.run_sweep.self_s": self_s["harness.run_sweep"],
            "harness.io.self_s": sum(v for k, v in self_s.items()
                                     if k.startswith("harness.io.")),
        }
        shares = {g: v / job_s for g, v in groups.items()}
        return m, shares

    @staticmethod
    def _has_ancestor(span_id, names, name_of, parent_of) -> bool:
        parent = parent_of[span_id]
        while parent is not None:
            if name_of.get(parent) in names:
                return True
            parent = parent_of.get(parent)
        return False

    def write(self, path, header: dict) -> None:
        """Save the run header and every span, one JSON object a line."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, job, own in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start,
                                    "end": end, "parent": parent, "job": job,
                                    "self_s": own}) + "\n")


def median_metrics(per_job: list[dict]) -> dict:
    """Median of each metric over the traced jobs."""
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
