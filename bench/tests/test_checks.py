"""Each workload check passes on real (reduced) output and rejects a
deliberately perturbed one, so no check passes vacuously."""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads
from conftest import ROOT, SMALL, small_job


def _with_report(out, index, **changes):
    """Copy of a job output with one row's report fields changed."""
    out = copy.deepcopy(out)
    point, report = out.result.points[index]
    out.result.points[index] = (point, dataclasses.replace(report, **changes))
    return out


@pytest.mark.parametrize("seed", [17, 18])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_checks_pass_on_real_output(name, seed, tmp_path):
    inputs, out, out_dir = small_job(name, seed, tmp_path)
    assert workloads.check(inputs, out, out_dir) == []
    assert workloads.succeeded(inputs, out) == workloads.operations(inputs)


def test_classification_rejects_conf_rows_that_differ(small_outputs):
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    _, report = out.result.points[0]
    bad = _with_report(out, 0, brier=report.brier + 1e-9)
    assert any("conf_threshold" in p for p in workloads.check(inputs, bad, out_dir))


def test_classification_rejects_a_row_that_does_not_rescore(small_outputs):
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    _, report = out.result.points[-1]
    for field in checks.METRIC_FIELDS:
        bad = _with_report(out, -1, **{field: getattr(report, field) + 1e-9})
        assert any(f"{field} " in p and "reference" in p
                   for p in workloads.check(inputs, bad, out_dir)), field


def test_classification_rejects_a_row_whose_mc_average_is_wrong(small_outputs):
    # the same wrong value in both conf_threshold rows of a T, as a reused
    # or truncated MC average would give
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    _, report = out.result.points[0]
    bad = _with_report(out, 0, auarc=report.auarc + 1e-9)
    bad = _with_report(bad, 1, auarc=report.auarc + 1e-9)
    problems = workloads.check(inputs, bad, out_dir)
    assert not any("conf_threshold" in p for p in problems)
    assert any("auarc" in p and "reference" in p for p in problems)


def test_shift_check_rejects_a_wrong_middle_level(small_outputs):
    inputs, out, out_dir = small_outputs["cls-mc-eval"]
    bad = copy.deepcopy(out)
    name, acc, ent = bad.shift_rows[2]
    bad.shift_rows[2] = (name, acc, ent * (1 + 1e-9))
    assert any(f"shift {name}" in p for p in workloads.check(inputs, bad, out_dir))


def test_classification_rejects_unnormalised_probabilities(small_outputs):
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    bad = copy.deepcopy(out)
    bad.result.last_predictions[0].probs = bad.result.last_predictions[0].probs * 1.01
    assert any("miss 1" in p for p in workloads.check(inputs, bad, out_dir))


def test_classification_rejects_wrong_labels(small_outputs):
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    bad = copy.deepcopy(out)
    preds = bad.result.last_predictions
    preds[0].true_label = (preds[0].true_label + 1) % 3
    assert any("held-out split" in p for p in workloads.check(inputs, bad, out_dir))


def test_classification_rejects_chance_accuracy_and_missing_rows(small_outputs):
    inputs, out, out_dir = small_outputs["cls-train-sweep"]
    bad = out
    for i in range(len(out.result.points)):
        bad = _with_report(bad, i, map_50_95=1 / 3)
    assert any("median row accuracy" in p
               for p in workloads.check(inputs, bad, out_dir))
    bad = copy.deepcopy(out)
    bad.result.points.pop()
    assert any("rows, expected" in p for p in workloads.check(inputs, bad, out_dir))
    # a failed operation is counted as failed, not reported as a wrong output
    bad.result.failures.append(("MCSD/rate=0.1/blocks=all/T=4/conf=0.5", "x"))
    assert workloads.check(inputs, bad, out_dir) == []
    assert workloads.operations(inputs) - workloads.succeeded(inputs, bad) == 1


def test_shift_check_rejects_a_flat_ladder_and_a_moved_level0(small_outputs):
    inputs, out, out_dir = small_outputs["cls-mc-eval"]
    bad = copy.deepcopy(out)
    name, acc, ent = bad.shift_rows[-1]
    bad.shift_rows[-1] = (name, bad.shift_rows[0][1], ent)
    assert any("not below" in p for p in workloads.check(inputs, bad, out_dir))
    bad = copy.deepcopy(out)
    name, acc, ent = bad.shift_rows[0]
    bad.shift_rows[0] = (name, acc, ent + 1e-12)
    assert any("reproduce" in p for p in workloads.check(inputs, bad, out_dir))
    bad = dataclasses.replace(out, shift_rows=None, shift_error="boom")
    assert workloads.operations(inputs) - workloads.succeeded(inputs, bad) == \
        len(inputs.ladder.levels)


def test_detection_rejects_a_wrong_row(small_outputs):
    inputs, out, out_dir = small_outputs["det-fusion-sweep"]
    _, report = out.result.points[1]
    for field in checks.METRIC_FIELDS:
        bad = _with_report(out, 1, **{field: getattr(report, field) + 1e-9})
        assert any("reference" in p for p in workloads.check(inputs, bad, out_dir)), field
    bad = _with_report(out, 1, map_50_95=float("nan"))
    assert any("nan" in p for p in workloads.check(inputs, bad, out_dir))


def test_detection_rejects_wrong_tp_labels(small_outputs, monkeypatch):
    inputs, out, out_dir = small_outputs["det-fusion-sweep"]
    real = checks.label_tp_fp

    def flipped(items, gts, tau=0.5, mode="softmax"):
        preds = real(items, gts, tau=tau, mode=mode)
        preds[0].correct = not preds[0].correct
        return preds

    monkeypatch.setattr(checks, "label_tp_fp", flipped)
    assert any("TP/FP flags" in p for p in workloads.check(inputs, out, out_dir))


def test_noise_free_detector_check_rejects_a_wrong_map(small_outputs,
                                                       monkeypatch):
    inputs, out, out_dir = small_outputs["det-fusion-sweep"]
    monkeypatch.setattr(checks, "map_50_95", lambda items, gts: 0.99)
    assert any("noise-free" in p for p in workloads.check(inputs, out, out_dir))


def test_repeat_check_rejects_a_changed_output_directory(tmp_path):
    assert checks.check_repeats(["a", "a", "a"]) == []
    assert checks.check_repeats(["a", "b", "a"]) != []
    (tmp_path / "x.csv").write_text("1\n")
    first = run.digest_dir(tmp_path)
    (tmp_path / "x.csv").write_text("2\n")
    assert run.digest_dir(tmp_path)[0] != first[0]


def test_tracer_counts_the_reduced_sweep_and_restores_the_package(tmp_path):
    from mcuq import harness, mc_inference, nn_core
    inputs = workloads.build("cls-train-sweep", 17, tmp_path,
                             overrides=SMALL["cls-train-sweep"])
    tracer = tracing.Tracer()
    tracer.run(0, workloads.run_job, inputs)
    m, shares = tracer.job_metrics(0, job_s=1.0)
    cfg = inputs.cfg
    n_train = cfg.dataset["n"] - round(cfg.test_fraction * cfg.dataset["n"])
    steps = 2 * cfg.train["epochs"] * -(-n_train // cfg.train["batch_size"])
    assert m["nn_core.sgd_step.calls"] == steps
    assert m["stochastic.sample_mask.calls"] == steps + m["mc_inference.passes"]
    # 2 cells x Ts {2, 4} x 2 thresholds; pass t of T=2 repeats T=4's
    assert m["mc_inference.passes"] == 2 * 2 * (2 + 4)
    assert m["mc_inference.useful_pass_ratio"] == pytest.approx(8 / 24)
    assert m["nn_core.forward.calls"] == m["mc_inference.passes"]
    assert m["metrics.entropy_for_mode.calls"] == 8 * round(0.4 * 300)
    assert 0 < sum(shares.values()) <= 1.0
    assert harness.train is nn_core.train
    assert harness.mc_predict is mc_inference.mc_predict


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) \
        == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cls-train-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
