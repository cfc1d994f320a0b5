import csv
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mcuq import files, harness, nn_core
from mcuq.datasets import ShiftSpec, save_classification
from mcuq.detection import (Box, Detection, GroundTruth, cluster_all,
                            label_tp_fp, map_50_95, save_ground_truths,
                            threshold_scorer)
from mcuq.files import atomic_write
from mcuq.harness import (
    ExperimentConfig,
    emit_curves,
    resolve_preset,
    run_shift,
    run_sweep,
    save_cell,
)
from mcuq.metrics import (
    ConfigPoint,
    EvalReport,
    ScoredPrediction,
    auarc,
    brier,
    ece,
    ipp_select,
    load_reports,
    save_reports,
)
from mcuq.nn_core import (
    TrainConfig,
    init_net,
    save_checkpoint,
    save_loss_trace,
)
from mcuq.stochastic import StochasticSpec


def small_cfg(tmp_path, **overrides):
    base = dict(
        task="classification",
        dataset={"kind": "blobs-classification", "n": 240, "n_classes": 3,
                 "spread": 0.7},
        arch={"n_blocks": 2, "width": 12, "output_mode": "softmax",
              "activation": "relu"},
        train={"learning_rate": 0.05, "weight_decay": 1e-4, "epochs": 12,
               "batch_size": 32},
        methods=["MCSD"], drop_rates=[0.1], Ts=[5], conf_thresholds=[0.0],
        adapted_presets=["all"], out_dir=str(tmp_path / "out"), seed=11)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def det_cfg(tmp_path, **overrides):
    base = dict(
        task="detection",
        dataset={"kind": "boxes-detection", "n_images": 4,
                 "boxes_per_image": 2, "n_classes": 3,
                 "box_jitter": 1.0, "miss_prob": 0.05,
                 "halluc_rate": 0.3, "sharpness": 0.9},
        methods=["MCD"], drop_rates=[0.05, 0.15], Ts=[2, 4],
        conf_thresholds=[0.0, 0.5], adapted_presets=["all"],
        out_dir=str(tmp_path / "det"), seed=9)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def one_point_sweep(cfg, point, out_dir):
    """The sweep of ``point`` alone, into ``out_dir``: a standalone row."""
    return run_sweep(replace(
        cfg, methods=[point.method], drop_rates=[point.drop_rate],
        Ts=[point.T], conf_thresholds=[point.conf_threshold],
        adapted_presets=[point.adapted_blocks], out_dir=str(out_dir)))


class TestPresets:
    def test_mappings(self):
        assert resolve_preset("all", 4) == {1, 2, 3, 4}
        assert resolve_preset("first-half", 4) == {1, 2}
        assert resolve_preset("last-half", 4) == {3, 4}
        assert resolve_preset("first-half", 3) == {1, 2}
        assert resolve_preset("last-half", 3) == {2, 3}
        assert resolve_preset("single-first", 4) == {1}
        assert resolve_preset("single-last", 4) == {4}
        assert resolve_preset("single-first", 1) == {1}

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            resolve_preset("middle", 4)


class TestConfig:
    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            small_cfg(tmp_path, Ts=[])

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            small_cfg(tmp_path, methods=["DROPOUT"])

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"nope": 1})

    @pytest.mark.parametrize("field,value,bad", [
        ("drop_rates", [0.1, 1.5], "1.5"),
        ("drop_rates", [-0.1], "-0.1"),
        ("drop_rates", [1.0], "1.0"),
        ("drop_rates", ["0.1"], "'0.1'"),
        ("Ts", [0], "0"),
        ("Ts", [5, -3], "-3"),
        ("Ts", [2.5], "2.5"),
        ("Ts", [True], "True"),
        ("block_size", 0, "0"),
        ("block_size", 2.0, "2.0"),
        ("ece_bins", 0, "0"),
        ("ece_bins", 10.0, "10.0"),
        ("test_fraction", 0.0, "0.0"),
        ("test_fraction", 1.0, "1.0"),
        ("test_fraction", 0.999,
         "0.999 splits n 240 into 240 test and 0 training rows"),
        ("test_fraction", 0.001,
         "0.001 splits n 240 into 0 test and 240 training rows"),
        ("conf_thresholds", [0.0, 1.5], "1.5"),
        ("conf_thresholds", [-0.1], "-0.1"),
        ("theta_iou", -1, "-1"),
        ("theta_iou", 1.5, "1.5"),
        ("match_tau", 2.0, "2.0"),
        ("match_tau", "0.5", "'0.5'"),
        ("train", {"lr": 0.05}, "unknown keys ['lr']"),
        ("train", {"epochs": 3}, "missing key 'learning_rate'"),
        ("train", {"learning_rate": "0.05"},
         "learning_rate '0.05' is not a positive number"),
        ("train", {"learning_rate": 0.05, "epochs": -1},
         "epochs -1 is not a non-negative integer"),
        ("train", {"learning_rate": 0.05, "batch_size": 8.0},
         "batch_size 8.0 is not a positive integer"),
        ("arch", {"n_blocks": 2}, "missing key 'width'"),
        ("arch", {"n_blocks": 2, "width": 8, "depth": 3},
         "unknown keys ['depth']"),
        ("arch", {"n_blocks": 0, "width": 8},
         "n_blocks 0 is not a positive integer"),
        ("arch", {"n_blocks": 2_000_000, "width": 1},
         "n_blocks 2000000 is over the cap of 100000"),
        ("arch", {"n_blocks": 2, "width": 8, "output_mode": "tanh"},
         "output_mode 'tanh' is not one of"),
        ("arch", {"n_blocks": 2, "width": 8, "activation": "gelu"},
         "activation 'gelu' is not one of"),
        ("arch", [2, 8], "[2, 8] is not a mapping"),
        ("dataset", {"kind": "blob-classification"},
         "kind 'blob-classification' is not one of"),
        ("dataset", {"kind": "boxes-detection"},
         "kind 'boxes-detection' is not one of"),
        ("dataset", {"kind": "blobs-classification", "n_clases": 3},
         "unknown keys ['n_clases']"),
        ("dataset", {"kind": "moons-classification", "spread": 0.5},
         "unknown keys ['spread']"),
        ("dataset", {"kind": "blobs-classification", "n": 2.5},
         "n 2.5 is not a positive integer"),
        ("dataset", {"kind": "blobs-classification", "spread": "wide"},
         "spread 'wide' is not a non-negative number"),
        ("dataset", {"kind": "blobs-classification", "n_classes": 1,
                     "label_noise": 0.5},
         "label_noise 0.5 needs n_classes >= 2, got n_classes 1"),
        ("Ts", 5, "5 is not a non-empty list of distinct values"),
        ("methods", "MCSD",
         "'MCSD' is not a non-empty list of distinct values"),
        ("drop_rates", [0.1, 0.1],
         "[0.1, 0.1] is not a non-empty list of distinct values"),
        ("Ts", [2, 2], "[2, 2] is not a non-empty list of distinct values"),
        ("adapted_presets", ("all", "all"),
         "('all', 'all') is not a non-empty list of distinct values"),
        ("conf_thresholds", [], "[] is not a non-empty list"),
        ("methods", {"MCSD": 1}, "{'MCSD': 1} is not a non-empty list"),
        ("out_dir", 5, "5 is not a string"),
        ("dataset", 5, "5 is not a mapping"),
        ("dataset", "abc", "'abc' is not a mapping"),
        ("dataset", [["kind", "blobs-classification"], ["n", 50]],
         "[['kind', 'blobs-classification'], ['n', 50]] is not a mapping"),
    ])
    def test_bad_grid_value_rejected_at_load(self, tmp_path, field, value, bad):
        with pytest.raises(ValueError) as err:
            small_cfg(tmp_path, **{field: value})
        assert f"{field}: {bad}" in str(err.value)

    @pytest.mark.parametrize("dataset,bad", [
        ({"kind": "blobs-classification"}, "kind 'blobs-classification'"),
        ({"kind": "boxes-detection", "miss_prob": 1.5},
         "miss_prob 1.5 is not in [0, 1]"),
        ({"kind": "boxes-detection", "box_jitter": "1"},
         "box_jitter '1' is not a non-negative number"),
        ({"kind": "boxes-detection", "n_images": 4, "spread": 0.5},
         "unknown keys ['spread']"),
        ({"kind": "boxes-detection", "n_images": 4, "n_classes": 1},
         "n_classes 1 needs arch: output_mode sigmoid"),
    ])
    def test_bad_detection_dataset_rejected_at_load(self, tmp_path, dataset,
                                                    bad):
        with pytest.raises(ValueError) as err:
            det_cfg(tmp_path, dataset=dataset)
        assert f"dataset: {bad}" in str(err.value)

    def test_one_class_sigmoid_detection_is_scored(self, tmp_path):
        result = run_sweep(det_cfg(
            tmp_path, dataset={"kind": "boxes-detection", "n_images": 4,
                               "n_classes": 1},
            arch={"n_blocks": 2, "width": 16, "output_mode": "sigmoid"}))
        assert result.failures == [] and len(result.points) == 8

    def test_dataset_defaults_follow_the_task(self, tmp_path):
        assert small_cfg(tmp_path, dataset={}).dataset == {}
        assert len(run_sweep(det_cfg(tmp_path, dataset={})).points) == 8

    def test_partial_blocks_take_the_default_keys(self, tmp_path):
        missing = ExperimentConfig(arch={"n_blocks": 1, "width": 4})
        partial = ExperimentConfig(arch={"n_blocks": 1, "width": 4},
                                   train={"learning_rate": 0.05})
        assert TrainConfig(**partial.train) == TrainConfig(**missing.train)
        assert missing.arch == {"n_blocks": 1, "width": 4,
                                "output_mode": "softmax",
                                "activation": "relu"}
        net = init_net(in_dim=2, n_classes=3, seed=0, **missing.arch)
        spec = StochasticSpec(kind="path-drop", drop_rate=0.1)
        echoes = []
        for name, cfg in (("missing", missing), ("partial", partial)):
            ckpt = tmp_path / f"{name}.json"
            save_cell(cfg, "MCSD", net, [0.5], spec, ckpt,
                      tmp_path / f"{name}.csv")
            echoes.append(json.loads(ckpt.read_text())["config"])
        assert echoes[0] == echoes[1]

    def test_smallest_block_size_and_ece_bins_are_accepted(self, tmp_path):
        cfg = small_cfg(tmp_path, block_size=1, ece_bins=1)
        assert (cfg.block_size, cfg.ece_bins) == (1, 1)

    @pytest.mark.parametrize("test_fraction,n_test", [(0.025, 1),
                                                      (0.975, 39)])
    def test_a_split_may_leave_one_row_on_a_side(self, tmp_path,
                                                 test_fraction, n_test):
        cfg = small_cfg(tmp_path, test_fraction=test_fraction, dataset={
            "kind": "blobs-classification", "n": 40})
        train, test, _ = harness.load_task_data(cfg)
        assert (len(test[1]), len(train[1])) == (n_test, 40 - n_test)


def failing_block_drop(nets, data, cfgs, stochastic):
    """``harness.train`` with the block-drop entry of the lockstep call
    failing, as a diverged training run would."""
    traces = nn_core.train(nets, data, cfgs, stochastic=stochastic)
    return [RuntimeError("diverged") if spec.kind == "block-drop" else trace
            for trace, spec in zip(traces, stochastic)]


class TestSweep:
    def test_single_cell_grid_yields_one_row(self, tmp_path):
        result = run_sweep(small_cfg(tmp_path))
        assert len(result.points) == 1
        assert result.failures == []
        assert result.n_training_runs == 1

    def test_checkpoints_reused_across_eval_grid(self, tmp_path):
        result = run_sweep(small_cfg(tmp_path, Ts=[5, 10]))
        assert len(result.points) == 2
        assert result.n_training_runs == 1

    def test_training_count_matches_cells(self, tmp_path):
        result = run_sweep(small_cfg(
            tmp_path, methods=["MCSD", "MCD"], drop_rates=[0.1, 0.2],
            adapted_presets=["all", "single-first"], Ts=[5, 10],
            conf_thresholds=[0.0, 0.3]))
        assert result.n_training_runs == 2 * 2 * 2
        assert len(result.points) == 2 * 2 * 2 * 2 * 2

    def test_end_to_end_smoke_with_selection(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=["MCSD", "MCD", "MCDB"],
                        drop_rates=[0.05, 0.15], Ts=[5, 10])
        result = run_sweep(cfg)
        assert result.failures == []
        assert len(result.points) == 3 * 2 * 2
        loaded = load_reports(f"{cfg.out_dir}/reports.csv")
        assert len(loaded) == len(result.points)
        selected = ipp_select(loaded)
        assert any(cfg_pt == selected for cfg_pt, _ in loaded)

    def test_emitted_front_is_subset_of_reports(self, tmp_path):
        cfg = small_cfg(tmp_path, methods=["MCSD", "MCD"], drop_rates=[0.1, 0.3])
        run_sweep(cfg)
        reports = {c.key() for c, _ in load_reports(f"{cfg.out_dir}/reports.csv")}
        front = {c.key() for c, _ in load_reports(f"{cfg.out_dir}/pareto_front.csv")}
        assert front and front <= reports

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = small_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = small_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        files_a = {p.name: p for p in run_sweep(cfg_a).files}
        files_b = {p.name: p for p in run_sweep(cfg_b).files}
        assert set(files_a) == set(files_b)
        for name in files_a:
            assert files_a[name].read_bytes() == files_b[name].read_bytes()

    def test_row_reruns_standalone(self, tmp_path):
        # training and evaluation reuse the sweep's derived seeds, so every
        # metric of every row reproduces exactly
        for cfg in (small_cfg(tmp_path, Ts=[5, 10], drop_rates=[0.1, 0.2]),
                    det_cfg(tmp_path)):
            result = run_sweep(cfg)
            assert result.failures == [] and len(result.points) >= 4
            for n, (point, report) in enumerate(result.points):
                again = one_point_sweep(cfg, point,
                                        tmp_path / f"{cfg.task}{n}")
                assert again.failures == []
                assert [(vars(p), vars(r)) for p, r in again.points] == [
                    (vars(point), vars(report))]

    def test_failures_recorded_without_aborting(self, tmp_path):
        # a confidence threshold above every cluster confidence leaves
        # nothing to score, which fails that eval point only
        cfg = ExperimentConfig.from_dict(dict(
            task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 0.5, "miss_prob": 0.05,
                     "halluc_rate": 0.2, "sharpness": 0.9},
            methods=["MCSD"], drop_rates=[0.05], Ts=[5],
            conf_thresholds=[0.2, 0.999], adapted_presets=["all"],
            out_dir=str(tmp_path / "det"), seed=4))
        result = run_sweep(cfg)
        assert len(result.points) == 1
        assert result.failures == [("MCSD/rate=0.05/blocks=all/T=5/conf=0.999",
                                    "empty prediction set")]

    def test_training_error_fails_its_cell_without_rows(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(harness, "train", failing_block_drop)
        result = run_sweep(small_cfg(tmp_path, methods=["MCD", "MCDB"],
                                     Ts=[3, 5]))
        assert result.failures == [("MCDB/rate=0.1/blocks=all", "diverged")]
        assert result.n_training_runs == 1
        assert [(p.method, p.T) for p, _ in result.points] == [("MCD", 3),
                                                              ("MCD", 5)]

    def test_rerun_whose_rows_all_fail_leaves_no_summary(self, tmp_path):
        cfg = det_cfg(tmp_path)
        assert {p.name for p in run_sweep(cfg).files} == {
            "reports.csv", "pareto_front.csv", "pareto_points.csv",
            "arc_curve.csv"}
        # no cluster reaches this threshold, so every row fails
        result = run_sweep(det_cfg(tmp_path, conf_thresholds=[0.999]))
        assert result.points == [] and result.files == []
        assert {msg for _, msg in result.failures} == {"empty prediction set"}
        assert list(Path(cfg.out_dir).iterdir()) == []

    def test_rerun_whose_training_fails_leaves_no_cell_files(self, tmp_path,
                                                             monkeypatch):
        cfg = small_cfg(tmp_path, methods=["MCD", "MCDB"],
                        train={"learning_rate": 0.05, "epochs": 2})
        run_sweep(cfg)
        out_dir = Path(cfg.out_dir)
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert {"ckpt_MCDB_0.1_all.json", "trace_MCDB_0.1_all.csv"} <= set(first)
        monkeypatch.setattr(harness, "train", failing_block_drop)
        result = run_sweep(cfg)
        assert result.failures == [("MCDB/rate=0.1/blocks=all", "diverged")]
        again = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert set(again) == set(first) - {"ckpt_MCDB_0.1_all.json",
                                           "trace_MCDB_0.1_all.csv"}
        assert again["ckpt_MCD_0.1_all.json"] == first["ckpt_MCD_0.1_all.json"]
        assert [p.method for p, _ in load_reports(out_dir / "reports.csv")] \
            == ["MCD"]

    def test_detector_error_fails_every_row_of_its_cell(self, tmp_path,
                                                        monkeypatch):
        detect = harness.synth_detector

        def failing_high_rate(gts, noise, **kwargs):
            if noise.miss_prob > 0.1:  # the 0.15 drop-rate cell
                raise RuntimeError("detector down")
            return detect(gts, noise, **kwargs)

        monkeypatch.setattr(harness, "synth_detector", failing_high_rate)
        result = run_sweep(det_cfg(tmp_path))
        assert result.failures == [
            (f"MCD/rate=0.15/blocks=all/T={T}/conf={c}", "detector down")
            for T in (2, 4) for c in (0.0, 0.5)]
        assert {p.drop_rate for p, _ in result.points} == {0.05}
        assert len(result.points) == 4

    def test_fusion_error_fails_every_row_of_its_T(self, tmp_path,
                                                   monkeypatch):
        detect = harness.synth_detector

        class Unreadable:  # probabilities the fusion walk cannot read
            def __init__(self, message):
                self.message = message

            def __array__(self, dtype=None, copy=None):
                raise ValueError(self.message)

        def failing_inside_the_walk(gts, noise, **kwargs):
            dets = detect(gts, noise, **kwargs)
            # image 2 fails at pass 3 and image 1 at pass 4: a T's rows fail
            # with the error of the first image (by id) to fail below T
            for d in dets:
                if (d.image_id, d.pass_index) in ((2, 3), (1, 4)):
                    d.probs = Unreadable(f"image {d.image_id} at pass "
                                         f"{d.pass_index}")
            return dets

        monkeypatch.setattr(harness, "synth_detector", failing_inside_the_walk)
        cfg = det_cfg(tmp_path, Ts=[2, 4, 6])
        result = run_sweep(cfg)
        assert result.failures == [
            (f"MCD/rate={r}/blocks=all/T={T}/conf={c}", message)
            for r in (0.05, 0.15)
            for T, message in ((4, "image 2 at pass 3"),
                               (6, "image 1 at pass 4"))
            for c in (0.0, 0.5)]
        assert {p.T for p, _ in result.points} == {2}
        assert len(result.points) == 4
        # a one-point sweep, fusing its T on its own, fails the same way
        for T in (4, 6):
            name = f"MCD/rate=0.05/blocks=all/T={T}/conf=0.0"
            again = one_point_sweep(cfg, replace(result.points[0][0], T=T),
                                    tmp_path / f"T{T}")
            assert again.points == []
            assert again.failures == [(name, dict(result.failures)[name])]


class TestDetectionSweep:
    def test_detector_miss_probability_caps_at_095(self, tmp_path,
                                                  monkeypatch):
        # miss_prob 0.5 plus drop rate 0.6 runs the detector at 0.95: the
        # cell's rows are those of the detector given 0.95 outright
        cfg = det_cfg(tmp_path, drop_rates=[0.6], dataset={
            "kind": "boxes-detection", "n_images": 4, "boxes_per_image": 2,
            "n_classes": 3, "miss_prob": 0.5})
        detect, seen = harness.synth_detector, []

        def recording(gts, noise, **kwargs):
            seen.append(noise.miss_prob)
            return detect(gts, noise, **kwargs)

        def at_095(gts, noise, **kwargs):
            return detect(gts, replace(noise, miss_prob=0.95), **kwargs)

        monkeypatch.setattr(harness, "synth_detector", recording)
        got = run_sweep(cfg)
        monkeypatch.setattr(harness, "synth_detector", at_095)
        want = run_sweep(replace(cfg, out_dir=str(tmp_path / "want")))
        assert seen == [0.95]
        assert got.failures == want.failures == []
        assert got.points == want.points and len(got.points) == 4

    def test_detection_task_produces_reports(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            task="detection",
            dataset={"kind": "boxes-detection", "n_images": 6,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 1.0, "miss_prob": 0.05,
                     "halluc_rate": 0.3, "sharpness": 0.9},
            methods=["MCSD", "MCD"], drop_rates=[0.05, 0.2], Ts=[5],
            conf_thresholds=[0.2], adapted_presets=["all"],
            out_dir=str(tmp_path / "det"), seed=5))
        result = run_sweep(cfg)
        assert len(result.points) == 4
        for _, report in result.points:
            assert 0.0 <= report.map_50_95 <= 1.0
            assert 0.0 <= report.auarc <= 1.0
        # a higher drop rate misses more objects, so performance drops
        by_rate = {p.drop_rate: r.map_50_95 for p, r in result.points
                   if p.method == "MCSD"}
        assert by_rate[0.2] <= by_rate[0.05]


    def test_one_fusion_serves_every_confidence_threshold(self, tmp_path,
                                                          monkeypatch):
        cfg = ExperimentConfig.from_dict(dict(
            task="detection",
            dataset={"kind": "boxes-detection", "n_images": 5,
                     "boxes_per_image": 3, "n_classes": 3,
                     "box_jitter": 1.0, "miss_prob": 0.05,
                     "halluc_rate": 0.3, "sharpness": 0.9},
            methods=["MCD"], drop_rates=[0.05, 0.15], Ts=[4, 8],
            conf_thresholds=[0.0, 0.5, 0.7], adapted_presets=["all"],
            out_dir=str(tmp_path / "det"), seed=9))
        calls = []
        fuse = harness.cluster_all

        def counting_fuse(*args, **kwargs):
            calls.append(args)
            return fuse(*args, **kwargs)

        monkeypatch.setattr(harness, "cluster_all", counting_fuse)
        result = run_sweep(cfg)
        assert result.failures == []
        assert len(result.points) == 12
        assert len(calls) == 2  # one walk per drop rate, cut at T = 4 and 8
        # each row equals its one-point sweep, which walks its own single T
        for n, (point, report) in enumerate(result.points):
            (again_point, again), = one_point_sweep(
                cfg, point, tmp_path / f"row{n}").points
            assert again_point == point
            for name in ("map_50_95", "brier", "ece", "auarc", "mean_entropy"):
                assert getattr(again, name) == getattr(report, name)

    def test_one_detector_run_per_cell(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(dict(
            task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 1.0, "miss_prob": 0.05,
                     "halluc_rate": 0.3, "sharpness": 0.9},
            methods=["MCD", "MCSD"], drop_rates=[0.05, 0.15], Ts=[4, 8, 2],
            conf_thresholds=[0.0, 0.5], adapted_presets=["all"],
            out_dir=str(tmp_path / "det"), seed=9))
        calls = []
        detect = harness.synth_detector

        def counting_detect(*args, **kwargs):
            calls.append(kwargs["T"])
            return detect(*args, **kwargs)

        monkeypatch.setattr(harness, "synth_detector", counting_detect)
        result = run_sweep(cfg)
        assert result.failures == []
        assert len(result.points) == 24
        assert calls == [8] * 4  # one per (method, rate, preset), at max T

    def test_threshold_keeps_its_equal_and_fails_empty_rows(self, tmp_path,
                                                            monkeypatch):
        # softmax confidences over three classes stay below 0.999
        result = run_sweep(det_cfg(tmp_path, conf_thresholds=[0.0, 0.999]))
        assert result.failures == [
            (f"MCD/rate={r}/blocks=all/T={T}/conf=0.999",
             "empty prediction set") for r in (0.05, 0.15) for T in (2, 4)]
        assert len(result.points) == 4
        # a cluster of peaked detections sits at the sharpness 0.9 exactly;
        # every row, failed or not, is what the single-threshold scorers
        # make of the clusters its threshold keeps, also when the lowest
        # threshold drops clusters
        cfg = det_cfg(tmp_path, conf_thresholds=[0.999, 0.9])
        result, cuts = sweep_with_cuts(cfg, monkeypatch)
        assert any(c.confidence == 0.9 for fused in cuts
                   for clusters in fused.values() for c in clusters)
        assert (result.points, result.failures) \
            == single_threshold_rows(cfg, cuts)
        # and so does a T whose fusion holds no cluster at all
        monkeypatch.setattr(harness, "cluster_all",
                            lambda dets, theta_iou, Ts: dict.fromkeys(Ts, []))
        result = run_sweep(det_cfg(tmp_path))
        assert result.points == [] and len(result.failures) == 8
        assert {message for _, message in result.failures} \
            == {"empty prediction set"}
        # a threshold keeps the observations whose confidence equals it
        g = [GroundTruth(box=Box(0, 0, 10, 10), class_id=0, image_id=0)]
        one = [Detection(box=Box(0, 0, 10, 10), probs=np.array([0.75, 0.25]),
                         pass_index=0, image_id=0)]
        _, preds = threshold_scorer(one, g)(0.75)
        assert [p.correct for p in preds] == [True]

    def test_brier_over_true_positives_calibration_over_all(self, tmp_path,
                                                            monkeypatch):
        for mode in ("softmax", "sigmoid"):
            cfg = det_cfg(tmp_path, conf_thresholds=[0.0, 0.4, 0.6],
                          arch={"n_blocks": 2, "width": 16,
                                "output_mode": mode})
            result, cuts = sweep_with_cuts(cfg, monkeypatch)
            assert result.failures == []
            assert len(result.points) == 12
            assert (result.points, []) == single_threshold_rows(cfg, cuts)
            # the thresholds drop clusters, and the rows hold TPs and FPs
            sizes = {len([c for c in cuts[0][4] if c.confidence >= thr])
                     for thr in cfg.conf_thresholds}
            assert len(sizes) > 1
            gts = harness.load_task_data(cfg)[0]
            _, preds = threshold_scorer(cuts[-1][4], gts, cfg.match_tau,
                                        mode)(0.0)
            assert 0 < sum(p.correct for p in preds) < len(preds)
            assert [p.true_label is not None for p in preds] \
                == [p.correct for p in preds]


def sweep_with_cuts(cfg, monkeypatch):
    """The sweep's result and, per cell in grid order, the ``{T: clusters}``
    that ``cluster_all`` gave it."""
    cuts = []

    def recording_cluster_all(*args, **kwargs):
        cuts.append(cluster_all(*args, **kwargs))
        return dict(cuts[-1])

    monkeypatch.setattr(harness, "cluster_all", recording_cluster_all)
    return run_sweep(cfg), cuts


def single_threshold_rows(cfg, cuts):
    """(points, failures) of a one-method, one-preset detection sweep, each
    row scored by ``label_tp_fp`` and ``map_50_95`` on the clusters of
    confidence >= its threshold, in input order."""
    gts = harness.load_task_data(cfg)[0]
    points, failures = [], []
    for rate, fused in zip(cfg.drop_rates, cuts):
        for T in cfg.Ts:
            for thr in cfg.conf_thresholds:
                kept = [c for c in fused[T] if c.confidence >= thr]
                preds = label_tp_fp(kept, gts, tau=cfg.match_tau,
                                    mode=cfg.arch["output_mode"])
                try:
                    report = EvalReport(
                        map_50_95(kept, gts),
                        brier([p for p in preds if p.true_label is not None]),
                        ece(preds, n_bins=cfg.ece_bins), auarc(preds),
                        float(np.mean([p.uncertainty for p in preds])))
                except ValueError as exc:
                    failures.append((f"MCD/rate={rate}/blocks=all/T={T}/"
                                     f"conf={thr}", str(exc)))
                    continue
                points.append((ConfigPoint("MCD", rate, T, thr, "all"),
                               report))
    return points, failures


WRITER_POINTS = [(ConfigPoint("MCSD", 0.1, 5, 0.0, "all"),
                  EvalReport(0.75, 0.125, 0.0625, 0.5, 0.25)),
                 (ConfigPoint("MCD", 0.2, 10, 0.5, "single-last"),
                  EvalReport(0.5, 0.25, 0.125, 0.375, 1.5))]
WRITER_PREDS = [ScoredPrediction(probs=np.array([0.75, 0.25]), confidence=0.75,
                                 correct=True, uncertainty=0.8, true_label=0),
                ScoredPrediction(probs=np.array([0.5, 0.5]), confidence=0.5,
                                 correct=False, uncertainty=1.0, true_label=1)]


def write_checkpoint(out, monkeypatch):
    net = init_net(in_dim=1, width=1, n_blocks=1, n_classes=2)
    net.values[:] = np.arange(net.values.size) / 4
    save_checkpoint(net, out / "model.json", config_echo={"method": "MCSD"})


def write_shift(out, monkeypatch):
    # fixed MC averages per level, so the bytes pin the writer, not
    # training: 3 of 4 rows right, with entropies 0, 1, 0 and 0 bits
    labels = np.array([0, 0, 1, 1])
    probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])
    monkeypatch.setattr(harness, "load_task_data",
                        lambda cfg: (None, (np.zeros((4, 2)), labels), 2))
    monkeypatch.setattr(harness, "train_cell", lambda *a: (
        SimpleNamespace(output_mode="softmax"), None, None))
    monkeypatch.setattr(harness, "mc_predict",
                        lambda *a, **kw: SimpleNamespace(mean_probs=probs))
    cfg = ExperimentConfig(dataset={"kind": "blobs-classification", "n": 10},
                           out_dir=str(out))
    run_shift(cfg, ShiftSpec.default_ladder(n_levels=2))


REPORT_HEADER = (b"method,drop_rate,T,conf_threshold,adapted_blocks,"
                 b"map_50_95,brier,ece,auarc,mean_entropy")
# Every public writer, as (write(out_dir, monkeypatch), the bytes of each
# file it writes), the bytes those writers produced before they shared
# mcuq.files; the checkpoint's are those of the format that stores the
# values buffer whole, its config (the arch first) before it.
WRITERS = {
    "checkpoint": (write_checkpoint, {"model.json": (
        b'{"config": {"arch": {"in_dim": 1, "width": 1, "n_blocks": 1, '
        b'"n_classes": 2, "output_mode": "softmax", "activation": "relu"}, '
        b'"method": "MCSD"}, "values": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, '
        b'1.5, 1.75, 2.0, 2.25]}')}),
    "loss_trace": (
        lambda out, _: save_loss_trace([0.5, 0.25], out / "trace.csv"),
        {"trace.csv": b"epoch,mean_loss\n0,0.5\n1,0.25\n"}),
    "reports": (
        lambda out, _: save_reports(WRITER_POINTS, out / "reports.csv"),
        {"reports.csv": REPORT_HEADER + b"\n"
         b"MCSD,0.1,5,0.0,all,0.75,0.125,0.0625,0.5,0.25\n"
         b"MCD,0.2,10,0.5,single-last,0.5,0.25,0.125,0.375,1.5\n"}),
    "classification": (
        lambda out, _: save_classification(
            np.array([[0.1, -2.0], [3.0, 0.5]]), np.array([1, 0]),
            out / "blobs.csv"),
        {"blobs.csv": b"label,f0,f1\n1,0.1,-2.0\n0,3.0,0.5\n"}),
    "ground_truths": (
        lambda out, _: save_ground_truths(
            [GroundTruth(Box(1.5, 2.25, 9.75, 12.125), class_id=2,
                         image_id=7),
             GroundTruth(Box(0.0, 10.0, 30.0, 40.5), class_id=0,
                         image_id=0)],
            out / "ground_truth.csv"),
        {"ground_truth.csv":
         b"7,2,1.5,2.25,9.75,12.125\n0,0,0.0,10.0,30.0,40.5\n"}),
    "curves": (
        lambda out, _: emit_curves(WRITER_POINTS, WRITER_PREDS, out),
        {"pareto_points.csv": REPORT_HEADER + b",on_front\n"
         b"MCSD,0.1,5,0.0,all,0.75,0.125,0.0625,0.5,0.25,1\n"
         b"MCD,0.2,10,0.5,single-last,0.5,0.25,0.125,0.375,1.5,0\n",
         "arc_curve.csv": b"r,acc\n0.0,0.5\n0.5,1.0\n"}),
    "shift": (write_shift, {"shift.csv": b"level,performance,mean_entropy\n"
                            b"level0,0.75,0.25\nlevel1,0.75,0.25\n"}),
}


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        (tmp_path / "kept.csv").write_text("old\n")

        def failing(path):
            path.write_text("partial")
            raise RuntimeError("disk full")

        for name in ("new.csv", "kept.csv"):
            with pytest.raises(RuntimeError):
                atomic_write(tmp_path / name, failing)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
        assert (tmp_path / "kept.csv").read_text() == "old\n"

    def test_overlapping_writers_use_distinct_temp_files(self, tmp_path):
        target = tmp_path / "out.csv"
        temps = []

        def inner(path):
            temps.append(path)
            path.write_text("inner")

        def outer(path):
            temps.append(path)
            path.write_text("outer")
            atomic_write(target, inner)  # a second writer while one is open

        atomic_write(target, outer)
        assert temps[0] != temps[1]
        assert all(t.parent == tmp_path for t in temps)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "outer"

    def test_failed_loss_trace_leaves_no_file(self, tmp_path, monkeypatch):
        def disk_full_open(path, *args, **kwargs):  # a partial trace, then
            with open(path, *args, **kwargs) as f:  # the disk fills up
                f.write("epoch,mean_loss\n0,")
            raise OSError("disk full")

        monkeypatch.setattr(files, "open", disk_full_open, raising=False)
        cfg = small_cfg(tmp_path, train={"learning_rate": 0.05, "epochs": 1})
        result = run_sweep(cfg)
        assert result.failures == [("MCSD/rate=0.1/blocks=all", "disk full")]
        out_dir = tmp_path / "out"
        assert list(out_dir.glob("trace_*.csv")) == []
        assert list(out_dir.glob("ckpt_*.json")) == []
        assert list(out_dir.glob("*.tmp")) == []

    def test_failed_checkpoint_leaves_no_file(self, tmp_path, monkeypatch):
        rename = files.os.replace

        def disk_full(src, dst):  # the checkpoint's rename fails
            if Path(dst).name.startswith("ckpt_"):
                raise OSError("disk full")
            rename(src, dst)

        monkeypatch.setattr(files.os, "replace", disk_full)
        cfg = small_cfg(tmp_path, train={"learning_rate": 0.05, "epochs": 1},
                        methods=["MCD", "MCSD"])
        result = run_sweep(cfg)
        assert result.failures == [("MCD/rate=0.1/blocks=all", "disk full"),
                                   ("MCSD/rate=0.1/blocks=all", "disk full")]
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_writer_bytes_are_pinned(self, writer, tmp_path, monkeypatch):
        write, golden = WRITERS[writer]
        write(tmp_path, monkeypatch)
        assert dir_bytes(tmp_path) == golden

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_writer_keeps_earlier_file(self, writer, tmp_path,
                                              monkeypatch):
        write, golden = WRITERS[writer]
        earlier = dict.fromkeys(golden, b"earlier\n")
        for name, data in earlier.items():
            (tmp_path / name).write_bytes(data)

        def disk_full(src, dst):  # the write fails before its rename
            raise OSError("disk full")

        monkeypatch.setattr(files.os, "replace", disk_full)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, monkeypatch)
        assert dir_bytes(tmp_path) == earlier


class TestTaskVariants:
    def test_linear_model_separates_clean_blobs(self, tmp_path):
        # zero class overlap: even a linear net (identity activation)
        # reaches near-perfect accuracy
        cfg = small_cfg(
            tmp_path,
            dataset={"kind": "blobs-classification", "n": 300,
                     "n_classes": 3, "spread": 0.3},
            arch={"n_blocks": 1, "width": 8, "output_mode": "softmax",
                  "activation": "identity"},
            train={"learning_rate": 0.1, "weight_decay": 0.0, "epochs": 25,
                   "batch_size": 32},
            drop_rates=[0.0])
        result = run_sweep(cfg)
        assert result.points[0][1].map_50_95 >= 0.99

    def test_moons_task(self, tmp_path):
        cfg = small_cfg(tmp_path,
                        dataset={"kind": "moons-classification", "n": 400,
                                 "noise": 0.1})
        result = run_sweep(cfg)
        assert result.failures == []
        assert result.points[0][1].map_50_95 > 0.8

    def test_sigmoid_output_mode(self, tmp_path):
        cfg = small_cfg(tmp_path,
                        arch={"n_blocks": 2, "width": 12,
                              "output_mode": "sigmoid",
                              "activation": "relu"})
        result = run_sweep(cfg)
        assert result.failures == []
        report = result.points[0][1]
        assert report.map_50_95 > 0.8
        assert 0.0 <= report.mean_entropy <= 1.0  # mean binary entropy

    def test_detection_sigmoid_mode(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 0.5, "miss_prob": 0.05,
                     "halluc_rate": 0.2, "sharpness": 0.9},
            arch={"n_blocks": 2, "width": 8, "output_mode": "sigmoid",
                  "activation": "relu"},
            methods=["MCSD"], drop_rates=[0.05], Ts=[5],
            conf_thresholds=[0.2], adapted_presets=["all"],
            out_dir=str(tmp_path / "det"), seed=6))
        result = run_sweep(cfg)
        assert result.failures == []
        assert 0.0 <= result.points[0][1].mean_entropy <= 1.0


class TestShift:
    def test_zero_corruption_matches_in_distribution(self, tmp_path):
        cfg = small_cfg(tmp_path)
        spec = ShiftSpec.default_ladder(n_levels=1, max_noise=0.0,
                                        max_rotation=0.0, max_drift=0.0)
        rows = run_shift(cfg, spec)
        result = run_sweep(cfg)
        _, report = result.points[0]
        assert rows[0][1:] == (report.map_50_95, report.mean_entropy)

    def test_empty_ladder_rejected_before_training(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(harness, "train_cell", None)  # never reached
        with pytest.raises(ValueError, match="no levels"):
            run_shift(small_cfg(tmp_path), ShiftSpec())
        assert not (tmp_path / "out" / "shift.csv").exists()

    def test_writes_level_rows(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = run_shift(cfg, ShiftSpec.default_ladder(n_levels=3))
        assert [r[0] for r in rows] == ["level0", "level1", "level2"]
        lines = (tmp_path / "out" / "shift.csv").read_text().splitlines()
        assert lines[0] == "level,performance,mean_entropy"
        # full-precision repr floats, e.g. "level0,0.95,0.1"
        assert lines[1:] == [f"{name},{float(perf)!r},{float(ent)!r}"
                             for name, perf, ent in rows]

    def test_ladder_derives_its_eval_seed_once_and_scores_no_report(
            self, tmp_path, monkeypatch):
        tags = []
        cell_seed = harness._cell_seed

        def counting(cfg, *tag):
            tags.append(tag[0])
            return cell_seed(cfg, *tag)

        def no_report(*a, **kw):
            raise AssertionError("run_shift built a full report")

        monkeypatch.setattr(harness, "_cell_seed", counting)
        monkeypatch.setattr(harness, "classification_report", no_report)
        rows = run_shift(small_cfg(tmp_path),
                         ShiftSpec.default_ladder(n_levels=3))
        assert len(rows) == 3
        assert tags.count("eval") == 1
        assert tags.count("shift-noise") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        # criterion 9 compares run_sweep's directory only
        ladder = ShiftSpec.default_ladder(n_levels=3)
        written = []
        for name in ("a", "b"):
            run_shift(small_cfg(tmp_path, out_dir=str(tmp_path / name)),
                      ladder)
            written.append((tmp_path / name / "shift.csv").read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 4


class TestEmitCurves:
    def test_single_report_single_point(self, tmp_path):
        cfg = small_cfg(tmp_path)
        result = run_sweep(cfg)
        with open(tmp_path / "out" / "pareto_points.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert rows[0]["on_front"] == "1"

    def test_arc_curve_integrates_to_auarc(self, tmp_path):
        cfg = small_cfg(tmp_path)
        result = run_sweep(cfg)
        _, report = result.points[-1]
        with open(tmp_path / "out" / "arc_curve.csv") as f:
            accs = [float(r["acc"]) for r in csv.DictReader(f)]
        assert abs(sum(accs) / len(accs) - report.auarc) <= 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_cfg(tmp_path)
        result = run_sweep(cfg)
        first = {p.name: p.read_bytes() for p in result.files}
        again = emit_curves(result.points, result.last_predictions,
                            out_dir=tmp_path / "out2")
        for p in again:
            assert p.read_bytes() == first[p.name]

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves([], [], out_dir=tmp_path)
