import csv

import numpy as np
import pytest

from mcuq import harness
from mcuq.datasets import ShiftSpec
from mcuq.harness import (
    ExperimentConfig,
    _atomic,
    emit_curves,
    rerun_row,
    resolve_preset,
    run_shift,
    run_sweep,
)
from mcuq.metrics import ipp_select, load_reports


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
         "n 2.5 is not an integer"),
        ("dataset", {"kind": "blobs-classification", "spread": "wide"},
         "spread 'wide' is not a number"),
    ])
    def test_bad_grid_value_rejected_at_load(self, tmp_path, field, value, bad):
        with pytest.raises(ValueError) as err:
            small_cfg(tmp_path, **{field: value})
        assert f"{field}: {bad}" in str(err.value)

    @pytest.mark.parametrize("dataset,bad", [
        ({"kind": "blobs-classification"}, "kind 'blobs-classification'"),
        ({"kind": "boxes-detection", "miss_prob": 1.5},
         "miss_prob must be in [0, 1]"),
        ({"kind": "boxes-detection", "box_jitter": "1"},
         "box_jitter '1' is not a number"),
        ({"kind": "boxes-detection", "n_images": 4, "spread": 0.5},
         "unknown keys ['spread']"),
    ])
    def test_bad_detection_dataset_rejected_at_load(self, tmp_path, dataset,
                                                    bad):
        with pytest.raises(ValueError) as err:
            det_cfg(tmp_path, dataset=dataset)
        assert f"dataset: {bad}" in str(err.value)

    def test_dataset_defaults_follow_the_task(self, tmp_path):
        assert small_cfg(tmp_path, dataset={}).dataset == {}
        assert len(run_sweep(det_cfg(tmp_path, dataset={})).points) == 8


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
        cfg = small_cfg(tmp_path, Ts=[5, 10], drop_rates=[0.1, 0.2])
        result = run_sweep(cfg)
        point, report = result.points[-1]
        again = rerun_row(cfg, point)
        assert abs(again.map_50_95 - report.map_50_95) <= 1e-9
        assert abs(again.ece - report.ece) <= 1e-9
        assert abs(again.auarc - report.auarc) <= 1e-9
        assert abs(again.brier - report.brier) <= 1e-9

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
        fit = harness.train

        def failing_block_drop(net, data, tc, stochastic):
            if stochastic.kind == "block-drop":
                raise RuntimeError("diverged")
            return fit(net, data, tc, stochastic=stochastic)

        monkeypatch.setattr(harness, "train", failing_block_drop)
        result = run_sweep(small_cfg(tmp_path, methods=["MCD", "MCDB"],
                                     Ts=[3, 5]))
        assert result.failures == [("MCDB/rate=0.1/blocks=all", "diverged")]
        assert result.n_training_runs == 1
        assert [(p.method, p.T) for p, _ in result.points] == [("MCD", 3),
                                                              ("MCD", 5)]

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
        fuse = harness.cluster_all

        def failing_long_prefix(dets, **kwargs):
            if any(d.pass_index >= 2 for d in dets):  # every T=4 prefix
                raise ValueError(f"cannot fuse {len(dets)} detections")
            return fuse(dets, **kwargs)

        monkeypatch.setattr(harness, "cluster_all", failing_long_prefix)
        result = run_sweep(det_cfg(tmp_path))
        names = [name for name, _ in result.failures]
        assert names == [f"MCD/rate={r}/blocks=all/T=4/conf={c}"
                         for r in (0.05, 0.15) for c in (0.0, 0.5)]
        for name, message in result.failures:
            assert message.startswith("cannot fuse ")
        # both rows of a T carry the message of that T's one fusion
        assert result.failures[0][1] == result.failures[1][1]
        assert {p.T for p, _ in result.points} == {2}
        assert len(result.points) == 4


class TestDetectionSweep:
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
        assert len(calls) == 4  # one per (drop rate, T)
        # each row equals its standalone rerun, which fuses on its own
        for point, report in result.points:
            again = rerun_row(cfg, point)
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


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        (tmp_path / "kept.csv").write_text("old\n")

        def failing(path):
            path.write_text("partial")
            raise RuntimeError("disk full")

        for name in ("new.csv", "kept.csv"):
            with pytest.raises(RuntimeError):
                _atomic(failing, tmp_path / name)
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
            _atomic(inner, target)  # a second writer while the first is open

        _atomic(outer, target)
        assert temps[0] != temps[1]
        assert all(t.parent == tmp_path for t in temps)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "outer"

    def test_failed_loss_trace_leaves_no_file(self, tmp_path, monkeypatch):
        def partial_trace(trace, path):
            with open(path, "w") as f:
                f.write("epoch,mean_loss\n0,")
            raise OSError("disk full")

        monkeypatch.setattr(harness, "save_loss_trace", partial_trace)
        cfg = small_cfg(tmp_path, train={"learning_rate": 0.05, "epochs": 1})
        result = run_sweep(cfg)
        assert result.failures == [("MCSD/rate=0.1/blocks=all", "disk full")]
        out_dir = tmp_path / "out"
        assert list(out_dir.glob("trace_*.csv")) == []
        assert list(out_dir.glob("*.tmp")) == []


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
        assert rows[0][1] == pytest.approx(report.map_50_95, abs=1e-12)
        assert rows[0][2] == pytest.approx(report.mean_entropy, abs=1e-12)

    def test_writes_level_rows(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = run_shift(cfg, ShiftSpec.default_ladder(n_levels=3))
        assert [r[0] for r in rows] == ["level0", "level1", "level2"]
        lines = (tmp_path / "out" / "shift.csv").read_text().splitlines()
        assert lines[0] == "level,performance,mean_entropy"
        # full-precision repr floats, e.g. "level0,0.95,0.1"
        assert lines[1:] == [f"{name},{float(perf)!r},{float(ent)!r}"
                             for name, perf, ent in rows]


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
