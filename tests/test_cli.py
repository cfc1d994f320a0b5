import json
import subprocess
import sys

from mcuq.cli import main
from mcuq.harness import ExperimentConfig, first_point, rerun_row


def write_config(tmp_path, drop=(), **overrides):
    cfg = dict(
        task="classification",
        dataset={"kind": "blobs-classification", "n": 200, "n_classes": 3,
                 "spread": 0.7},
        arch={"n_blocks": 2, "width": 10, "output_mode": "softmax",
              "activation": "relu"},
        train={"learning_rate": 0.05, "weight_decay": 1e-4, "epochs": 8,
               "batch_size": 32},
        methods=["MCSD"], drop_rates=[0.1], Ts=[5], conf_thresholds=[0.0],
        adapted_presets=["all"], out_dir=str(tmp_path / "out"), seed=2)
    cfg.update(overrides)
    for name in drop:
        del cfg[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestMakeData:
    def test_writes_files(self, tmp_path, capsys):
        rc = main(["make-data", "--kind", "blobs-classification",
                   "--out", str(tmp_path / "data"), "--seed", "3",
                   "--params", '{"n": 50}'])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("blobs.csv")
        assert (tmp_path / "data" / "blobs.csv").exists()

    def test_bad_params_fail_hard(self, tmp_path):
        rc = main(["make-data", "--kind", "blobs-classification",
                   "--out", str(tmp_path / "d"), "--params", '{"bogus": 1}'])
        assert rc == 1


class TestSweepCommand:
    def test_clean_sweep_exits_zero(self, tmp_path):
        rc = main(["sweep", "--config", str(write_config(tmp_path))])
        assert rc == 0
        assert (tmp_path / "out" / "reports.csv").exists()
        assert (tmp_path / "out" / "pareto_front.csv").exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg_path),
                   "--out", str(tmp_path / "elsewhere"), "--ts", "5", "10"])
        assert rc == 0
        reports = (tmp_path / "elsewhere" / "reports.csv").read_text()
        assert reports.count("\n") == 3  # header + two T rows

    def test_train_flags_merge_over_default_train_block(self, tmp_path):
        cfg_path = write_config(tmp_path, drop=("train",))
        rc = main(["sweep", "--config", str(cfg_path), "--epochs", "3",
                   "--learning-rate", "0.02", "--ts", "2"])
        assert rc == 0
        ckpt = tmp_path / "out" / "ckpt_MCSD_0.1_all.json"
        echoed = json.loads(ckpt.read_text())["config"]["train"]
        assert echoed == {**ExperimentConfig().train, "epochs": 3,
                          "learning_rate": 0.02}

    def test_train_flags_merge_over_config_train_block(self, tmp_path):
        rc = main(["sweep", "--config", str(write_config(tmp_path)),
                   "--weight-decay", "0.0"])
        assert rc == 0
        ckpt = tmp_path / "out" / "ckpt_MCSD_0.1_all.json"
        echoed = json.loads(ckpt.read_text())["config"]["train"]
        assert echoed == {"learning_rate": 0.05, "weight_decay": 0.0,
                          "epochs": 8, "batch_size": 32}

    def test_partial_failure_exits_two(self, tmp_path):
        cfg_path = write_config(
            tmp_path, task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 0.5, "miss_prob": 0.05,
                     "halluc_rate": 0.2, "sharpness": 0.9},
            conf_thresholds=[0.2, 0.999])
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == 2

    def test_all_cells_failing_exits_one(self, tmp_path):
        cfg_path = write_config(
            tmp_path, task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4,
                     "boxes_per_image": 2, "n_classes": 3,
                     "box_jitter": 0.5, "miss_prob": 0.05,
                     "halluc_rate": 0.2, "sharpness": 0.9},
            conf_thresholds=[0.999])
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == 1


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        trace = tmp_path / "model_trace.csv"
        assert trace.read_text().startswith("epoch,mean_loss")
        echoed = json.loads(ckpt.read_text())["config"]
        assert echoed["stochastic"]["kind"] == "path-drop"
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "performance=" in out and "auarc=" in out

    def test_eval_detection_task(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--checkpoint", str(ckpt)]) == 0
        det = dict(task="detection",
                   dataset={"kind": "boxes-detection", "n_images": 4,
                            "boxes_per_image": 2, "n_classes": 3},
                   conf_thresholds=[0.2, 0.5], Ts=[4, 8])
        cfg_path = write_config(tmp_path, **det)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out.strip()
        cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
        report = rerun_row(cfg, first_point(cfg))
        assert out == (f"performance={report.map_50_95:.4f} "
                       f"brier={report.brier:.4f} ece={report.ece:.4f} "
                       f"auarc={report.auarc:.4f} "
                       f"mean_entropy={report.mean_entropy:.4f}")

    def test_train_rejects_detection_task(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: train applies to the classification task\n")


class TestShiftCommand:
    def test_prints_levels(self, tmp_path, capsys):
        rc = main(["shift", "--config", str(write_config(tmp_path)),
                   "--levels", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("mean_entropy=") == 3
        assert (tmp_path / "out" / "shift.csv").exists()


class TestSelectCommand:
    def test_picks_closest_to_ideal(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        reports.write_text(
            "method,drop_rate,T,conf_threshold,adapted_blocks,"
            "map_50_95,brier,ece,auarc,mean_entropy\n"
            "MCD,0.2,20,0.15,all,0.505,0.0,0.0,0.668,0.0\n"
            "MCDB,0.05,10,0.15,single-last,0.473,0.0,0.0,0.771,0.0\n"
            "MCSD,0.05,20,0.2,first-half,0.496,0.0,0.0,0.778,0.0\n")
        assert main(["select", "--reports", str(reports)]) == 0
        out = capsys.readouterr().out
        assert "method=MCSD" in out
        assert "0.5507" in out

    def test_missing_file_fails(self, tmp_path):
        assert main(["select", "--reports", str(tmp_path / "nope.csv")]) == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mcuq", "make-data", "--kind",
         "moons-classification", "--out", str(tmp_path), "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "moons.csv").exists()
