import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mcuq import cli, files
from mcuq.cli import CONFIG_FLAGS, main
from mcuq.harness import ExperimentConfig, first_point, run_sweep
from mcuq.metrics import REPORT_COLUMNS, save_reports


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

    def test_params_that_are_not_json_are_named(self, tmp_path, capsys):
        rc = main(["make-data", "--kind", "blobs-classification",
                   "--out", str(tmp_path / "d"), "--params", "{"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --params: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)\n")
        assert not (tmp_path / "d").exists()

    def test_empty_or_negative_count_fails(self, tmp_path, capsys):
        for n in (0, -5):
            rc = main(["make-data", "--kind", "blobs-classification",
                       "--out", str(tmp_path / "d"),
                       "--params", json.dumps({"n": n})])
            assert rc == 1
            assert f"n {n} is not a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_label_noise_needs_two_classes(self, tmp_path, capsys):
        rc = main(["make-data", "--kind", "blobs-classification",
                   "--out", str(tmp_path / "d"),
                   "--params", '{"n_classes": 1, "label_noise": 0.5}'])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: dataset: label_noise 0.5 needs n_classes >= 2, "
            "got n_classes 1\n")
        assert not (tmp_path / "d").exists()


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

    def test_list_config_is_refused_before_a_flag_merges(self, tmp_path,
                                                         capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        assert main(["sweep", "--config", str(cfg_path), "--ts", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: config: [1, 2] is not a mapping\n")

    def test_truncated_config_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{"Ts": [2')
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {cfg_path}: Expecting ',' delimiter: "
            "line 1 column 10 (char 9)\n")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_unicode_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bin.json"
        cfg_path.write_bytes(b"\xff\xfe{")
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: config {cfg_path}: 'utf-16-le' codec can't decode "
            "byte 0x7b in position 2: truncated data\n")
        assert not (tmp_path / "out").exists()

    def test_list_train_block_is_refused_before_a_train_flag_merges(
            self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, train=[1])
        assert main(["sweep", "--config", str(cfg_path), "--epochs", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: train: [1] is not a mapping\n")
        assert not (tmp_path / "out").exists()

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


# Each flag of the parent parser: its arguments, the config field or train
# key it sets, and the value that must reach the built config.  "--config"
# is given in every case; its own case checks the file's seed.
FLAG_VALUES = {
    "--config": ([], "seed", 5),
    "--task": (["detection"], "task", "detection"),
    "--out": (["elsewhere"], "out_dir", "elsewhere"),
    "--seed": (["7"], "seed", 7),
    "--methods": (["MCD", "MCDB"], "methods", ["MCD", "MCDB"]),
    "--drop-rates": (["0.2", "0.3"], "drop_rates", [0.2, 0.3]),
    "--ts": (["2", "4"], "Ts", [2, 4]),
    "--conf-thresholds": (["0.1", "0.5"], "conf_thresholds", [0.1, 0.5]),
    "--presets": (["single-last"], "adapted_presets", ["single-last"]),
    "--epochs": (["3"], "epochs", 3),
    "--learning-rate": (["0.02"], "learning_rate", 0.02),
    "--weight-decay": (["0.0"], "weight_decay", 0.0),
}


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "shift"])
@pytest.mark.parametrize("flag", [action.option_strings[0]
                                  for action in CONFIG_FLAGS._actions])
def test_every_config_flag_reaches_the_config(tmp_path, monkeypatch,
                                              command, flag):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"dataset": {}, "seed": 5}))
    values, name, want = FLAG_VALUES[flag]
    argv = [command, "--config", str(cfg_path)]
    if flag != "--config":
        argv += [flag, *values]
    parsed = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: parsed.append(args))
    main(argv)
    cfg = cli._build_config(parsed[0])
    got = cfg.train[name] if name in cfg.train else getattr(cfg, name)
    assert got == want
    # the value differs from the default, so a dropped flag fails
    default = ExperimentConfig(dataset={})
    assert got != (default.train[name] if name in default.train
                   else getattr(default, name))


def test_an_exception_without_a_message_is_named_by_type(monkeypatch,
                                                         capsys):
    def out_of_memory(args):
        raise MemoryError()
    monkeypatch.setattr(cli, "_dispatch", out_of_memory)
    assert main(["select", "--reports", "reports.csv"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def rerun_line(cfg_path):
    """What ``mcuq eval`` prints for the config's first grid point: that
    point's row in a one-point sweep into a fresh directory."""
    cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
    point = first_point(cfg)
    result = run_sweep(replace(
        cfg, methods=[point.method], drop_rates=[point.drop_rate],
        Ts=[point.T], conf_thresholds=[point.conf_threshold],
        adapted_presets=[point.adapted_blocks],
        out_dir=str(cfg_path.parent / "rerun")))
    (row_point, report), = result.points
    assert row_point == point
    return (f"performance={report.map_50_95:.4f} brier={report.brier:.4f} "
            f"ece={report.ece:.4f} auarc={report.auarc:.4f} "
            f"mean_entropy={report.mean_entropy:.4f}")


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
        # the checkpoint holds the net the standalone rerun trains
        assert capsys.readouterr().out.strip() == rerun_line(cfg_path)

    def test_eval_detection_task(self, tmp_path, capsys):
        det = dict(task="detection",
                   dataset={"kind": "boxes-detection", "n_images": 4,
                            "boxes_per_image": 2, "n_classes": 3},
                   conf_thresholds=[0.2, 0.5], Ts=[4, 8])
        cfg_path = write_config(tmp_path, **det)
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out.strip() == rerun_line(cfg_path)

    def test_eval_rejects_a_checkpoint_that_does_not_fit(self, tmp_path,
                                                         capsys):
        # a 4-class MCSD model against a 2-class moons config evaluating
        # MCD: every mismatch is named with both values
        four = tmp_path / "four"
        four.mkdir()
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(write_config(
            four, dataset={"kind": "blobs-classification", "n": 80,
                           "n_classes": 4})),
            "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        moons = write_config(
            tmp_path, methods=["MCD"],
            dataset={"kind": "moons-classification", "n": 80})
        capsys.readouterr()
        assert main(["eval", "--config", str(moons),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert "arch.n_classes is 4, expected 2" in err.err
        assert "method is 'MCSD', expected 'MCD'" in err.err

    def test_eval_rejects_a_checkpoint_of_another_cell(self, tmp_path,
                                                       capsys):
        # trained at drop rate 0.1 on all blocks, evaluated at 0.5 on the
        # last block only; the echoed mode (training) is not compared
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(ckpt), "--drop-rates", "0.5",
                     "--presets", "single-last"]) == 1
        err = capsys.readouterr().err
        assert "stochastic.drop_rate is 0.1, expected 0.5" in err
        assert "stochastic.adapted_blocks is [1, 2], expected [2]" in err
        assert "stochastic.kind" not in err
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0

    def test_eval_rejects_a_checkpoint_of_another_arch(self, tmp_path,
                                                       capsys):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        wider = write_config(tmp_path, arch={"n_blocks": 2, "width": 12})
        capsys.readouterr()
        assert main(["eval", "--config", str(wider),
                     "--checkpoint", str(ckpt)]) == 1
        assert "arch.width is 10, expected 12" in capsys.readouterr().err

    def test_eval_refuses_an_echoed_section_that_is_not_a_mapping(
            self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        payload = json.loads(ckpt.read_text())
        payload["config"]["stochastic"] = ["x"]
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            "error: checkpoint config.stochastic: ['x'] is not a mapping\n")

    def test_eval_names_a_truncated_checkpoint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        ckpt.write_text(ckpt.read_text()[:11])
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == (f"error: checkpoint {ckpt}: Expecting value: "
                           "line 1 column 12 (char 11)\n")

    def test_eval_names_a_checkpoint_that_is_not_utf8(self, tmp_path,
                                                      capsys):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--epochs", "1"]) == 0
        ckpt.write_bytes(ckpt.read_bytes()[:11] + b"\xff")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == (f"error: checkpoint {ckpt}: 'utf-8' codec can't "
                           "decode byte 0xff in position 11: invalid start "
                           "byte\n")

    def test_classification_eval_needs_checkpoint(self, tmp_path, capsys):
        assert main(["eval", "--config", str(write_config(tmp_path))]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_detection_eval_refuses_a_checkpoint(self, tmp_path, capsys,
                                                 monkeypatch):
        # refused before any data is built, though the file does not exist
        monkeypatch.setattr(cli, "load_task_data", None)
        cfg_path = write_config(
            tmp_path, task="detection",
            dataset={"kind": "boxes-detection", "n_images": 4})
        assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                     str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr() == (
            "", "error: detection eval takes no --checkpoint\n")

    @pytest.mark.parametrize("failing", ["model.json", "model_trace.csv"])
    def test_failed_save_leaves_neither_file(self, tmp_path, monkeypatch,
                                             capsys, failing):
        rename = files.os.replace

        def disk_full(src, dst):  # one of the two renames fails
            if Path(dst).name == failing:
                raise OSError("disk full")
            rename(src, dst)

        monkeypatch.setattr(files.os, "replace", disk_full)
        ckpt_dir = tmp_path / "ckpt"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--checkpoint", str(ckpt_dir / "model.json")]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(ckpt_dir.iterdir()) == []

    def test_train_and_sweep_echo_the_same_config(self, tmp_path):
        cfg_path = write_config(tmp_path)
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        swept = tmp_path / "out" / "ckpt_MCSD_0.1_all.json"
        assert ckpt.read_bytes() == swept.read_bytes()
        assert (tmp_path / "model_trace.csv").read_bytes() \
            == (tmp_path / "out" / "trace_MCSD_0.1_all.csv").read_bytes()

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

    def test_bad_ladder_fails_before_training(self, tmp_path, capsys):
        cfg_path = str(write_config(tmp_path))
        for flags, key in ((["--levels", "0"], "n_levels 0"),
                           (["--levels", "-2"], "n_levels -2"),
                           (["--levels", "2", "--max-noise", "-1"],
                            "max_noise -1.0")):
            assert main(["shift", "--config", cfg_path, *flags]) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_header_alone_is_an_empty_report_file(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        save_reports([], reports)
        assert main(["select", "--reports", str(reports)]) == 1
        assert capsys.readouterr().err == "error: empty report file\n"

    def test_json_reports_are_refused_by_header(self, tmp_path, capsys):
        reports = write_config(tmp_path)  # one line of JSON, not a CSV
        assert main(["select", "--reports", str(reports)]) == 1
        assert capsys.readouterr().err == (
            f"error: {reports}: header lacks the report columns "
            f"{list(REPORT_COLUMNS)}\n")

    def test_repeated_column_is_refused(self, tmp_path, capsys):
        # the trailing method cell says MCSD, the row's first one MCD
        reports = tmp_path / "reports.csv"
        reports.write_text(
            "method,drop_rate,T,conf_threshold,adapted_blocks,"
            "map_50_95,brier,ece,auarc,mean_entropy,method\n"
            "MCD,0.2,20,0.15,all,0.505,0.0,0.0,0.668,0.0,MCSD\n")
        assert main(["select", "--reports", str(reports)]) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == (f"error: {reports}: header repeats the columns "
                           "['method']\n")

    def test_reports_that_are_not_utf8_are_named(self, tmp_path, capsys):
        reports = tmp_path / "reports.csv"
        reports.write_bytes(b"method\xff\n")
        assert main(["select", "--reports", str(reports)]) == 1
        assert capsys.readouterr().err == (
            f"error: {reports}: 'utf-8' codec can't decode byte 0xff in "
            "position 6: invalid start byte\n")


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mcuq", "make-data", "--kind",
         "moons-classification", "--out", str(tmp_path), "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "moons.csv").exists()


# Runs ``mcuq`` with its address space capped at 2 GB, a cap that binds
# this child process only.
CAPPED_MCUQ = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from mcuq.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("source", ["config", "width", "checkpoint",
                                    "checkpoint-width"])
def test_a_huge_arch_fails_at_once_under_a_memory_cap(tmp_path, source):
    # 2**70 blocks, or 2**40 units in one block: no path may lay out a net
    # that size before it fails
    configs = {"config": ({"n_blocks": 2 ** 70, "width": 16}, "error: arch: "
                          f"n_blocks {2 ** 70} is over the cap of 100000\n"),
               "width": ({"n_blocks": 1, "width": 2 ** 40},
                         f"error: n_blocks 1 and width {2 ** 40} give ")}
    if source in configs:
        huge, message = configs[source]
        args = ["sweep", "--config", str(write_config(tmp_path, arch=huge))]
    else:
        cfg_path = write_config(tmp_path, arch={"n_blocks": 1, "width": 16},
                                train={"learning_rate": 0.05, "epochs": 1})
        ckpt = tmp_path / "model.json"
        assert main(["train", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        payload = json.loads(ckpt.read_text())
        arch = payload["config"]["arch"]
        if source == "checkpoint":
            arch["n_blocks"] = 2 ** 70
            message = (f"error: n_blocks {2 ** 70} is over the cap of "
                       "100000\n")
        else:  # the stored count is compared before a buffer is allocated
            arch["width"] = w = 2 ** 40
            count = (arch["in_dim"] + 1) * w + 2 * (w + 1) * w \
                + (w + 1) * arch["n_classes"]
            message = (f"error: values: {len(payload['values'])} given, "
                       f"the arch lays out {count}\n")
        ckpt.write_text(json.dumps(payload))
        args = ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]
    proc = subprocess.run([sys.executable, "-c", CAPPED_MCUQ, *args],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(message)
