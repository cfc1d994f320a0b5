"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from mcuq.datasets import ShiftSpec, make_blobs
from mcuq.detection import (
    Box,
    Detection,
    GroundTruth,
    NoiseSpec,
    bsas_cluster,
    cluster_all,
    map_50_95,
    synth_detector,
)
from mcuq.harness import ExperimentConfig, classification_report, run_shift, run_sweep
from mcuq.mc_inference import deterministic_predict, mc_forward_logits, mc_predict
from mcuq.metrics import (
    ConfigPoint,
    EvalReport,
    ScoredPrediction,
    auarc,
    brier,
    ece,
    ipp_distance,
    ipp_select,
    pareto_front,
    shannon_entropy,
)
from mcuq.nn_core import TrainConfig, forward, init_net, loss, train
from mcuq.rng import substream
from mcuq.stochastic import (
    KIND_PATH,
    MODE_MC,
    StochasticSpec,
    multipliers,
    sample_mask,
)


def report_line(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


class TestCriterion1GradientOracle:
    def test_analytic_gradients_match_finite_differences(self):
        started = time.time()
        net = init_net(2, 8, 2, 3, seed=101)
        x = substream(102).normal(size=(5, 2))
        y = np.array([0, 2, 1, 0, 2])
        lam = 0.01
        from mcuq.nn_core import backward
        analytic = backward(net, x, y, lam)
        eps = 1e-5
        worst = 0.0
        for p in net.parameters():
            flat = p.value.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss(forward(net, x), y, net, lam)
                flat[i] = orig - eps
                down = loss(forward(net, x), y, net, lam)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                a = analytic[p.id].ravel()[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
                worst = max(worst, rel)
        elapsed = time.time() - started
        report_line(1, worst < 1e-4 and elapsed < 10,
                    f"max relative gradient error {worst:.2e} "
                    f"(limit 1e-4), {elapsed:.1f}s (limit 10s)")


class TestCriterion2PerBlockUnbiasedness:
    def test_path_drop_mean_matches_active_block(self):
        started = time.time()
        n = 10 ** 5
        ident = np.tile(np.array([0.5, -1.0, 2.0, 0.25]), (n, 1))
        res = np.tile(np.array([1.5, 0.5, -0.75, 2.0]), (n, 1))
        target = ident[0] + res[0]
        worst = 0.0
        for p_drop in (0.1, 0.25, 0.5):
            spec = StochasticSpec(kind=KIND_PATH, drop_rate=p_drop,
                                  adapted_blocks={1}, mode=MODE_MC)
            masks = sample_mask(spec, 4, n,
                                substream(201, "unbias", int(p_drop * 100)))
            _, (row_mult,) = multipliers(masks, 4, n)
            out = ident + row_mult * res  # the forward pass's block output
            dev = np.abs(out.mean(axis=0) - target) / np.abs(res[0])
            worst = max(worst, dev.max())
        elapsed = time.time() - started
        report_line(2, worst < 0.01 and elapsed < 30,
                    f"max per-component deviation {worst:.4f} of residual "
                    f"magnitude (limit 0.01), {elapsed:.1f}s (limit 30s)")


class TestCriterion3LinearComposition:
    def test_mc_mean_matches_deterministic_forward(self):
        started = time.time()
        net = init_net(2, 6, 2, 3, activation="identity", seed=13)
        x = np.random.default_rng(9).normal(size=(3, 2)) * 2.0
        spec = StochasticSpec(kind=KIND_PATH, drop_rate=0.3,
                              adapted_blocks={1, 2}, mode=MODE_MC)
        logits = mc_forward_logits(net, x, spec, T=10 ** 5, base_seed=2024)
        target = forward(net, x)
        rel = (np.abs(logits.mean(axis=0) - target) / np.abs(target)).max()
        elapsed = time.time() - started
        report_line(3, rel < 0.01 and elapsed < 60,
                    f"max relative deviation {rel:.4f} (limit 0.01), "
                    f"{elapsed:.1f}s (limit 60s)")


class TestCriterion4MetricOracles:
    def test_metrics_match_brute_force(self):
        rng = np.random.default_rng(401)

        def random_preds(n, c):
            out = []
            for _ in range(n):
                probs = rng.dirichlet(np.ones(c))
                label = int(rng.integers(c))
                out.append(ScoredPrediction(
                    probs=probs, confidence=float(rng.random()),
                    correct=bool(rng.integers(2)),
                    uncertainty=float(rng.integers(5)),
                    true_label=label))
            return out

        worst = 0.0
        for _ in range(100):
            preds = random_preds(int(rng.integers(1, 30)),
                                 int(rng.integers(2, 5)))
            # brier double loop
            c = len(preds[0].probs)
            total = 0.0
            for p in preds:
                for k in range(c):
                    total += (p.probs[k] - (1.0 if k == p.true_label else 0.0)) ** 2
            worst = max(worst, abs(brier(preds) - total / (len(preds) * c)))
            # ece bin loop
            m = int(rng.integers(1, 25))
            oracle = 0.0
            for b in range(m):
                lo, hi = b / m, (b + 1) / m
                members = [p for p in preds
                           if p.confidence >= lo
                           and (p.confidence < hi if b < m - 1
                                else p.confidence <= 1.0)]
                if members:
                    acc = sum(1.0 for p in members if p.correct) / len(members)
                    conf = sum(p.confidence for p in members) / len(members)
                    oracle += len(members) / len(preds) * abs(acc - conf)
            worst = max(worst, abs(ece(preds, n_bins=m) - oracle))
            # auarc O(N^2) re-count
            n = len(preds)
            order = sorted(range(n), key=lambda i: (-preds[i].uncertainty, i))
            total = 0.0
            for k in range(n):
                retained = order[k:]
                total += sum(1.0 for i in retained if preds[i].correct) \
                    / len(retained)
            worst = max(worst, abs(auarc(preds) - total / n))
        # pareto front vs pairwise domination
        for _ in range(100):
            pts = []
            for i in range(15):
                rep = EvalReport(map_50_95=float(rng.integers(5)) / 4,
                                 brier=0, ece=0,
                                 auarc=float(rng.integers(5)) / 4,
                                 mean_entropy=0)
                pts.append((ConfigPoint("MCSD", 0.1, 5, 0.0, "all"), rep))
            got = {id(c) for c, _ in pareto_front(pts)}
            want = set()
            for i, (_, a) in enumerate(pts):
                if not any(j != i and b.map_50_95 >= a.map_50_95
                           and b.auarc >= a.auarc
                           and (b.map_50_95 > a.map_50_95 or b.auarc > a.auarc)
                           for j, (_, b) in enumerate(pts)):
                    want.add(id(pts[i][0]))
            assert got == want
        uniform_exact = all(
            shannon_entropy(np.full(c, 1.0 / c)) == math.log2(c)
            for c in range(2, 11))
        report_line(4, worst <= 1e-12 and uniform_exact,
                    f"max oracle deviation {worst:.2e} (limit 1e-12), "
                    f"uniform entropy exact for C=2..10: {uniform_exact}")


class TestCriterion5IppSelection:
    def test_single_stage_benchmark_rows_select_path_drop(self):
        rows = [("MCD", 0.505, 0.668), ("MCDB", 0.473, 0.771),
                ("MCSD", 0.496, 0.778)]
        pts = []
        for method, m, a in rows:
            pts.append((ConfigPoint(method, 0.1, 20, 0.2, "all"),
                        EvalReport(map_50_95=m, brier=0, ece=0, auarc=a,
                                   mean_entropy=0)))
        d = {cfg.method: ipp_distance(rep) for cfg, rep in pts}
        winner = ipp_select(pts).method
        ok = winner == "MCSD" \
            and abs(d["MCSD"] - 0.550727) < 1e-6 \
            and abs(d["MCDB"] - 0.574604) < 1e-6 \
            and abs(d["MCD"] - 0.596028) < 1e-6
        report_line(5, ok,
                    f"selected {winner} with d={d['MCSD']:.4f} vs "
                    f"MCDB {d['MCDB']:.4f}, MCD {d['MCD']:.4f}")


class TestCriterion6DetectionGoldens:
    def test_bsas_trace_map_table_and_perfect_detector(self):
        # six-detection fusion trace (hand derived)
        dets = [
            Detection(Box(0, 0, 10, 10), np.array([0.8, 0.1, 0.1]), 0, 0),
            Detection(Box(20, 20, 30, 30), np.array([0.1, 0.8, 0.1]), 0, 0),
            Detection(Box(0, 0, 10, 12), np.array([0.7, 0.2, 0.1]), 1, 0),
            Detection(Box(20, 20, 30, 30), np.array([0.2, 0.2, 0.6]), 1, 0),
            Detection(Box(0, 0, 10, 11.5), np.array([0.6, 0.3, 0.1]), 2, 0),
            Detection(Box(100, 100, 110, 110), np.array([0.4, 0.35, 0.25]), 2, 0),
        ]
        clusters = bsas_cluster(dets, theta_iou=0.5)
        bsas_ok = (len(clusters) == 4
                   and [c.support for c in clusters] == [3, 1, 1, 1]
                   and clusters[0].mean_box == Box(0, 0, 10, 33.5 / 3)
                   and np.allclose(clusters[0].mean_probs, [0.7, 0.2, 0.1],
                                   atol=1e-15)
                   and [c.class_id for c in clusters] == [0, 1, 2, 0])

        # three-detection mAP table (hand computed: (7*1 + 3*0.5 + 0)/20)
        gts = [GroundTruth(Box(0, 0, 10, 10), 0, 0),
               GroundTruth(Box(20, 20, 30, 30), 1, 0)]
        mdets = [
            Detection(Box(0, 0, 10, 12), np.array([0.9, 0.05, 0.05]), 0, 0),
            Detection(Box(0, 0, 10, 10), np.array([0.8, 0.1, 0.1]), 0, 0),
            Detection(Box(20, 20, 30, 30), np.array([0.7, 0.2, 0.1]), 0, 0),
        ]
        map_value = map_50_95(mdets, gts)
        map_ok = abs(map_value - 0.425) < 1e-12

        # perfect synthetic detector end to end
        scene = [GroundTruth(Box(10, 10, 30, 30), 0, 0),
                 GroundTruth(Box(50, 50, 70, 80), 1, 0),
                 GroundTruth(Box(5, 60, 25, 90), 2, 1)]
        perfect = synth_detector(scene, NoiseSpec(), T=5, seed=0, n_classes=3)
        perfect_map = map_50_95([c for c in cluster_all(perfect)
                                 if c.confidence >= 0.5], scene)
        report_line(6, bsas_ok and map_ok and perfect_map == 1.0,
                    f"fusion trace ok={bsas_ok}, hand mAP={map_value} "
                    f"(want 0.425), perfect-detector mAP={perfect_map}")


CALIB_SPEC = StochasticSpec(kind=KIND_PATH, drop_rate=0.2,
                            adapted_blocks={1, 2})


def calibration_run(seed):
    X, y = make_blobs(1000, n_classes=3, spread=0.9, label_noise=0.15,
                      seed=seed)
    perm = substream(seed, "split").permutation(1000)
    tr, te = perm[400:], perm[:400]
    net = init_net(2, 16, 2, 3, seed=seed)
    train(net, (X[tr], y[tr]),
          TrainConfig(learning_rate=0.03, weight_decay=1e-4, epochs=60,
                      batch_size=32, seed=seed), stochastic=CALIB_SPEC)
    mc = mc_predict(net, X[te], CALIB_SPEC, T=20, base_seed=seed + 1000)
    mc_rep, _ = classification_report(mc.mean_probs, y[te], "softmax")
    det_rep, _ = classification_report(
        deterministic_predict(net, X[te]), y[te], "softmax")
    return mc_rep, det_rep


class TestCriterion7CalibrationDirection:
    def test_mc_sampling_improves_calibration_on_noisy_blobs(self):
        started = time.time()
        mc_ece, det_ece, mc_auarc, det_auarc = [], [], [], []
        for seed in range(5):
            mc_rep, det_rep = calibration_run(seed)
            mc_ece.append(mc_rep.ece)
            det_ece.append(det_rep.ece)
            mc_auarc.append(mc_rep.auarc)
            det_auarc.append(det_rep.auarc)
        elapsed = time.time() - started
        ece_ok = np.mean(mc_ece) <= np.mean(det_ece)
        auarc_ok = np.mean(mc_auarc) >= np.mean(det_auarc) - 0.01
        report_line(7, ece_ok and auarc_ok and elapsed < 300,
                    f"mean ECE {np.mean(mc_ece):.4f} vs deterministic "
                    f"{np.mean(det_ece):.4f}; mean AUARC {np.mean(mc_auarc):.4f} "
                    f"vs {np.mean(det_auarc):.4f} (allowance 0.01); "
                    f"{elapsed:.0f}s (limit 300s)")


class TestCriterion8ShiftResponse:
    def test_accuracy_falls_and_entropy_rises_with_corruption(self, tmp_path):
        started = time.time()
        ladder = ShiftSpec.default_ladder(n_levels=4, max_noise=1.2,
                                          max_rotation=40.0, max_drift=0.8)
        accs, ents = [], []
        for seed in range(5):
            cfg = ExperimentConfig.from_dict(dict(
                task="classification",
                dataset={"kind": "blobs-classification", "n": 800,
                         "n_classes": 3, "spread": 0.8},
                arch={"n_blocks": 2, "width": 16, "output_mode": "softmax",
                      "activation": "relu"},
                train={"learning_rate": 0.03, "weight_decay": 1e-4,
                       "epochs": 40, "batch_size": 32},
                methods=["MCSD"], drop_rates=[0.2], Ts=[10],
                conf_thresholds=[0.0], adapted_presets=["all"],
                out_dir=str(tmp_path / f"shift{seed}"), seed=seed))
            rows = run_shift(cfg, ladder)
            accs.append([r[1] for r in rows])
            ents.append([r[2] for r in rows])
        acc = np.asarray(accs).mean(axis=0)
        ent = np.asarray(ents).mean(axis=0)
        violations = [acc[i + 1] - acc[i] for i in range(3)
                      if acc[i + 1] > acc[i]]
        acc_ok = len(violations) <= 1 and all(v < 0.02 for v in violations)
        ent_ok = ent[-1] > ent[0]
        elapsed = time.time() - started
        report_line(8, acc_ok and ent_ok and elapsed < 300,
                    f"accuracy by level {np.round(acc, 3).tolist()} "
                    f"({len(violations)} violations), entropy "
                    f"{ent[0]:.3f} -> {ent[-1]:.3f}; {elapsed:.0f}s")


class TestCriterion9Determinism:
    def test_full_sweep_is_byte_identical(self, tmp_path):
        def cfg(out):
            return ExperimentConfig.from_dict(dict(
                task="classification",
                dataset={"kind": "blobs-classification", "n": 300,
                         "n_classes": 3, "spread": 0.7},
                arch={"n_blocks": 2, "width": 12, "output_mode": "softmax",
                      "activation": "relu"},
                train={"learning_rate": 0.03, "weight_decay": 1e-4,
                       "epochs": 10, "batch_size": 32},
                methods=["MCSD", "MCD"], drop_rates=[0.1, 0.2], Ts=[5, 10],
                conf_thresholds=[0.0], adapted_presets=["all", "single-last"],
                out_dir=str(tmp_path / out), seed=33))

        run_sweep(cfg("a"))
        run_sweep(cfg("b"))
        files_a = {p.name: p for p in sorted((tmp_path / "a").iterdir())}
        files_b = {p.name: p for p in sorted((tmp_path / "b").iterdir())}
        same = set(files_a) == set(files_b) and all(
            files_a[n].read_bytes() == files_b[n].read_bytes()
            for n in files_a)
        n_csv = sum(1 for n in files_a if n.endswith(".csv"))
        report_line(9, same and n_csv >= 4,
                    f"all {len(files_a)} output files ({n_csv} CSVs, "
                    f"checkpoints and loss traces included) byte-identical "
                    f"across two sweep executions")
