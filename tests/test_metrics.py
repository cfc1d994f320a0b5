import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.harness import classification_report
from mcuq.metrics import (
    REPORT_COLUMNS,
    ConfigPoint,
    EvalReport,
    ScoredPrediction,
    accuracy_rejection_curve,
    auarc,
    brier,
    ece,
    entropy_for_mode,
    ipp_distance,
    ipp_select,
    load_reports,
    mean_binary_entropy,
    pareto_front,
    save_reports,
    shannon_entropy,
)


def pred(confidence=0.5, correct=True, uncertainty=0.0, probs=None,
         true_label=None):
    if probs is None:
        probs = np.array([confidence, 1 - confidence])
    return ScoredPrediction(probs=np.asarray(probs, dtype=float),
                            confidence=confidence, correct=correct,
                            uncertainty=uncertainty, true_label=true_label)


def random_preds(rng, n, n_classes=3):
    out = []
    for _ in range(n):
        probs = rng.dirichlet(np.ones(n_classes))
        label = int(rng.integers(n_classes))
        out.append(ScoredPrediction(
            probs=probs, confidence=float(probs.max()),
            correct=bool(int(probs.argmax()) == label),
            uncertainty=float(rng.random()), true_label=label))
    return out


class TestShannonEntropy:
    def test_uniform_is_log2_c(self):
        for c in range(2, 11):
            assert shannon_entropy(np.full(c, 1.0 / c)) == math.log2(c)

    def test_one_hot_is_zero(self):
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_hand_evaluated_mixture(self):
        assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5)

    def test_renormalizes_within_tolerance_only(self):
        shannon_entropy(np.array([0.5, 0.5 + 5e-7]))
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.6]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([-0.1, 1.1]))

    def test_bounds_over_random_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            h = shannon_entropy(rng.dirichlet(np.ones(c)))
            assert 0.0 <= h <= math.log2(c) + 1e-12


class TestMeanBinaryEntropy:
    def test_all_half_is_one(self):
        assert mean_binary_entropy(np.full(5, 0.5)) == 1.0

    def test_deterministic_entries_are_zero(self):
        assert mean_binary_entropy(np.array([0.0, 1.0, 1.0, 0.0])) == 0.0

    def test_half_and_one(self):
        assert mean_binary_entropy(np.array([0.5, 1.0])) == pytest.approx(0.5)

    def test_entries_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            mean_binary_entropy(np.array([0.5, 1.2]))

    def test_maximum_at_all_half(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.random(4)
            assert mean_binary_entropy(p) <= 1.0 + 1e-12


class TestBrier:
    def test_perfect_one_hot_is_zero(self):
        preds = [pred(probs=[0, 1, 0], true_label=1),
                 pred(probs=[1, 0, 0], true_label=0)]
        assert brier(preds) == 0.0

    def test_single_uniform_binary(self):
        assert brier([pred(probs=[0.5, 0.5], true_label=0)]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            brier([])

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            brier([pred(probs=[0.5, 0.5], true_label=None)])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, c = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            preds = random_preds(rng, n, c)
            total = 0.0
            for p in preds:
                for k in range(c):
                    y = 1.0 if k == p.true_label else 0.0
                    total += (p.probs[k] - y) ** 2
            assert abs(brier(preds) - total / (n * c)) <= 1e-12


def ece_oracle(preds, n_bins):
    """Independent re-implementation with an explicit bin loop."""
    n = len(preds)
    total = 0.0
    for m in range(n_bins):
        lower, upper = m / n_bins, (m + 1) / n_bins
        members = [p for p in preds
                   if (p.confidence >= lower
                       and (p.confidence < upper if m < n_bins - 1
                            else p.confidence <= 1.0))]
        if not members:
            continue
        acc = sum(1.0 for p in members if p.correct) / len(members)
        conf = sum(p.confidence for p in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


class TestEce:
    def test_confident_and_correct_is_zero(self):
        preds = [pred(confidence=1.0, correct=True) for _ in range(5)]
        assert ece(preds) == 0.0

    def test_single_bin_arithmetic(self):
        preds = [pred(confidence=0.8, correct=i < 2) for i in range(4)]
        assert ece(preds, n_bins=1) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece([])

    def test_confidence_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ece([pred(confidence=1.2)])

    def test_matches_bin_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            preds = [pred(confidence=float(rng.random()),
                          correct=bool(rng.integers(2))) for _ in range(n)]
            m = int(rng.integers(1, 25))
            assert abs(ece(preds, n_bins=m) - ece_oracle(preds, m)) <= 1e-12

    def test_calibrated_synthetic_sample_is_small(self):
        # confidence on a grid, correctness Bernoulli(confidence)
        rng = np.random.default_rng(4)
        grid = 0.505 + 0.01 * np.arange(49)
        conf = rng.choice(grid, size=10 ** 5)
        preds = [pred(confidence=float(c), correct=bool(rng.random() < c))
                 for c in conf]
        assert ece(preds, n_bins=15) < 0.01

    def test_refining_bins_stays_within_sampling_tolerance(self):
        rng = np.random.default_rng(5)
        grid = 0.505 + 0.01 * np.arange(49)
        conf = rng.choice(grid, size=10 ** 5)
        preds = [pred(confidence=float(c), correct=bool(rng.random() < c))
                 for c in conf]
        assert ece(preds, n_bins=30) <= ece(preds, n_bins=15) + 0.01


def auarc_oracle(preds):
    """O(N^2): re-count the retained accuracy from scratch at each step."""
    n = len(preds)
    order = sorted(range(n), key=lambda i: (-preds[i].uncertainty, i))
    total = 0.0
    for k in range(n):
        retained = order[k:]
        total += sum(1.0 for i in retained if preds[i].correct) / len(retained)
    return total / n


class TestAuarc:
    def test_all_correct_is_one(self):
        preds = [pred(correct=True, uncertainty=u) for u in (0.3, 0.9, 0.1)]
        assert auarc(preds) == 1.0

    def test_two_point_hand_value(self):
        preds = [pred(correct=False, uncertainty=0.9),
                 pred(correct=True, uncertainty=0.1)]
        assert auarc(preds) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auarc([])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            preds = [pred(correct=bool(rng.integers(2)),
                          uncertainty=float(rng.integers(5)))  # forces ties
                     for _ in range(n)]
            assert abs(auarc(preds) - auarc_oracle(preds)) <= 1e-12

    def test_perfect_ranking_maximizes(self):
        rng = np.random.default_rng(7)
        correct = rng.integers(2, size=40).astype(bool)
        base = np.where(correct, 0.0, 1.0)  # all incorrect strictly above
        best = auarc([pred(correct=bool(c), uncertainty=float(u))
                      for c, u in zip(correct, base)])
        for _ in range(1000):
            shuffled = rng.permutation(base)
            trial = auarc([pred(correct=bool(c), uncertainty=float(u))
                           for c, u in zip(correct, shuffled)])
            assert trial <= best + 1e-12


class TestAccuracyRejectionCurve:
    def test_all_correct_is_flat(self):
        preds = [pred(correct=True, uncertainty=float(i)) for i in range(5)]
        curve = accuracy_rejection_curve(preds)
        assert all(acc == 1.0 for _, acc in curve)
        assert [r for r, _ in curve] == [0.0, 0.2, 0.4, 0.6, 0.8]

    def test_perfect_ranking_is_monotone(self):
        preds = [pred(correct=False, uncertainty=1.0) for _ in range(3)] \
            + [pred(correct=True, uncertainty=0.0) for _ in range(5)]
        accs = [acc for _, acc in accuracy_rejection_curve(preds)]
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_integral_equals_auarc(self):
        rng = np.random.default_rng(8)
        preds = [pred(correct=bool(rng.integers(2)),
                      uncertainty=float(rng.random())) for _ in range(37)]
        curve = accuracy_rejection_curve(preds)
        integral = sum(acc for _, acc in curve) / len(curve)
        assert abs(integral - auarc(preds)) <= 1e-12


# The row loops that the array kernels replaced.  They are the exact
# oracles: every output of the kernels must equal theirs bit for bit.

def brier_loop_oracle(preds):
    total = 0.0
    n_classes = len(preds[0].probs)
    for p in preds:
        onehot = np.zeros(n_classes)
        onehot[p.true_label] = 1.0
        total += float(np.sum((np.asarray(p.probs) - onehot) ** 2))
    return total / (len(preds) * n_classes)


def arc_loop_oracle(preds):
    n = len(preds)
    unc = np.array([p.uncertainty for p in preds])
    correct = np.array([p.correct for p in preds], dtype=np.float64)
    correct_by_rejection = correct[np.argsort(-unc, kind="stable")]
    return [(k / n, float(correct_by_rejection[k:].mean())) for k in range(n)]


def auarc_loop_oracle(preds):
    curve = arc_loop_oracle(preds)
    return float(sum(acc for _, acc in curve) / len(curve))


def score_rows_oracle(mean_probs, labels, mode):
    return [ScoredPrediction(
        probs=row, confidence=float(row.max()),
        correct=bool(int(np.argmax(row)) == int(label)),
        uncertainty=entropy_for_mode(row, mode), true_label=int(label))
        for row, label in zip(mean_probs, labels)]


def random_scores(seed, n, n_classes, mode, label_dtype, levels):
    """(mean probabilities, labels, mode).  With ``levels`` > 0 the entries
    sit on a grid of that many steps, so rows repeat and entropies tie."""
    rng = np.random.default_rng(seed)
    if levels:
        probs = rng.integers(1, levels + 1, size=(n, n_classes)) / levels
    else:
        probs = rng.random((n, n_classes))
    if mode == "softmax":
        probs = probs / probs.sum(axis=1, keepdims=True)
    labels = rng.integers(n_classes, size=n).astype(label_dtype)
    return probs, labels, mode


scored_inputs = st.builds(
    random_scores, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
    n_classes=st.sampled_from([2, 3, 8, 9, 17]),
    mode=st.sampled_from(["softmax", "sigmoid"]),
    label_dtype=st.sampled_from([np.int32, np.int64]),
    levels=st.sampled_from([0, 1, 2, 5]))


class TestExactOracles:
    @settings(max_examples=200, deadline=None)
    @given(scored_inputs)
    def test_report_and_curve_equal_row_loops(self, inputs):
        probs, labels, mode = inputs
        rep, preds = classification_report(probs, labels, mode)
        rows = score_rows_oracle(probs, labels, mode)
        assert [(p.confidence, p.correct, p.uncertainty, p.true_label)
                for p in preds] \
            == [(p.confidence, p.correct, p.uncertainty, p.true_label)
                for p in rows]
        assert rep.map_50_95 == float(np.mean([p.correct for p in rows]))
        assert rep.mean_entropy == float(np.mean([p.uncertainty for p in rows]))
        assert rep.brier == brier_loop_oracle(rows)
        assert rep.auarc == auarc_loop_oracle(rows)
        assert accuracy_rejection_curve(preds) == arc_loop_oracle(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
           st.integers(1, 6))
    def test_tied_uncertainties_equal_row_loops(self, seed, n, n_levels):
        # integer-valued uncertainties, so ranks tie
        rng = np.random.default_rng(seed)
        preds = [pred(correct=bool(rng.integers(2)),
                      uncertainty=float(rng.integers(n_levels)))
                 for _ in range(n)]
        assert accuracy_rejection_curve(preds) == arc_loop_oracle(preds)
        assert auarc(preds) == auarc_loop_oracle(preds)

    def test_rows_carry_python_scalars(self):
        probs, labels, mode = random_scores(0, 40, 3, "softmax", np.int32, 0)
        _, preds = classification_report(probs, labels, mode)
        for p in preds:
            assert type(p.confidence) is float
            assert type(p.correct) is bool
            assert type(p.true_label) is int


class TestRejectsBadInputs:
    def test_report_rejects_a_label_of_minus_one(self):
        probs = np.array([[0.5, 0.5], [0.8, 0.2]])
        with pytest.raises(ValueError,
                           match=r"^row 0: true label outside \[0, 2\)$"):
            classification_report(probs, np.array([-1, 0]), "softmax")

    def test_brier_negative_label(self):
        preds = [pred(probs=[0.5, 0.5], true_label=0),
                 pred(probs=[0.8, 0.2], true_label=-1)]
        with pytest.raises(ValueError, match="row 1"):
            brier(preds)

    def test_brier_label_past_last_class(self):
        with pytest.raises(ValueError, match="row 0"):
            brier([pred(probs=[0.5, 0.5], true_label=2)])

    def test_ece_nan_confidence(self):
        preds = [pred(confidence=0.5), pred(confidence=0.7),
                 pred(confidence=float("nan"))]
        with pytest.raises(ValueError, match="row 2"):
            ece(preds)

    def test_shannon_entropy_nan_entry(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([np.nan, 0.5, 0.5]))

    def test_auarc_nan_uncertainty(self):
        preds = [pred(uncertainty=0.2), pred(uncertainty=float("nan"))]
        with pytest.raises(ValueError, match="row 1"):
            auarc(preds)
        with pytest.raises(ValueError, match="row 1"):
            accuracy_rejection_curve(preds)

    def test_mean_binary_entropy_nan_entry(self):
        with pytest.raises(ValueError):
            mean_binary_entropy(np.array([0.5, np.nan]))


def report(map_=0.5, auarc_=0.5):
    return EvalReport(map_50_95=map_, brier=0.0, ece=0.0, auarc=auarc_,
                      mean_entropy=0.0)


def point(name="MCSD", **kw):
    return ConfigPoint(method=name, drop_rate=0.1, T=10, conf_threshold=0.1,
                       adapted_blocks="all")


class TestIppSelect:
    def test_single_point_wins(self):
        p = (point(), report(0.3, 0.4))
        assert ipp_select([p]) is p[0]

    def test_ideal_point_has_zero_distance(self):
        ideal = (point("MCD"), report(1.0, 1.0))
        other = (point("MCDB"), report(0.9, 0.9))
        assert ipp_distance(ideal[1]) == 0.0
        assert ipp_select([other, ideal]) is ideal[0]

    def test_detector_benchmark_rows(self):
        # best Pareto-optimal single-stage rows: (mAP, AUARC) per method
        rows = [("MCD", 0.505, 0.668), ("MCDB", 0.473, 0.771),
                ("MCSD", 0.496, 0.778)]
        pts = [(point(m), report(a, b)) for m, a, b in rows]
        distances = {m: ipp_distance(r) for (m, a, b), (_, r) in zip(rows, pts)}
        assert distances["MCSD"] == pytest.approx(0.550727, abs=1e-6)
        assert distances["MCDB"] == pytest.approx(0.574604, abs=1e-6)
        assert distances["MCD"] == pytest.approx(0.596028, abs=1e-6)
        assert distances["MCSD"] < distances["MCDB"] < distances["MCD"]
        assert ipp_select(pts).method == "MCSD"

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        pts = [(point(f"M{i}"), report(float(rng.random()), float(rng.random())))
               for i in range(20)]
        winner = ipp_select(pts).method
        for _ in range(10):
            perm = [pts[i] for i in rng.permutation(len(pts))]
            assert ipp_select(perm).method == winner

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ipp_select([])

    def test_ties_go_to_the_first_occurrence(self):
        # (0.6, 0.8) and (0.8, 0.6) lie at the same distance from (1, 1)
        pts = [(point("A"), report(0.5, 0.5)), (point("B"), report(0.6, 0.8)),
               (point("C"), report(0.8, 0.6)), (point("D"), report(0.6, 0.8))]
        assert ipp_select(pts) is pts[1][0]
        assert ipp_select(pts[2:]) is pts[2][0]


def pareto_oracle(points):
    keep = []
    for i, (_, a) in enumerate(points):
        dominated = False
        for j, (_, b) in enumerate(points):
            if i != j and b.map_50_95 >= a.map_50_95 and b.auarc >= a.auarc \
                    and (b.map_50_95 > a.map_50_95 or b.auarc > a.auarc):
                dominated = True
        if not dominated:
            keep.append(points[i])
    return keep


class TestParetoFront:
    def test_single_point(self):
        pts = [(point(), report(0.5, 0.5))]
        assert pareto_front(pts) == pts

    def test_dominating_point_excludes_other(self):
        a = (point("A"), report(0.9, 0.9))
        b = (point("B"), report(0.5, 0.5))
        assert pareto_front([a, b]) == [a]

    def test_matches_domination_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            pts = [(point(f"M{i}"),
                    report(float(rng.integers(5)) / 4, float(rng.integers(5)) / 4))
                   for i in range(20)]
            got = {id(cfg) for cfg, _ in pareto_front(pts)}
            want = {id(cfg) for cfg, _ in pareto_oracle(pts)}
            assert got == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([])


@pytest.mark.parametrize("select", [ipp_select, pareto_front])
@pytest.mark.parametrize("bad", [(math.nan, 0.5), (0.5, math.nan),
                                 (math.inf, 0.5), (0.5, -math.inf)])
def test_non_finite_axis_rejected_by_row(select, bad):
    # NaN is never dominated and never closer than anything
    pts = [(point(), report(0.3, 0.4)), (point(), report(*bad))]
    with pytest.raises(ValueError, match="^row 1: performance and AUARC "
                                         "must be finite$"):
        select(pts)
    with pytest.raises(ValueError, match="^row 0: "):
        select(pts[1:])


class TestReportCsv:
    def test_columns_are_the_report_fields_in_order(self):
        assert list(REPORT_COLUMNS) \
            == [f.name for f in fields(ConfigPoint) + fields(EvalReport)]

    def test_roundtrip(self, tmp_path):
        pts = [(ConfigPoint("MCSD", 0.1, 20, 0.25, "first-half"),
                EvalReport(0.5, 0.1, 0.05, 0.8, 1.2)),
               (ConfigPoint("MCD", 0.2, 5, 0.0, "all"),
                EvalReport(0.6, 0.2, 0.15, 0.7, 0.9))]
        path = tmp_path / "reports.csv"
        save_reports(pts, path)
        again = load_reports(path)
        assert len(again) == 2
        assert again[0][0] == pts[0][0]
        assert again[0][1].auarc == 0.8
        header = path.read_text().splitlines()[0]
        assert header == ("method,drop_rate,T,conf_threshold,adapted_blocks,"
                          "map_50_95,brier,ece,auarc,mean_entropy")

    @pytest.mark.parametrize("text,missing", [
        ('{"Ts": [2], "seed": 3}\n', None),
        ("method,T,score\nMCD,5,0.5\n",
         ["drop_rate", "conf_threshold", "adapted_blocks", "map_50_95",
          "brier", "ece", "auarc", "mean_entropy"]),
        ("", None)], ids=["json", "another-header", "empty-file"])
    def test_header_without_the_report_columns_is_refused(self, tmp_path,
                                                           text, missing):
        missing = missing or list(REPORT_COLUMNS)
        path = tmp_path / "reports.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_reports(path)
        assert str(err.value) == (f"{path}: header lacks the report columns "
                                  f"{missing}")

    def test_header_that_repeats_a_column_is_refused(self, tmp_path):
        # csv.DictReader would read the row's last ``method`` cell, MCSD
        path = tmp_path / "reports.csv"
        save_reports([(ConfigPoint("MCD", 0.1, 5, 0.0, "all"),
                       EvalReport(0.6, 0.2, 0.15, 0.7, 0.9))], path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header},method,T\n{row},MCSD,7\n")
        with pytest.raises(ValueError) as err:
            load_reports(path)
        assert str(err.value) == \
            f"{path}: header repeats the columns ['T', 'method']"

    def test_bytes_that_are_not_utf8_are_named(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports([], path)
        path.write_bytes(path.read_bytes() + b"MCD,\xff\n")
        with pytest.raises(ValueError) as err:
            load_reports(path)
        assert str(err.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(','.join(REPORT_COLUMNS)) + 5}: invalid start byte")

    def test_header_alone_has_no_rows(self, tmp_path):
        path = tmp_path / "reports.csv"
        save_reports([], path)
        assert path.read_text() == ",".join(REPORT_COLUMNS) + "\n"
        assert load_reports(path) == []

    @pytest.mark.parametrize("column,cell,shown", [
        ("T", "x5", "'x5'"), ("drop_rate", "", "''"), ("ece", None, "None"),
        ("auarc", "nan", "'nan'"), ("drop_rate", "inf", "'inf'"),
        ("map_50_95", "-inf", "'-inf'")])
    def test_bad_cell_names_column_row_and_value(self, tmp_path, column,
                                                 cell, shown):
        pts = [(ConfigPoint("MCD", 0.1, 5, 0.0, "all"),
                EvalReport(0.6, 0.2, 0.15, 0.7, 0.9))] * 3
        path = tmp_path / "reports.csv"
        save_reports(pts, path)
        lines = path.read_text().splitlines()
        k = lines[0].split(",").index(column)
        fields = lines[2].split(",")
        if cell is None:  # a short row: its cells from the column on are gone
            fields = fields[:k]
        else:
            fields[k] = cell
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_reports(path)
        assert f"data row 2, column {column!r}: bad value {shown}" \
            in str(err.value)
