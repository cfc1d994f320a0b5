import copy
import csv
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcuq import detection, harness, metrics
from mcuq.detection import (
    IOU_THRESHOLDS,
    RECALL_LEVELS,
    Box,
    ClusteredObservation,
    Detection,
    GroundTruth,
    NoiseSpec,
    _item_arrays,
    _match,
    average_precision,
    bsas_cluster,
    cluster_all,
    iou,
    label_tp_fp,
    map_50_95,
    save_ground_truths,
    synth_detector,
    threshold_scorer,
)
from mcuq.harness import ExperimentConfig, run_sweep
from mcuq.metrics import entropy_for_mode
from test_metrics import entropy_rows, refused


def det(box, probs, pass_index=0, image_id=0):
    return Detection(box=Box(*box), probs=np.array(probs, dtype=float),
                     pass_index=pass_index, image_id=image_id)


def gt(box, class_id=0, image_id=0):
    return GroundTruth(box=Box(*box), class_id=class_id, image_id=image_id)


class TestBoxAndIou:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(5, 0, 5, 10)
        with pytest.raises(ValueError):
            Box(0, 10, 10, 5)

    def test_box_is_a_frozen_float_value(self):
        b = Box(1, 2.5, np.float64(3), 4)
        same = Box(x1=1.0, y1=2.5, x2=3.0, y2=4.0)
        assert [type(v) for v in (b.x1, b.y1, b.x2, b.y2)] == [float] * 4
        assert b == same and b != Box(1, 2.5, 3, 5)
        assert hash(b) == hash(same)
        assert repr(b) == "Box(x1=1.0, y1=2.5, x2=3.0, y2=4.0)"
        assert copy.deepcopy(b) == b
        assert pickle.loads(pickle.dumps(b)) == b
        assert dataclasses.replace(b, y2=9) == Box(1, 2.5, 3, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.x1 = 0.0
        with pytest.raises(ValueError,
                           match=r"^degenerate box \(5\.0, 0\.0, 5\.0, 10\.0\)$"):
            Box(5, 0, 5, 10)
        with pytest.raises(ValueError, match="degenerate box"):
            Box(float("nan"), 0, 1, 1)

    def test_identical_boxes(self):
        b = Box(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_half_overlapping_unit_squares(self):
        assert iou(Box(0, 0, 1, 1), Box(0.5, 0, 1.5, 1)) \
            == pytest.approx(1.0 / 3.0)

    def test_symmetry_over_random_boxes(self):
        def random_box(rng):
            x1, y1 = rng.uniform(0, 10, 2)
            w, h = rng.uniform(0.1, 10, 2)
            return Box(x1, y1, x1 + w, y1 + h)

        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            assert iou(a, a) == 1.0


# hand-derived six-detection trace, theta = 0.5, three classes
TRACE_DETS = [
    det((0, 0, 10, 10), [0.8, 0.1, 0.1], pass_index=0),     # founds c0
    det((20, 20, 30, 30), [0.1, 0.8, 0.1], pass_index=0),   # founds c1
    det((0, 0, 10, 12), [0.7, 0.2, 0.1], pass_index=1),     # joins c0, IoU 5/6
    det((20, 20, 30, 30), [0.2, 0.2, 0.6], pass_index=1),   # class 2: founds c2
    det((0, 0, 10, 11.5), [0.6, 0.3, 0.1], pass_index=2),   # joins c0, IoU 22/23
    det((100, 100, 110, 110), [0.4, 0.35, 0.25], pass_index=2),  # founds c3
]


class TestBsas:
    def test_single_detection_single_cluster(self):
        d = det((0, 0, 5, 5), [0.9, 0.1])
        clusters = bsas_cluster([d])
        assert len(clusters) == 1
        assert clusters[0].members == [d]
        assert clusters[0].support == 1

    def test_two_identical_boxes_fuse(self):
        a = det((0, 0, 5, 5), [0.9, 0.1], pass_index=0)
        b = det((0, 0, 5, 5), [0.7, 0.3], pass_index=1)
        clusters = bsas_cluster([a, b])
        assert len(clusters) == 1
        assert clusters[0].support == 2
        assert np.allclose(clusters[0].mean_probs, [0.8, 0.2])

    def test_hand_derived_trace(self):
        clusters = bsas_cluster(TRACE_DETS, theta_iou=0.5)
        assert len(clusters) == 4
        c0 = clusters[0]
        assert c0.support == 3
        assert [m.pass_index for m in c0.members] == [0, 1, 2]
        assert np.allclose(
            (c0.mean_box.x1, c0.mean_box.y1, c0.mean_box.x2, c0.mean_box.y2),
            (0.0, 0.0, 10.0, 33.5 / 3))
        assert np.allclose(c0.mean_probs, [0.7, 0.2, 0.1])
        assert [c.support for c in clusters[1:]] == [1, 1, 1]
        assert clusters[1].class_id == 1
        assert clusters[2].class_id == 2   # same box as c1, other class
        assert clusters[3].class_id == 0

    def test_processing_order_is_pass_then_input_order(self):
        shuffled = [TRACE_DETS[4], TRACE_DETS[0], TRACE_DETS[2],
                    TRACE_DETS[1], TRACE_DETS[5], TRACE_DETS[3]]
        clusters = bsas_cluster(shuffled, theta_iou=0.5)
        assert len(clusters) == 4
        assert clusters[0].support == 3
        assert np.allclose(clusters[0].mean_probs, [0.7, 0.2, 0.1])

    def test_identical_input_identical_clusters(self):
        a = bsas_cluster(TRACE_DETS)
        b = bsas_cluster(TRACE_DETS)
        assert [c.support for c in a] == [c.support for c in b]
        for ca, cb in zip(a, b):
            assert ca.mean_box == cb.mean_box
            assert np.array_equal(ca.mean_probs, cb.mean_probs)

    def test_mixed_images_rejected(self):
        with pytest.raises(ValueError):
            bsas_cluster([det((0, 0, 1, 1), [1, 0], image_id=0),
                          det((0, 0, 1, 1), [1, 0], image_id=1)])

    def test_empty_input_empty_output(self):
        assert bsas_cluster([]) == []

    def test_cluster_all_groups_by_image(self):
        dets = [det((0, 0, 5, 5), [0.9, 0.1], image_id=1),
                det((0, 0, 5, 5), [0.8, 0.2], image_id=0)]
        clusters = cluster_all(dets)
        assert [c.image_id for c in clusters] == [0, 1]


def loop_bsas_cluster(dets, theta_iou=0.5):
    """Loop oracle: the BSAS loop the plain-float one replaced.  It calls
    ``iou`` on validated boxes and reads class ids through ``np.argmax``;
    returns the clusters of one image's detections."""
    order = sorted(range(len(dets)), key=lambda i: (dets[i].pass_index, i))
    clusters = []
    for i in order:
        det = dets[i]
        placed = None
        for ci, cluster in enumerate(clusters):
            if (iou(cluster.mean_box, det.box) >= theta_iou
                    and cluster.class_id == det.class_id):
                placed = ci
                break
        if placed is None:
            clusters.append(ClusteredObservation(
                members=[det], mean_box=det.box,
                mean_probs=np.asarray(det.probs, dtype=np.float64).copy(),
                image_id=det.image_id))
        else:
            cluster = clusters[placed]
            k = cluster.support
            cluster.members.append(det)
            cluster.mean_probs = (cluster.mean_probs * k + det.probs) / (k + 1)
            cluster.mean_box = Box(
                x1=(cluster.mean_box.x1 * k + det.box.x1) / (k + 1),
                y1=(cluster.mean_box.y1 * k + det.box.y1) / (k + 1),
                x2=(cluster.mean_box.x2 * k + det.box.x2) / (k + 1),
                y2=(cluster.mean_box.y2 * k + det.box.y2) / (k + 1))
    return clusters


def assert_same_clusters(got, want):
    """Members equal by identity and order, means exactly equal."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g.members) == len(w.members)
        assert all(a is b for a, b in zip(g.members, w.members))
        assert g.mean_box == w.mean_box
        assert g.mean_probs.dtype == np.float64
        assert np.array_equal(g.mean_probs, w.mean_probs)
        assert g.image_id == w.image_id


# Boxes on a small integer grid (exact duplicates, touching and disjoint
# boxes are common, and running means leave the grid) and probability
# vectors with argmax ties between classes 0 and 1, 1 and 2, and all three.
BSAS_BOXES = st.tuples(st.integers(0, 10), st.integers(0, 10),
                       st.integers(1, 6), st.integers(1, 6)).map(
    lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
BSAS_PROBS = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.4, 0.4, 0.2),
              (0.2, 0.4, 0.4), (1 / 3, 1 / 3, 1 / 3), (0.9, 0.05, 0.05),
              (0.05, 0.05, 0.9), (0.5, 0.3, 0.2)]
BSAS_THETAS = (0.0, 0.3, 0.5, 1.0)


@st.composite
def pass_scenes(draw, n_images=1):
    """Detections of several passes, drawn from one shared pool of boxes.
    A detection takes its probabilities as a fresh array or as one of a
    pool of row objects that other detections share, as the synthetic
    detector's rows are shared."""
    pool = draw(st.lists(BSAS_BOXES, min_size=1, max_size=5))
    shared = [np.array(p) for p in BSAS_PROBS]
    fresh = st.sampled_from(BSAS_PROBS).map(np.array)
    return draw(st.lists(
        st.builds(Detection, st.sampled_from(pool).map(lambda b: Box(*b)),
                  st.one_of(st.sampled_from(shared), fresh),
                  pass_index=st.integers(0, 3),
                  image_id=st.integers(0, n_images - 1)),
        max_size=16))


def row_snapshot(dets):
    """Each detection's probability row object with a copy of its bytes."""
    return [(d.probs, d.probs.tobytes()) for d in dets]


def assert_rows_unchanged(snapshot):
    assert all(row.tobytes() == data for row, data in snapshot)


class TestBsasAgainstLoopOracle:
    @settings(max_examples=400, deadline=None, database=None)
    @given(pass_scenes(), st.sampled_from(BSAS_THETAS))
    def test_clusters_equal(self, dets, theta_iou):
        rows = row_snapshot(dets)
        assert_same_clusters(bsas_cluster(dets, theta_iou),
                             loop_bsas_cluster(dets, theta_iou))
        assert_rows_unchanged(rows)

    @settings(max_examples=200, deadline=None, database=None)
    @given(pass_scenes(n_images=3), st.sampled_from(BSAS_THETAS))
    def test_cluster_all_equals_oracle_per_image(self, dets, theta_iou):
        rows = row_snapshot(dets)
        want = []
        for image_id in sorted({d.image_id for d in dets}):
            want += loop_bsas_cluster(
                [d for d in dets if d.image_id == image_id], theta_iou)
        assert_same_clusters(cluster_all(dets, theta_iou), want)
        assert_rows_unchanged(rows)

    def test_zero_theta_joins_a_disjoint_cluster_of_its_class(self):
        first = det((0, 0, 1, 1), [0.9, 0.1], pass_index=0)
        same_class = det((5, 5, 6, 6), [0.8, 0.2], pass_index=1)
        other_class = det((5, 5, 6, 6), [0.2, 0.8], pass_index=1)
        clusters = bsas_cluster([first, same_class], theta_iou=0.0)
        assert [c.members for c in clusters] == [[first, same_class]]
        assert len(bsas_cluster([first, other_class], theta_iou=0.0)) == 2
        assert len(bsas_cluster([first, same_class], theta_iou=0.3)) == 2

    def test_argmax_tie_takes_the_first_class(self):
        # a tie between classes 0 and 1, in a founder and then in a running
        # mean, reads as class 0: a class-0 detection joins, a class-1 one
        # founds a new cluster
        a = det((0, 0, 4, 4), [0.4, 0.4, 0.2], pass_index=0)
        b = det((0, 0, 4, 4), [0.45, 0.45, 0.1], pass_index=1)
        c0 = det((0, 0, 4, 4), [0.7, 0.2, 0.1], pass_index=2)
        c1 = det((0, 0, 4, 4), [0.2, 0.7, 0.1], pass_index=2)
        assert [c.support for c in bsas_cluster([a, c0])] == [2]
        assert [c.support for c in bsas_cluster([a, c1])] == [1, 1]
        assert [c.support for c in bsas_cluster([a, b, c0])] == [3]
        assert [c.support for c in bsas_cluster([a, b, c1])] == [2, 1]


class Unreadable:
    """Probabilities that raise when fusion reads them."""

    def __init__(self, message):
        self.message = message

    def __array__(self, dtype=None, copy=None):
        raise ValueError(self.message)


class TestFusionWalkAgainstPerTOracle:
    """One walk cut at several T against the per-T path it replaced: fusing
    the detections with ``pass_index < T`` from scratch."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(pass_scenes(n_images=3),
           st.one_of(st.sampled_from(BSAS_THETAS), st.floats(0, 1)),
           st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    def test_every_cut_equals_fusing_its_prefix(self, dets, theta_iou, Ts):
        # passes run 0..3, so a cut of 5 or 6 lies past the last pass, and a
        # small cut often leaves an image with no detection below it
        fused = cluster_all(dets, theta_iou, Ts=Ts)
        assert sorted(fused) == sorted(Ts)
        for T in Ts:
            assert_same_clusters(fused[T], cluster_all(
                [d for d in dets if d.pass_index < T], theta_iou))

    def test_an_image_without_detections_below_a_cut(self):
        early = det((0, 0, 4, 4), [0.9, 0.1], pass_index=0, image_id=0)
        late = det((0, 0, 4, 4), [0.9, 0.1], pass_index=2, image_id=1)
        fused = cluster_all([late, early], Ts=[9, 1, 3])
        assert [c.members for c in fused[1]] == [[early]]
        assert [c.members for c in fused[3]] == [[early], [late]]
        assert [c.members for c in fused[9]] == [[early], [late]]
        assert cluster_all([], Ts=[2]) == {2: []}

    def test_a_fusion_error_fails_the_cuts_above_it(self):
        # image 2 fails at pass 1 and image 1 at pass 2: a cut fails with
        # the error of the first image (by id) that fails below it
        dets = [det((0, 0, 4, 4), [0.9, 0.1], pass_index=t, image_id=i)
                for t in range(4) for i in range(3)]
        for d in dets:
            if (d.image_id, d.pass_index) in ((2, 1), (1, 2)):
                d.probs = Unreadable(f"image {d.image_id}")
        fused = cluster_all(dets, Ts=[1, 2, 3, 4])
        assert [c.image_id for c in fused[1]] == [0, 1, 2]
        for T, message in ((2, "image 2"), (3, "image 1"), (4, "image 1")):
            assert str(fused[T]) == message
            with pytest.raises(ValueError, match=f"^{message}$"):
                cluster_all([d for d in dets if d.pass_index < T])


# hand-computed three-detection / two-ground-truth instance:
# class 0: D0 conf .9 IoU 5/6 with G0, D1 conf .8 exact duplicate of G0,
# D2 conf .7 sits on G1 but claims class 0.  Class 1 has no detections.
MAP_GTS = [gt((0, 0, 10, 10), class_id=0), gt((20, 20, 30, 30), class_id=1)]
MAP_DETS = [
    det((0, 0, 10, 12), [0.9, 0.05, 0.05]),
    det((0, 0, 10, 10), [0.8, 0.1, 0.1]),
    det((20, 20, 30, 30), [0.7, 0.2, 0.1]),
]


class TestMap:
    def test_exact_single_detection_is_perfect(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        d = [det((0, 0, 10, 10), [0.9, 0.1])]
        assert map_50_95(d, g) == 1.0

    def test_no_detections_is_zero(self):
        assert map_50_95([], MAP_GTS) == 0.0

    def test_no_ground_truths_rejected(self):
        with pytest.raises(ValueError):
            map_50_95(MAP_DETS, [])

    def test_hand_computed_table(self):
        # class 0 AP: 1.0 for the 7 thresholds <= 0.8 (D0 matches first),
        # 0.5 for the 3 above (D0 becomes FP, envelope tops at 1/2);
        # class 1 AP: 0 everywhere -> mAP = (7*1 + 3*0.5)/20
        assert map_50_95(MAP_DETS, MAP_GTS) == pytest.approx(0.425)

    def test_adding_perfect_detection_never_hurts(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gts = [gt((x, x, x + 10, x + 10), class_id=int(rng.integers(2)),
                      image_id=int(rng.integers(2)))
                   for x in rng.uniform(0, 50, 4)]
            dets = []
            for g in gts[:2]:
                jitter = rng.uniform(-3, 3, 4)
                try:
                    box = Box(g.box.x1 + jitter[0], g.box.y1 + jitter[1],
                              g.box.x2 + jitter[2], g.box.y2 + jitter[3])
                except ValueError:
                    continue
                probs = np.full(2, 0.2)
                probs[g.class_id] = float(rng.uniform(0.4, 0.9))
                dets.append(Detection(box=box, probs=probs, pass_index=0,
                                      image_id=g.image_id))
            before = map_50_95(dets, gts)
            target = gts[-1]
            probs = np.full(2, 0.0)
            probs[target.class_id] = 1.0
            dets.append(Detection(box=target.box, probs=probs, pass_index=0,
                                  image_id=target.image_id))
            assert map_50_95(dets, gts) >= before - 1e-12

    def test_works_on_clusters_too(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        d = [det((0, 0, 10, 10), [0.9, 0.1], pass_index=t) for t in range(3)]
        clusters = bsas_cluster(d)
        assert map_50_95(clusters, g) == 1.0


def greedy_match_oracle(items, gts, tau):
    """Independent matching: walk items by descending confidence, give each
    the best remaining compatible ground truth."""
    remaining = list(range(len(gts)))
    flags = {}
    for idx in sorted(range(len(items)), key=lambda i: -items[i].confidence):
        item = items[idx]
        best, best_overlap = None, tau
        for j in remaining:
            g = gts[j]
            if g.class_id != item.class_id or g.image_id != item.image_id:
                continue
            o = iou(item.box, g.box)
            if o >= best_overlap and (best is None or o > best_overlap):
                best, best_overlap = j, o
        if best is not None:
            remaining.remove(best)
            flags[idx] = True
        else:
            flags[idx] = False
    return [flags[i] for i in range(len(items))]


# Loop oracles: the matcher, AP and mAP the array-based code replaced.
# They rescan every ground truth per item and threshold, which is slow but
# plainly follows the definitions.

def loop_greedy_match(items, gts, tau):
    """Confidence-descending greedy matching at IoU >= tau with class
    agreement, per image; returns a TP flag per item (items order kept)."""
    order = sorted(range(len(items)), key=lambda i: -items[i].confidence)
    matched_gt = set()
    is_tp = [False] * len(items)
    for i in order:
        item = items[i]
        best_j, best_iou = None, 0.0
        for j, g in enumerate(gts):
            if j in matched_gt or g.class_id != item.class_id \
                    or g.image_id != item.image_id:
                continue
            overlap = iou(item.box, g.box)
            if overlap >= tau and overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j is not None:
            matched_gt.add(best_j)
            is_tp[i] = True
    return is_tp


def loop_average_precision(tp_flags, n_gt):
    """101-point interpolated AP from confidence-ordered TP flags."""
    if n_gt == 0 or len(tp_flags) == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(1 - tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    ap = 0.0
    for r in RECALL_LEVELS:
        reachable = precision[recall >= r]
        ap += reachable.max() if reachable.size else 0.0
    return ap / len(RECALL_LEVELS)


def loop_map_50_95(items, gts):
    classes = sorted({g.class_id for g in gts})
    ap_total = 0.0
    for cls in classes:
        cls_gts = [g for g in gts if g.class_id == cls]
        cls_items = sorted((it for it in items if it.class_id == cls),
                           key=lambda it: -it.confidence)
        for tau in IOU_THRESHOLDS:
            flags = np.array(loop_greedy_match(cls_items, cls_gts, tau),
                             dtype=np.float64)
            ap_total += loop_average_precision(flags, len(cls_gts))
    return ap_total / (len(classes) * len(IOU_THRESHOLDS))


# Integer corners on a small grid make exact-duplicate boxes (IoU ties),
# touching and disjoint boxes (IoU 0) common; a few probability vectors make
# equal confidences common, including an argmax tie between two classes.
GRID_BOXES = st.tuples(st.integers(0, 12), st.integers(0, 12),
                       st.integers(1, 8), st.integers(1, 8)).map(
    lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
PROB_VECTORS = [(0.6, 0.2, 0.2), (0.2, 0.6, 0.2), (0.2, 0.2, 0.6),
                (0.5, 0.3, 0.2), (0.3, 0.5, 0.2), (0.9, 0.05, 0.05),
                (0.05, 0.05, 0.9), (0.4, 0.4, 0.2)]
MATCH_TAUS = (0.0, 0.5, 0.95, 1.0)


@st.composite
def scenes(draw):
    """Ground truths and detections over up to three images, drawn from one
    shared pool of boxes."""
    pool = draw(st.lists(GRID_BOXES, min_size=1, max_size=6))
    box = st.sampled_from(pool)
    image = st.integers(0, 2)
    gts = draw(st.lists(st.builds(gt, box, class_id=st.integers(0, 2),
                                  image_id=image), max_size=6))
    items = draw(st.lists(st.builds(det, box, st.sampled_from(PROB_VECTORS),
                                    image_id=image), max_size=10))
    return items, gts


class TestArrayMatcherAgainstLoopOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(scenes())
    def test_flags_equal_at_every_threshold(self, scene):
        items, gts = scene
        taus = MATCH_TAUS + IOU_THRESHOLDS
        flags = _match(*_item_arrays(items), gts, taus)
        assert flags.shape == (len(taus), len(items))
        for k, tau in enumerate(taus):
            assert flags[k].tolist() == loop_greedy_match(items, gts, tau)
        for tau in MATCH_TAUS:
            got = [p.correct for p in label_tp_fp(items, gts, tau=tau)]
            assert got == loop_greedy_match(items, gts, tau)

    @settings(max_examples=300, deadline=None, database=None)
    @given(scenes())
    def test_map_exactly_equal(self, scene):
        items, gts = scene
        if not gts:
            return
        assert map_50_95(items, gts) == loop_map_50_95(items, gts)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.booleans(), max_size=30), st.integers(0, 12))
    def test_average_precision_exactly_equal(self, flags, n_gt):
        flags = np.array(flags, dtype=np.float64)
        assert average_precision(flags, n_gt) \
            == loop_average_precision(flags, n_gt)

    def test_equal_confidence_keeps_input_order(self):
        # both detections duplicate the one ground truth at confidence 0.6:
        # the earlier one in the input takes it
        g = [gt((0, 0, 10, 10), class_id=0)]
        d = [det((0, 0, 10, 10), [0.6, 0.2, 0.2]),
             det((0, 0, 10, 10), [0.6, 0.3, 0.1])]
        assert [p.correct for p in label_tp_fp(d, g)] == [True, False]

    def test_iou_tie_goes_to_lowest_ground_truth_index(self):
        # the first detection overlaps both ground truths at IoU 0.6 exactly;
        # the second duplicates the box at (5, 0) and overlaps the other at
        # 1/3, so it is a TP only if the first took the other one
        first = det((2.5, 0, 12.5, 10), [0.9, 0.1])
        second = det((5, 0, 15, 10), [0.8, 0.2])
        left, right = gt((0, 0, 10, 10)), gt((5, 0, 15, 10))
        for gts, want in (([left, right], [True, True]),
                          ([right, left], [True, False])):
            flags = _match(*_item_arrays([first, second]), gts, (0.5,))
            assert flags[0].tolist() == want
            assert loop_greedy_match([first, second], gts, 0.5) == want

    def test_zero_iou_never_matches_even_at_tau_zero(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        d = [det((10, 0, 20, 10), [0.9, 0.1])]  # touching edge: IoU 0
        assert _match(*_item_arrays(d), g, (0.0,)).tolist() == [[False]]


# Confidence 0.6 in three classes over two images, below one 0.9 and above
# one 0.5: a threshold of 0.6 keeps every tie, one of 0.95 keeps nothing.
TIED_SCENE = ([det((0, 0, 10, 10), (0.6, 0.2, 0.2)),
               det((0, 0, 10, 10), (0.2, 0.6, 0.2)),
               det((1, 0, 11, 10), (0.9, 0.05, 0.05)),
               det((0, 0, 10, 10), (0.5, 0.3, 0.2)),
               det((0, 0, 10, 10), (0.2, 0.2, 0.6), image_id=1),
               det((0, 0, 9, 10), (0.6, 0.2, 0.2), image_id=1)],
              [gt((0, 0, 10, 10), class_id=0), gt((0, 0, 10, 10), class_id=1),
               gt((0, 0, 10, 10), class_id=2, image_id=1),
               gt((0, 0, 10, 10), class_id=0, image_id=1)])


class TestThresholdKeepsAMatchPrefix:
    @settings(max_examples=300, deadline=None, database=None)
    @given(scenes(), st.sampled_from([0.0, 0.4, 0.5, 0.6, 0.9, 0.95]))
    @example(TIED_SCENE, 0.6)
    @example(TIED_SCENE, 0.95)
    def test_kept_flags_equal_matching_the_kept_alone(self, scene, thr):
        # thresholds sit on the confidences of PROB_VECTORS, so ties at the
        # threshold are common; 0.95 is above all of them
        items, gts = scene
        taus = MATCH_TAUS + IOU_THRESHOLDS
        boxes, probs, image_ids = _item_arrays(items)
        keep = probs.max(axis=1, initial=-np.inf) >= thr
        got = _match(boxes, probs, image_ids, gts, taus)[:, keep]
        want = _match(boxes[keep], probs[keep], image_ids[keep], gts, taus)
        assert got.shape == want.shape == (len(taus), keep.sum())
        assert got.tolist() == want.tolist()

    def test_the_tied_scene_keeps_ties_and_matches_both_ways(self):
        items, gts = TIED_SCENE
        boxes, probs, image_ids = _item_arrays(items)
        keep = probs.max(axis=1) >= 0.6
        assert keep.tolist() == [True, True, True, False, True, True]
        flags = _match(boxes, probs, image_ids, gts, (0.5,))[0]
        # the 0.9 item takes image 0's class-0 truth before its tie does
        assert flags.tolist() == [False, True, True, False, True, True]


def pred_fields(preds):
    return [(p.probs.tobytes(), p.confidence, p.correct, p.uncertainty,
             p.true_label) for p in preds]


# The confidences of PROB_VECTORS (ties at the threshold), values between
# them, and 0.95, above all of them.
SCORER_THRESHOLDS = [0.0, 0.4, 0.45, 0.5, 0.55, 0.6, 0.75, 0.9, 0.95]


class TestThresholdScorer:
    @settings(max_examples=300, deadline=None, database=None)
    @given(scenes(), st.sampled_from(MATCH_TAUS),
           st.sampled_from(["softmax", "sigmoid"]),
           st.lists(st.one_of(st.sampled_from(SCORER_THRESHOLDS),
                              st.floats(0, 1)), min_size=1, max_size=4))
    @example(([], [gt((0, 0, 10, 10))]), 0.5, "softmax", [0.0, 0.6])
    @example(TIED_SCENE, 0.95, "sigmoid", [0.6, 0.95, 0.0, 0.6])
    # class 2 has no ground truth: its items are FPs and add no AP term
    @example(([det((0, 0, 10, 10), (0.05, 0.05, 0.9)),
               det((0, 0, 10, 10), (0.6, 0.2, 0.2)),
               det((0, 0, 10, 10), (0.2, 0.2, 0.6))],
              [gt((0, 0, 10, 10), class_id=0)]), 0.5, "softmax", [0.0, 0.6])
    def test_equals_the_single_threshold_scorers(self, scene, tau, mode,
                                                 thresholds):
        # one scorer serves every threshold, in any order and repeated
        items, gts = scene
        score = threshold_scorer(items, gts, tau, mode)
        for thr in thresholds:
            kept = [it for it in items if it.confidence >= thr]
            if not gts:
                for scorer in (score, lambda _: map_50_95(kept, gts)):
                    with pytest.raises(ValueError, match="no ground truths"):
                        scorer(thr)
                continue
            performance, preds = score(thr)
            assert performance == map_50_95(kept, gts)
            assert pred_fields(preds) \
                == pred_fields(label_tp_fp(kept, gts, tau, mode))

    def test_tau_is_checked(self):
        with pytest.raises(ValueError, match="tau"):
            threshold_scorer([], [gt((0, 0, 10, 10))], tau=1.5)


class TestClustersScoreAsTheLoops:
    @settings(max_examples=200, deadline=None, database=None)
    @given(scenes(), st.sampled_from(MATCH_TAUS),
           st.sampled_from(["softmax", "sigmoid"]))
    def test_labels_and_map_equal_the_loops(self, scene, tau, mode):
        # fused observations are read through mean_probs, detections
        # through probs; each cluster scores as the per-item loops say
        dets, gts = scene
        clusters = cluster_all(dets)
        preds = label_tp_fp(clusters, gts, tau, mode)
        flags = loop_greedy_match(clusters, gts, tau)
        assert [(p.probs.tobytes(), p.confidence, p.correct, p.true_label,
                 p.uncertainty) for p in preds] \
            == [(c.mean_probs.tobytes(), c.confidence, tp,
                 c.class_id if tp else None,
                 entropy_for_mode(c.mean_probs, mode))
                for c, tp in zip(clusters, flags)]
        if gts:
            assert map_50_95(clusters, gts) == loop_map_50_95(clusters, gts)

    def test_an_empty_list(self):
        g = [gt((0, 0, 10, 10))]
        boxes, probs, image_ids = _item_arrays([])
        assert (boxes.shape, probs.shape, image_ids.shape) \
            == ((0, 4), (0, 0), (0,))
        assert label_tp_fp([], g) == []
        assert map_50_95([], g) == 0.0


class TestLabelTpFp:
    def test_perfect_detection_is_tp(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        preds = label_tp_fp([det((0, 0, 10, 10), [0.9, 0.1])], g, tau=0.5)
        assert len(preds) == 1
        assert preds[0].correct
        assert preds[0].true_label == 0

    def test_low_iou_is_fp(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        # unit overlap 4x10 over union 160: IoU = 40/160 = 0.25 < 0.5
        preds = label_tp_fp([det((6, 0, 16, 10), [0.9, 0.1])], g, tau=0.5)
        assert not preds[0].correct
        assert preds[0].true_label is None

    def test_matches_exhaustive_oracle_on_small_scenes(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            gts = []
            for _ in range(int(rng.integers(1, 4))):
                x, y = rng.uniform(0, 30, 2)
                gts.append(gt((x, y, x + 10, y + 10),
                              class_id=int(rng.integers(2))))
            dets = []
            for _ in range(int(rng.integers(1, 6))):
                x, y = rng.uniform(0, 30, 2)
                probs = rng.dirichlet(np.ones(2))
                dets.append(det((x, y, x + 10, y + 10), probs))
            got = [p.correct for p in label_tp_fp(dets, gts, tau=0.3)]
            want = greedy_match_oracle(dets, gts, 0.3)
            assert got == want

    def test_tp_count_never_exceeds_gt_count(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            gts = [gt((x, x, x + 8, x + 8), class_id=int(rng.integers(2)))
                   for x in rng.uniform(0, 40, 3)]
            dets = [det((x, x, x + 8, x + 8), rng.dirichlet(np.ones(2)))
                    for x in rng.uniform(0, 40, 8)]
            preds = label_tp_fp(dets, gts, tau=0.1)
            for cls in (0, 1):
                n_tp = sum(1 for p, d in zip(preds, dets)
                           if p.correct and d.class_id == cls)
                n_gt = sum(1 for g in gts if g.class_id == cls)
                assert n_tp <= n_gt

    def test_uncertainty_uses_mode_entropy(self):
        g = [gt((0, 0, 10, 10), class_id=0)]
        d = [det((0, 0, 10, 10), [0.5, 0.5])]
        softmax_pred = label_tp_fp(d, g, mode="softmax")[0]
        sigmoid_pred = label_tp_fp(d, g, mode="sigmoid")[0]
        assert softmax_pred.uncertainty == pytest.approx(1.0)  # log2(2)
        assert sigmoid_pred.uncertainty == pytest.approx(1.0)  # H(0.5)


class TestSynthDetector:
    SCENE = [gt((10, 10, 30, 30), class_id=0), gt((50, 50, 70, 80), class_id=1)]

    def test_noiseless_detector_reproduces_scene(self):
        noise = NoiseSpec(box_jitter=0.0, miss_prob=0.0, halluc_rate=0.0)
        dets = synth_detector(self.SCENE, noise, T=4, seed=0, n_classes=3)
        assert len(dets) == 8
        for t in range(4):
            per_pass = [d for d in dets if d.pass_index == t]
            assert [d.box for d in per_pass] == [g.box for g in self.SCENE]
            assert [d.class_id for d in per_pass] == [0, 1]

    def test_total_miss_emits_nothing(self):
        noise = NoiseSpec(miss_prob=1.0)
        assert synth_detector(self.SCENE, noise, T=5, seed=0, n_classes=3) == []

    def test_miss_frequency_matches_config(self):
        noise = NoiseSpec(miss_prob=0.3)
        scene = [self.SCENE[0]]
        dets = synth_detector(scene, noise, T=10 ** 4, seed=1, n_classes=3)
        emitted = len(dets) / 10 ** 4
        assert abs((1 - emitted) - 0.3) < 0.01

    def test_deterministic_given_seed(self):
        noise = NoiseSpec(box_jitter=1.0, miss_prob=0.2, halluc_rate=0.5)
        a = synth_detector(self.SCENE, noise, T=6, seed=3, n_classes=3)
        b = synth_detector(self.SCENE, noise, T=6, seed=3, n_classes=3)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.box == db.box
            assert np.array_equal(da.probs, db.probs)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2 ** 32),
           st.sampled_from(["softmax", "sigmoid"]),
           st.sampled_from([0.0, 1.5]), st.sampled_from([0.0, 0.3]),
           st.sampled_from([0.0, 0.8]))
    def test_pass_prefix_equals_a_shorter_run(self, T, extra, seed, mode,
                                              jitter, miss, halluc):
        scene = self.SCENE + [gt((5, 60, 25, 90), class_id=2, image_id=1)]
        noise = NoiseSpec(box_jitter=jitter, miss_prob=miss,
                          halluc_rate=halluc)
        longer = synth_detector(scene, noise, T=T + extra, seed=seed,
                                n_classes=3, mode=mode)
        prefix = [d for d in longer if d.pass_index < T]
        short = synth_detector(scene, noise, T=T, seed=seed, n_classes=3,
                               mode=mode)
        assert len(prefix) == len(short)
        for a, b in zip(prefix, short):
            assert a.box == b.box
            assert np.array_equal(a.probs, b.probs)
            assert (a.pass_index, a.image_id) == (b.pass_index, b.image_id)

    def test_perfect_detector_end_to_end_map_is_one(self):
        noise = NoiseSpec(box_jitter=0.0, miss_prob=0.0, halluc_rate=0.0)
        dets = synth_detector(self.SCENE, noise, T=5, seed=0, n_classes=3)
        clusters = cluster_all(dets)
        assert map_50_95(clusters, self.SCENE) == 1.0

    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_a_true_class_shares_one_read_only_row(self, mode):
        # without jitter a detection of an object keeps its box, so the
        # hallucinated ones are those on no ground-truth box of their image
        scene = self.SCENE + [gt((10, 10, 30, 30), class_id=0, image_id=1),
                              gt((40, 5, 60, 25), class_id=2, image_id=1)]
        truth = {(g.image_id, g.box): g.class_id for g in scene}
        noise = NoiseSpec(miss_prob=0.2, halluc_rate=1.0, sharpness=0.7)
        dets = synth_detector(scene, noise, T=6, seed=4, n_classes=3,
                              mode=mode)
        rows = {}
        for d in dets:
            if (d.image_id, d.box) in truth:
                rows.setdefault(truth[d.image_id, d.box], []).append(d.probs)
        assert sorted(rows) == [0, 1, 2]
        hallucinated = [d.probs for d in dets
                        if (d.image_id, d.box) not in truth]
        assert hallucinated
        for cls, shared in rows.items():
            assert len(shared) > 2
            assert all(row is shared[0] for row in shared)
            assert not shared[0].flags.writeable
            off = (1 - 0.7) / (1 if mode == "sigmoid" else 2)
            assert shared[0].tolist() == [0.7 if c == cls else off
                                          for c in range(3)]
            assert all(row is not shared[0] for row in hallucinated)


class TestRecordFiles:
    def test_ground_truth_roundtrip(self, tmp_path):
        gts = [gt((1.5, 2.25, 9.75, 12.125), class_id=2, image_id=7)]
        path = tmp_path / "gt.csv"
        save_ground_truths(gts, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["7", "2", "1.5", "2.25", "9.75", "12.125"]]
        box = Box(*(float(v) for v in rows[0][2:]))
        assert box == gts[0].box


def scored_scene(seed, n, n_classes, mode, zero_frac):
    """(items, ground truths, mode): items over two images on a small box
    grid, carrying the rows of ``entropy_rows`` (exact zeros, softmax rows
    that are renormalized, sigmoid entries of exactly 1)."""
    probs, mode = entropy_rows(seed, n, n_classes, mode, zero_frac)
    rng = np.random.default_rng([seed, 1])
    corners = rng.integers(0, 8, size=(n + 4, 2))
    sides = rng.integers(1, 6, size=(n + 4, 2))
    boxes = np.concatenate([corners, corners + sides], axis=1).tolist()
    image_ids = rng.integers(2, size=n + 4).tolist()
    items = [det(boxes[i], row, image_id=image_ids[i])
             for i, row in enumerate(probs)]
    gts = [gt(boxes[n + j], class_id=int(rng.integers(n_classes)),
              image_id=image_ids[n + j]) for j in range(4)]
    return items, gts, mode


scored_scenes = st.builds(
    scored_scene, seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
    n_classes=st.sampled_from([2, 3, 8, 9, 17]),
    mode=st.sampled_from(["softmax", "sigmoid"]),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5, 0.9]))


def bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


class TestCutUncertaintyEqualsTheRowEntropy:
    """A cut's uncertainties come from one array entropy over the rows that
    ``_item_arrays`` stacks: each equals ``entropy_for_mode`` of its row bit
    for bit, and a row that function refuses still fails its T."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(scored_scenes, st.sampled_from(MATCH_TAUS),
           st.lists(st.floats(0, 1), min_size=1, max_size=3))
    def test_scorers_give_each_row_its_entropy(self, scene, tau, thresholds):
        items, gts, mode = scene
        want = [entropy_for_mode(it.probs, mode) for it in items]
        preds = label_tp_fp(items, gts, tau, mode)
        assert bits([p.uncertainty for p in preds]) == bits(want)
        assert all(type(p.uncertainty) is float for p in preds)
        score = threshold_scorer(items, gts, tau, mode)
        for thr in thresholds:
            kept = [u for it, u in zip(items, want) if it.confidence >= thr]
            assert bits([p.uncertainty for p in score(thr)[1]]) == bits(kept)

    @pytest.mark.parametrize("mode, spoiled", [
        ("softmax", [0.75, 0.5, 0.0]),    # sums to 1.25
        ("softmax", [1.2, -0.2, 0.0]),    # sums to 1 with a negative entry
        ("sigmoid", [1.5, 0.2, 0.2]),     # an entry above 1
    ])
    def test_a_refused_row_fails_its_T_naming_the_row(self, tmp_path,
                                                      monkeypatch, mode,
                                                      spoiled):
        # image 1's detections of pass 2 carry the spoiled row: T=2 scores,
        # and each row of T=4 fails naming the first refused observation,
        # which follows image 0's observations
        detect, seen = harness.synth_detector, []

        def spoiling(gts, noise, **kwargs):
            dets = detect(gts, noise, **kwargs)
            for d in dets:
                if (d.image_id, d.pass_index) == (1, 2):
                    d.probs = np.array(spoiled)
            seen.append(dets)
            return dets

        monkeypatch.setattr(harness, "synth_detector", spoiling)
        cfg = ExperimentConfig.from_dict(dict(
            task="detection", out_dir=str(tmp_path),
            dataset={"kind": "boxes-detection", "n_images": 3,
                     "boxes_per_image": 2, "n_classes": 3, "box_jitter": 0.0,
                     "miss_prob": 0.0, "halluc_rate": 0.0},
            arch={"n_blocks": 2, "width": 4, "output_mode": mode},
            methods=["MCD"], drop_rates=[0.0], Ts=[2, 4],
            conf_thresholds=[0.0, 0.5]))
        result = run_sweep(cfg)
        fused = cluster_all([d for d in seen[0] if d.pass_index < 4])
        bad = [refused(c.mean_probs, mode) for c in fused]
        row = bad.index(True)
        assert row > 0 and fused[row].image_id == 1
        what = ("entries must lie in [0, 1]" if mode == "sigmoid" else
                "probabilities must be non-negative and sum to 1")
        assert result.failures == [
            (f"MCD/rate=0.0/blocks=all/T=4/conf={c}", f"row {row}: {what}")
            for c in (0.0, 0.5)]
        assert [p.T for p, _ in result.points] == [2, 2]

    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_scoring_a_cut_calls_no_row_entropy(self, monkeypatch, mode):
        scene = [gt((10, 10, 30, 30), class_id=0), gt((50, 50, 70, 80), 1),
                 gt((5, 60, 25, 90), class_id=2, image_id=1)]
        noise = NoiseSpec(box_jitter=1.5, miss_prob=0.2, halluc_rate=0.8)
        dets = synth_detector(scene, noise, T=5, seed=9, n_classes=3,
                              mode=mode)
        cuts = cluster_all(dets, Ts=[2, 5])
        want = {T: [entropy_for_mode(c.mean_probs, mode) for c in cuts[T]]
                for T in cuts}

        def row_entropy(*args):
            raise AssertionError("entropy_for_mode called")

        monkeypatch.setattr(detection, "entropy_for_mode", row_entropy)
        monkeypatch.setattr(metrics, "entropy_for_mode", row_entropy)
        for T, clusters in cuts.items():
            preds = label_tp_fp(clusters, scene, 0.5, mode)
            assert bits([p.uncertainty for p in preds]) == bits(want[T])
            _, preds = threshold_scorer(clusters, scene, 0.5, mode)(0.0)
            assert bits([p.uncertainty for p in preds]) == bits(want[T])
