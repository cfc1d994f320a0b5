"""The reference scorers against hand-worked cases."""

import numpy as np
import pytest

import reference as ref


def test_entropy_in_bits_with_zero_entries():
    got = ref.entropy_bits([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                            [0.25, 0.25, 0.5]])
    assert got.tolist() == [0.0, 1.0, 1.5]


def test_accuracy_and_brier():
    probs = np.array([[0.7, 0.3], [0.4, 0.6], [0.9, 0.1]])
    assert ref.accuracy(probs, np.array([0, 0, 0])) == pytest.approx(2 / 3)
    # (0 + 0.25 + 0.25) over N * C = 4
    assert ref.brier(np.array([[1.0, 0.0], [0.5, 0.5]]),
                     np.array([0, 1])) == pytest.approx(0.125)


def test_ece_bins_are_half_open_and_the_last_is_closed():
    # M = 2: [0, 0.5) holds 0.25 (wrong); [0.5, 1] holds 0.5, 0.9, 1.0
    # with 2 of 3 right.  |0 - 0.25| / 4 + |2/3 - 0.8| * 3/4
    conf = np.array([0.25, 0.5, 0.9, 1.0])
    correct = np.array([False, False, True, True])
    assert ref.ece(conf, correct, n_bins=2) == pytest.approx(0.0625 + 0.1)


def test_auarc_rejects_most_uncertain_first_with_stable_ties():
    # order 0 (wrong), 2, 1: retained accuracy 2/3, 1, 1
    assert ref.auarc(np.array([0.9, 0.1, 0.5]),
                     np.array([False, True, True])) == pytest.approx(8 / 9)
    assert ref.auarc(np.array([0.5, 0.5]), np.array([False, True])) == 0.75
    assert ref.auarc(np.array([0.5, 0.5]), np.array([True, False])) == 0.25


def test_iou_from_corners():
    a = np.array([[0.0, 0.0, 2.0, 2.0]])
    b = np.array([[1.0, 1.0, 3.0, 3.0], [2.0, 0.0, 4.0, 2.0],
                  [5.0, 5.0, 6.0, 6.0], [0.0, 0.0, 2.0, 2.0]])
    assert ref.iou_matrix(a, b).tolist() == [[1 / 7, 0.0, 0.0, 1.0]]


def test_greedy_matching_by_confidence_class_and_image():
    gt_boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
    boxes = np.array([[0.0, 0.0, 10.0, 10.0]] * 4)
    probs = np.array([[0.6, 0.4], [0.9, 0.1], [0.2, 0.8], [0.95, 0.05]])
    image_ids = np.array([0, 0, 0, 1])
    tp = ref.greedy_tp(boxes, probs, image_ids, gt_boxes, np.array([0]),
                       np.array([0]), tau=0.5)
    # item 1 outranks item 0 for the one ground truth; item 2 has the
    # wrong class; item 3 is in another image
    assert tp.tolist() == [False, True, False, False]


def test_ap_101_point_interpolation():
    assert ref.ap_101(np.array([1, 0]), n_gt=1) == 1.0
    assert ref.ap_101(np.array([0, 1]), n_gt=1) == pytest.approx(0.5)
    # recall 0.5 reached: the 51 levels 0.00 .. 0.50 score 1, the rest 0
    assert ref.ap_101(np.array([1]), n_gt=2) == pytest.approx(51 / 101)
    # precision 1, 1/2, 2/3 at recall 1/2, 1/2, 1: envelope 1 up to
    # recall 0.5, then 2/3
    assert ref.ap_101(np.array([1, 0, 1]), n_gt=2) == \
        pytest.approx((51 + 50 * 2 / 3) / 101)
    assert ref.ap_101(np.array([]), n_gt=2) == 0.0


def test_map_over_iou_thresholds_and_classes():
    gt_boxes = np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 30.0]])
    gt_classes = np.array([0, 1])
    gt_images = np.array([0, 0])
    # class 0 exact (TP at all ten thresholds); class 1 at IoU 0.62
    # (TP at 0.50, 0.55, 0.60 only): (10 + 3) / 20
    boxes = np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 30.0, 26.2]])
    probs = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05]])
    got = ref.map_50_95(boxes, probs, np.array([0, 0]), gt_boxes, gt_classes,
                        gt_images)
    assert got == pytest.approx(13 / 20)


def test_map_confidence_threshold_drops_items_first():
    gt_boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
    # a confident false positive ranked above a weak true positive
    boxes = np.array([[50.0, 50.0, 60.0, 60.0], [0.0, 0.0, 10.0, 10.0]])
    probs = np.array([[0.45, 0.3, 0.25], [0.4, 0.3, 0.3]])
    args = (boxes, probs, np.array([0, 0]), gt_boxes, np.array([0]),
            np.array([0]))
    assert ref.map_50_95(*args) == pytest.approx(0.5)
    assert ref.map_50_95(*args, conf_threshold=0.42) == 0.0
    # items of a class without ground truths are ignored
    other = np.array([[0.1, 0.8, 0.1], [0.9, 0.05, 0.05]])
    assert ref.map_50_95(boxes, other, np.array([0, 0]), gt_boxes,
                         np.array([0]), np.array([0])) == 1.0
