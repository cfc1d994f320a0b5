import csv

import numpy as np
import pytest

from mcuq.datasets import (
    ShiftLevel,
    ShiftSpec,
    corrupt,
    make_blobs,
    make_box_scenes,
    make_dataset,
    make_moons,
    save_classification,
)


class TestGenerators:
    def test_blobs_shapes_and_determinism(self):
        Xa, ya = make_blobs(200, n_classes=4, seed=5)
        Xb, yb = make_blobs(200, n_classes=4, seed=5)
        assert Xa.shape == (200, 2) and ya.shape == (200,)
        assert set(np.unique(ya)) <= set(range(4))
        assert np.array_equal(Xa, Xb) and np.array_equal(ya, yb)
        Xc, _ = make_blobs(200, n_classes=4, seed=6)
        assert not np.array_equal(Xa, Xc)

    def test_blob_label_noise_fraction(self):
        _, clean = make_blobs(5000, n_classes=3, seed=7, label_noise=0.0)
        _, noisy = make_blobs(5000, n_classes=3, seed=7, label_noise=0.15)
        flipped = (clean != noisy).mean()
        assert abs(flipped - 0.15) < 0.02

    def test_moons_two_balanced_classes(self):
        X, y = make_moons(400, noise=0.05, seed=8)
        assert X.shape == (400, 2)
        assert sorted(np.unique(y)) == [0, 1]
        assert abs((y == 0).mean() - 0.5) < 0.01

    def test_box_scenes_are_valid_and_deterministic(self):
        a = make_box_scenes(5, n_classes=3, boxes_per_image=4, seed=9)
        b = make_box_scenes(5, n_classes=3, boxes_per_image=4, seed=9)
        assert len(a) == 20
        assert all(g.box.x1 < g.box.x2 and g.box.y1 < g.box.y2 for g in a)
        assert [g.box for g in a] == [g.box for g in b]
        assert sorted({g.image_id for g in a}) == list(range(5))


class TestCorruption:
    def test_null_level_is_identity(self):
        X, y = make_blobs(50, seed=0)
        out = corrupt(X, y, ShiftLevel(name="clean"), seed=1)
        assert np.array_equal(out, X)

    def test_rotation_preserves_norms(self):
        X, y = make_blobs(50, seed=0)
        out = corrupt(X, y, ShiftLevel(name="rot", rotation_deg=30.0), seed=1)
        assert np.allclose(np.linalg.norm(out, axis=1),
                           np.linalg.norm(X, axis=1))

    def test_noise_moves_points(self):
        X, y = make_blobs(50, seed=0)
        out = corrupt(X, y, ShiftLevel(name="noisy", noise_scale=0.5), seed=1)
        assert np.abs(out - X).max() > 0.1

    def test_drift_is_class_conditional(self):
        X, y = make_blobs(200, seed=0)
        out = corrupt(X, y, ShiftLevel(name="drift", drift=1.0), seed=1)
        deltas = out - X
        for cls in np.unique(y):
            cls_delta = deltas[y == cls]
            assert np.allclose(cls_delta, cls_delta[0])
            assert np.linalg.norm(cls_delta[0]) == pytest.approx(1.0)

    def test_default_ladder_is_ordered(self):
        spec = ShiftSpec.default_ladder(n_levels=4)
        scales = [level.noise_scale for level in spec.levels]
        assert scales == sorted(scales)
        assert scales[0] == 0.0


class TestFiles:
    def test_classification_roundtrip(self, tmp_path):
        X, y = make_blobs(30, seed=1)
        path = tmp_path / "data.csv"
        save_classification(X, y, path)
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["label", "f0", "f1"]
        y2 = np.array([int(r[0]) for r in rows])
        X2 = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    @pytest.mark.parametrize("kind", ["blobs-classification",
                                      "moons-classification",
                                      "boxes-detection"])
    def test_make_dataset_is_byte_deterministic(self, kind, tmp_path):
        a = make_dataset(kind, {}, seed=3, out_dir=tmp_path / "a")
        b = make_dataset(kind, {}, seed=3, out_dir=tmp_path / "b")
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_dataset("images", {}, seed=0, out_dir=tmp_path)

    def test_invalid_params_rejected_before_write(self, tmp_path):
        out = tmp_path / "nothing"
        with pytest.raises(ValueError):
            make_dataset("blobs-classification", {"bogus": 1}, seed=0,
                         out_dir=out)
        assert not out.exists()
