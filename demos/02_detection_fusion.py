#!/usr/bin/env python3
"""Fusing detections from repeated stochastic passes of a detector.

A synthetic stochastic detector stands in for a sampled vision model: per
pass it re-detects each ground-truth object with box jitter, sometimes
misses one, and sometimes hallucinates a spurious box.  Sequential
clustering with spatial (IoU) and semantic (argmax class) affinity fuses
the per-pass detections into object observations whose mean probabilities
carry the uncertainty signal: real objects collect support across passes,
hallucinations stay low-support and high-entropy, which is exactly what
selective prediction needs.
"""

from mcuq import Box, GroundTruth, NoiseSpec, auarc, map_50_95, synth_detector
from mcuq.detection import cluster_all, label_tp_fp

scene = [
    GroundTruth(Box(10, 10, 30, 30), class_id=0, image_id=0),
    GroundTruth(Box(55, 20, 80, 45), class_id=1, image_id=0),
    GroundTruth(Box(20, 60, 45, 90), class_id=2, image_id=0),
    GroundTruth(Box(50, 55, 75, 85), class_id=0, image_id=1),
]
noise = NoiseSpec(box_jitter=1.5, miss_prob=0.15, halluc_rate=0.5,
                  sharpness=0.85)

T = 10
dets = synth_detector(scene, noise, T=T, seed=7, n_classes=3)
print(f"{len(dets)} raw detections across {T} passes of 2 images")

clusters = cluster_all(dets, theta_iou=0.5)
print(f"fused into {len(clusters)} observations:")
for c in sorted(clusters, key=lambda c: -c.support):
    kind = "object " if c.support > T / 2 else "spurious?"
    print(f"  image {c.image_id}  support {c.support:2d}/{T}  "
          f"class {c.class_id}  confidence {c.confidence:.2f}  [{kind}]")

kept = [c for c in clusters if c.confidence >= 0.3]
print(f"\nmAP(0.50:0.95) on confidence >= 0.3: "
      f"{map_50_95(kept, scene):.3f}")

preds = label_tp_fp(kept, scene, tau=0.5, mode="softmax")
n_tp = sum(p.correct for p in preds)
print(f"{n_tp} true positives / {len(preds) - n_tp} false positives "
      f"after matching")
print(f"AUARC when rejecting by entropy: {auarc(preds):.3f} "
      "(1.0 would mean entropy separates FPs perfectly)")
