"""Generate a ground-truth world, corrupt it into a detection stream, and
round-trip both through their JSON Lines formats.  Exits 1 when either
round trip is not bit-exact.

Run:  python demos/02_synthetic_worlds.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from trackgraph import synthworld as sw

world = sw.WorldConfig(num_classes=5, frames=10, max_objects=4,
                       appearance_dim=8, mask_grid=24, seed=42)
gt = sw.crossing_sequence(world, num_pairs=1)
# the ground truth is one GroundTruth: the objects as rows in ascending id
# order, with (K, T) presence, (K, T, 4) boxes and (K, T, G, G) masks
print(f"world: {len(gt)} objects over {gt.frames} frames")
for oid, cls, present, masks in zip(gt.ids, gt.classes, gt.present, gt.masks):
    span = np.flatnonzero(present)
    print(f"  object {oid}: class {cls}, frames "
          f"{span[0]}..{span[-1]}, mean mask area "
          f"{masks[present].mean():.3f}")

noise = sw.NoiseConfig(miss_prob=0.15, false_positive_rate=0.5,
                       class_temperature=0.3, box_jitter=0.01,
                       appearance_noise=0.1, duplicate_prob=0.05)
stream = sw.corrupt(gt, noise, seed=7)
# each frame is one DetectionFrame: stacked arrays, one row per detection,
# and a per-row source (the ground-truth object id, or "fp")
per_frame = [len(f) for f in stream.frames]
fp_count = sum(int(np.count_nonzero(f.sources == "fp")) for f in stream.frames)
print(f"detections per frame: {per_frame}  (false positives: {fp_count})")

# the crossing pair shares a class; find the frame where they overlap most
from trackgraph.assocgraph import iou_matrix

overlaps = [iou_matrix(gt.boxes[0, t], gt.boxes[1, t])[0, 0] for t in range(gt.frames)]
print(f"crossing pair (class {gt.classes[0]}) peak IoU "
      f"{max(overlaps):.2f} at frame {int(np.argmax(overlaps))}")

with tempfile.TemporaryDirectory() as tmp:
    det_path = Path(tmp) / "stream.det.jsonl"
    gt_path = Path(tmp) / "stream.gt.jsonl"
    sw.save_detections_jsonl(stream, det_path)
    sw.save_ground_truth_jsonl(gt, gt_path)
    back = sw.load_detections_jsonl(det_path)
    same = len(back) == len(stream) and all(
        np.array_equal(getattr(fx, name), getattr(fy, name))
        for fx, fy in zip(stream.frames, back.frames)
        for name in ("boxes", "scores", "appearance", "masks", "sources")
    )
    # the file carries boxes and masks only where an object is present
    gt_back = sw.load_ground_truth_jsonl(gt_path, num_classes=gt.num_classes)
    on = gt.present
    same_gt = gt_back.present.shape == on.shape and all(
        np.array_equal(x, y) for x, y in (
            (gt_back.ids, gt.ids), (gt_back.classes, gt.classes),
            (gt_back.present, on), (gt_back.appearance, gt.appearance),
            (gt_back.boxes[on], gt.boxes[on]), (gt_back.masks[on], gt.masks[on])))
    print(f"JSONL round-trip bit-exact: detections {same}, ground truth {same_gt}")
    print(f"file sizes: detections {det_path.stat().st_size} B, "
          f"ground truth {gt_path.stat().st_size} B")

if not (same and same_gt):
    sys.exit(1)
