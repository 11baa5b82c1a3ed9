"""Sequence-level evaluation: spatio-temporal IoU, video mAP, and identity
metrics, plus report rendering.

Tracks are compared as per-frame mask sets.  A predicted track's class and
confidence come from its final-frame class distribution (the frame with the
most accumulated evidence): class is the argmax over foreground classes and
confidence is that class's probability, so tracks the model has pushed
toward background rank at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAP_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.951, 0.05), 2))


@dataclass
class EvalTrack:
    """Evaluation view of one track: binary masks on the frames where it
    reported anything, one class, one confidence."""

    id: int
    class_id: int
    confidence: float
    masks: dict[int, np.ndarray]
    sequence: int = 0


@dataclass
class EvalReport:
    per_threshold: dict[float, float]
    mean_map: float
    per_class_ap: dict[int, float]
    association_accuracy: float
    id_switches: int
    scenarios: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mean_map": self.mean_map,
            "map_per_threshold": {f"{k:.2f}": v for k, v in self.per_threshold.items()},
            "ap_per_class": {str(k): v for k, v in self.per_class_ap.items()},
            "association_accuracy": self.association_accuracy,
            "id_switches": self.id_switches,
            "scenarios": self.scenarios,
        }

    def to_table(self) -> str:
        rows = [("metric", "value"),
                ("video mAP (0.50:0.05:0.95)", f"{self.mean_map:.4f}")]
        for thr, v in sorted(self.per_threshold.items()):
            rows.append((f"  mAP @ {thr:.2f}", f"{v:.4f}"))
        for cls, v in sorted(self.per_class_ap.items()):
            rows.append((f"  AP class {cls}", f"{v:.4f}"))
        rows.append(("association accuracy", f"{self.association_accuracy:.4f}"))
        rows.append(("ID switches", str(self.id_switches)))
        for name, metrics in self.scenarios.items():
            rows.append((f"scenario {name}: mAP", f"{metrics['mean_map']:.4f}"))
        width = max(len(r[0]) for r in rows) + 2
        return "\n".join(f"{a:<{width}}{b}" for a, b in rows)


# ---------------------------------------------------------------------------
# track construction


def _predicted_track(track_id, final_scores, num_classes: int, masks,
                     sequence: int) -> EvalTrack:
    """The class and confidence rule of the module docstring, applied to the
    scores of a track's final record."""
    cls = int(np.argmax(final_scores[:num_classes]))
    return EvalTrack(id=track_id, class_id=cls, confidence=float(final_scores[cls]),
                     masks=masks, sequence=sequence)


def tracks_from_memory(memory, num_classes: int, sequence: int = 0) -> list[EvalTrack]:
    out = []
    for track in memory:
        masks = {r.t: r.mask for r in track.records if r.active and r.mask is not None}
        out.append(_predicted_track(track.id, track.records[-1].scores, num_classes,
                                    masks, sequence))
    return out


def tracks_from_gt(gt, sequence: int = 0) -> list[EvalTrack]:
    out = []
    for obj in gt.objects:
        masks = {t: obj.masks[t] for t in range(gt.frames) if obj.present[t]}
        if masks:
            out.append(EvalTrack(id=obj.id, class_id=obj.class_id, confidence=1.0,
                                 masks=masks, sequence=sequence))
    return out


# ---------------------------------------------------------------------------
# metrics


def st_iou(track_a: EvalTrack, track_b: EvalTrack) -> float:
    """Sum of per-frame intersections over sum of per-frame unions; a frame
    where only one side exists contributes that side's area to the union."""
    inter = 0
    union = 0
    for t in set(track_a.masks) | set(track_b.masks):
        a = track_a.masks.get(t)
        b = track_b.masks.get(t)
        if a is not None and b is not None:
            inter += int(np.logical_and(a, b).sum())
            union += int(np.logical_or(a, b).sum())
        elif a is not None:
            union += int(np.count_nonzero(a))
        else:
            union += int(np.count_nonzero(b))
    if union == 0:
        return 0.0
    return inter / union


def _interpolated_ap(tp_flags: list[bool], num_gt: int) -> float:
    """101-point interpolated average precision."""
    if num_gt == 0:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / num_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0


def _match_class_at_threshold(preds, gts, threshold: float) -> list[bool]:
    """Greedy confidence-order matching: each prediction takes the free gt of
    its own sequence with the highest st-IoU >= threshold."""
    taken = set()
    flags = []
    for pred in preds:
        best, best_gt = 0.0, None
        for gi, gt in enumerate(gts):
            if gi in taken or gt.sequence != pred.sequence:
                continue
            v = st_iou(pred, gt)
            if v > best:
                best, best_gt = v, gi
        if best_gt is not None and best >= threshold:
            taken.add(best_gt)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def video_map(predictions: list[EvalTrack], gts: list[EvalTrack],
              thresholds=MAP_THRESHOLDS) -> tuple[dict, dict, float]:
    """Per-threshold mAP, per-class AP (averaged over thresholds), and the
    overall mean.  Classes with no gt track are excluded from the averages;
    equal-confidence predictions rank by lower id first."""
    classes = sorted({g.class_id for g in gts})
    per_threshold: dict[float, float] = {}
    per_class_accum = {c: [] for c in classes}
    for thr in thresholds:
        class_aps = []
        for c in classes:
            preds = sorted([p for p in predictions if p.class_id == c],
                           key=lambda p: (-p.confidence, p.sequence, p.id))
            gt_c = [g for g in gts if g.class_id == c]
            flags = _match_class_at_threshold(preds, gt_c, thr)
            ap = _interpolated_ap(flags, len(gt_c))
            class_aps.append(ap)
            per_class_accum[c].append(ap)
        per_threshold[float(thr)] = float(np.mean(class_aps)) if class_aps else 0.0
    per_class = {c: float(np.mean(v)) for c, v in per_class_accum.items()}
    mean = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return per_threshold, per_class, mean


def _covering_track(preds: list[EvalTrack], gt_mask: np.ndarray, t: int):
    best_overlap, best_id = 0, None
    for p in sorted(preds, key=lambda p: p.id):
        mask = p.masks.get(t)
        if mask is None:
            continue
        overlap = int(np.logical_and(mask, gt_mask).sum())
        if overlap > best_overlap:
            best_overlap, best_id = overlap, p.id
    return best_id


def id_metrics(predictions: list[EvalTrack], gts: list[EvalTrack]) -> tuple[float, int]:
    """Association accuracy: fraction of (frame, gt object) pairs whose
    covering track is the object's most-frequent covering track.  ID switches:
    changes of covering id between consecutive covered frames."""
    total_pairs = 0
    correct = 0
    switches = 0
    for gt in gts:
        preds = [p for p in predictions if p.sequence == gt.sequence]
        covers = []
        for t in sorted(gt.masks):
            total_pairs += 1
            covers.append(_covering_track(preds, gt.masks[t], t))
        covered = [c for c in covers if c is not None]
        if covered:
            ids, counts = np.unique(covered, return_counts=True)
            main = int(ids[np.argmax(counts)])
            correct += sum(1 for c in covers if c == main)
            switches += sum(1 for a, b in zip(covered, covered[1:]) if a != b)
    accuracy = correct / total_pairs if total_pairs else 0.0
    return accuracy, switches


def evaluate(predictions: list[EvalTrack], gts: list[EvalTrack],
             thresholds=MAP_THRESHOLDS,
             scenarios: dict[str, tuple[list, list]] | None = None) -> EvalReport:
    per_threshold, per_class, mean = video_map(predictions, gts, thresholds)
    accuracy, switches = id_metrics(predictions, gts)
    report = EvalReport(per_threshold=per_threshold, mean_map=mean,
                        per_class_ap=per_class, association_accuracy=accuracy,
                        id_switches=switches)
    for name, (p, g) in (scenarios or {}).items():
        _, _, smap = video_map(p, g, thresholds)
        sacc, ssw = id_metrics(p, g)
        report.scenarios[name] = {"mean_map": smap, "association_accuracy": sacc,
                                  "id_switches": ssw}
    return report


# ---------------------------------------------------------------------------
# prediction files


def tracks_from_json(blob: dict, sequence: int = 0) -> list[EvalTrack]:
    """EvalTracks from the track-output JSON schema."""
    import base64

    out = []
    for tr in blob["tracks"]:
        masks = {}
        final_scores = None
        for frame in tr["frames"]:
            final_scores = np.asarray(frame["scores"], dtype=np.float64)
            if frame.get("active") and "mask" in frame:
                raw = np.frombuffer(base64.b64decode(frame["mask"]), dtype=np.uint8)
                g = int(round(np.sqrt(raw.size)))
                masks[int(frame["t"])] = raw.reshape(g, g).copy()
        if final_scores is None:
            continue
        out.append(_predicted_track(int(tr["id"]), final_scores, final_scores.size - 1,
                                    masks, sequence))
    return out


# ---------------------------------------------------------------------------
# scenario suites and model evaluation


def make_crossing_suite(num_sequences: int, seed: int, *, num_classes=5,
                        max_objects=6, frames=10, appearance_dim=8, mask_grid=12,
                        noise=None, num_pairs=2):
    """Training/evaluation suite of crossing-object worlds with corrupted
    detection streams: the stress case where same-class objects overlap
    mid-sequence."""
    from . import synthworld as sw

    noise = noise or sw.NoiseConfig(miss_prob=0.1, false_positive_rate=0.3,
                                    class_temperature=0.3, box_jitter=0.01,
                                    appearance_noise=0.1, duplicate_prob=0.05)
    suite = []
    for k in range(num_sequences):
        cfg = sw.WorldConfig(num_classes=num_classes, frames=frames,
                             max_objects=max_objects,
                             appearance_dim=appearance_dim, mask_grid=mask_grid,
                             exit_prob=0.0, entry_window=1, seed=seed + 17 * k)
        gt = sw.crossing_sequence(cfg, num_pairs=num_pairs)
        det = sw.corrupt(gt, noise, seed=seed + 17 * k + 7)
        suite.append((det.frames, gt))
    return suite


def evaluate_model_on_suite(model, suite, thresholds=None) -> EvalReport:
    """Track every sequence and pool the tracks for one report."""
    from . import trackman as tm

    thresholds = thresholds or tm.Thresholds()
    all_preds, all_gts = [], []
    for seq_idx, (det_frames, gt) in enumerate(suite):
        memory, _ = tm.run_sequence(det_frames, model, thresholds, mode="infer")
        all_preds.extend(tracks_from_memory(memory, model.config.num_classes, seq_idx))
        all_gts.extend(tracks_from_gt(gt, seq_idx))
    return evaluate(all_preds, all_gts)


# ---------------------------------------------------------------------------
# overlay rendering (PPM)

_PALETTE = [(230, 60, 60), (60, 160, 230), (90, 200, 90), (230, 200, 60),
            (180, 90, 220), (240, 140, 60), (110, 110, 240), (80, 210, 190)]


def render_overlay_ppm(pred_tracks: list[EvalTrack], frame: int, grid: int,
                       scale: int = 8) -> bytes:
    """P6 image of the frame's predicted masks, one palette color per track."""
    img = np.full((grid, grid, 3), 24, dtype=np.uint8)
    for p in sorted(pred_tracks, key=lambda p: p.id):
        mask = p.masks.get(frame)
        if mask is None:
            continue
        color = _PALETTE[p.id % len(_PALETTE)]
        img[mask > 0] = color
    img = np.kron(img, np.ones((scale, scale, 1), dtype=np.uint8))
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + img.tobytes()
