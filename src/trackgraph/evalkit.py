"""Sequence-level evaluation: video mAP and identity metrics, plus report
rendering.

Tracks are compared as per-frame masks whose nonzero pixels count.  The
st-IoU of two tracks is YouTube-VIS's video IoU (Yang et al., ICCV 2019):
summed per-frame intersections over summed per-frame unions, where a frame
that only one track covers adds its area to the union; an empty union gives
0.  Each sequence's masks, all on one grid, are stacked once into the
integer (frames, predictions, ground truth) intersection tensor, once per
`evaluate` call and scenario: `video_map` sums it over frames into an
st-IoU matrix, reused at every threshold and class, and `id_metrics` reads
it per frame.

A predicted track's class is the argmax of its final record's foreground
scores and its confidence is that class's probability, so tracks pushed
toward background rank last.  The final record counts even when the track
was lost frames earlier: YouTube-VIS takes one score per predicted video
instance and leaves how to form it to the method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import synthworld as sw

MAP_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.951, 0.05), 2))


@dataclass
class EvalTrack:
    """Evaluation view of one track: masks on the frames where it reported
    anything, one class, one confidence."""

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


def _overlaps(predictions: list[EvalTrack], gts: list[EvalTrack]) -> list[tuple]:
    """The one overlap computation.  One entry per sequence: the indices of
    its predictions in id order and of its ground truth in input order, the
    frames any of them covers in ascending order, the integer (frames,
    predictions, ground truth) intersection tensor over those frames, and
    each track's total area.  Masks on a second grid raise DataError."""
    groups: dict = {}
    for i in sorted(range(len(predictions)), key=lambda i: predictions[i].id):
        groups.setdefault(predictions[i].sequence, ([], []))[0].append(i)
    for j, g in enumerate(gts):
        groups.setdefault(g.sequence, ([], []))[1].append(j)
    out = []
    for seq, (pi, gi) in groups.items():
        sides = [predictions[i] for i in pi], [gts[j] for j in gi]
        masks = [(t, m) for side in sides for tr in side for t, m in tr.masks.items()]
        grids = sorted({m.shape for _, m in masks})
        if len(grids) > 1:
            a, b = ("x".join(map(str, shape)) for shape in grids[:2])
            raise sw.DataError(f"sequence {seq} has masks on grids {a} and {b}")
        frames = sorted({t for t, _ in masks})
        index = {t: f for f, t in enumerate(frames)}
        cells = int(np.prod(grids[0])) if grids else 0
        p, g = (np.zeros((len(frames), len(side), cells)) for side in sides)
        for stack, side in zip((p, g), sides):
            for k, tr in enumerate(side):
                for t, m in tr.masks.items():
                    stack[index[t], k] = np.ravel(m) != 0
        # sums of 0/1 products are exact integers in float64
        inter = np.matmul(p, g.transpose(0, 2, 1)).astype(np.int64)
        out.append((pi, gi, frames, inter, p.sum(axis=(0, 2)).astype(np.int64),
                    g.sum(axis=(0, 2)).astype(np.int64)))
    return out


def _st_iou_matrix(shape: tuple[int, int], overlaps: list[tuple]) -> np.ndarray:
    """The (predictions, ground truth) st-IoU matrix of `_overlaps`' entries;
    0 between different sequences."""
    out = np.zeros(shape)
    for pi, gi, _, inter, area_p, area_g in overlaps:
        inter = inter.sum(axis=0)
        union = area_p[:, None] + area_g[None, :] - inter
        out[np.ix_(pi, gi)] = np.divide(inter, union, out=np.zeros(inter.shape),
                                        where=union > 0)
    return out


def st_iou(track_a: EvalTrack, track_b: EvalTrack) -> float:
    """The st-IoU of the module docstring for one pair; 0 across sequences."""
    return float(_st_iou_matrix((1, 1), _overlaps([track_a], [track_b]))[0, 0])


def _interpolated_ap(tp_flags: list[bool], num_gt: int) -> float:
    """101-point interpolated average precision; `num_gt` is at least 1.
    Recall never falls down the ranking, so the best precision at or above
    each recall level is a suffix maximum."""
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    precision = tp / np.arange(1, len(tp) + 1)
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    first = np.searchsorted(tp / num_gt, np.linspace(0.0, 1.0, 101) - 1e-12)
    return sum(best[first].tolist()) / 101.0


def _greedy_hits(iou: np.ndarray, threshold: float) -> list[bool]:
    """Greedy confidence-order matching on one class's st-IoU rows (ranked
    predictions x its ground truth): each prediction takes the free ground
    truth of highest positive st-IoU, the lowest index on ties, and is a hit
    when that value is >= threshold."""
    free = np.ones(iou.shape[1], dtype=bool)
    hits = []
    for row in iou:
        row = np.where(free, row, 0.0)
        j = int(np.argmax(row))
        hits.append(bool(row[j] > 0.0 and row[j] >= threshold))
        free[j] &= not hits[-1]
    return hits


def video_map(predictions: list[EvalTrack], gts: list[EvalTrack], overlaps: list[tuple],
              thresholds=MAP_THRESHOLDS) -> tuple[dict, dict, float]:
    """Per-threshold mAP, per-class AP (averaged over thresholds), and the
    overall mean from `overlaps = _overlaps(predictions, gts)`.  Classes with
    no gt track are excluded from the averages; equal-confidence predictions
    rank by sequence, then lower id first."""
    iou = _st_iou_matrix((len(predictions), len(gts)), overlaps)
    class_aps = {}
    for c in sorted({g.class_id for g in gts}):
        rows = sorted((i for i, p in enumerate(predictions) if p.class_id == c),
                      key=lambda i: (-predictions[i].confidence, predictions[i].sequence,
                                     predictions[i].id))
        ranked = iou[np.ix_(rows, [j for j, g in enumerate(gts) if g.class_id == c])]
        class_aps[c] = [_interpolated_ap(_greedy_hits(ranked, thr), ranked.shape[1])
                        for thr in thresholds]
    per_threshold = {float(thr): float(np.mean([aps[k] for aps in class_aps.values()]))
                     if class_aps else 0.0 for k, thr in enumerate(thresholds)}
    per_class = {c: float(np.mean(aps)) for c, aps in class_aps.items()}
    mean = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return per_threshold, per_class, mean


def id_metrics(predictions: list[EvalTrack], gts: list[EvalTrack],
               overlaps: list[tuple]) -> tuple[float, int]:
    """Association accuracy: fraction of (frame, gt object) pairs whose
    covering track is the object's most-frequent covering track.  ID switches:
    changes of covering id between consecutive covered frames.  A pair's
    covering track is the prediction of largest positive intersection, the
    lowest id on ties; none when no prediction overlaps.  `overlaps` as in
    `video_map`."""
    total_pairs = correct = switches = 0
    for pi, gi, frames, inter, _, _ in overlaps:
        if not (frames and gi):
            continue    # no (frame, object) pair in this sequence
        # a zero row in front: argmax 0 means no prediction overlaps
        cover = np.argmax(np.pad(inter, ((0, 0), (1, 0), (0, 0))), axis=1)
        ids = [None] + [predictions[i].id for i in pi]
        index = {t: f for f, t in enumerate(frames)}
        for q, j in enumerate(gi):
            covers = [ids[cover[index[t], q]] for t in sorted(gts[j].masks)]
            total_pairs += len(covers)
            covered = [c for c in covers if c is not None]
            if covered:
                uniq, counts = np.unique(covered, return_counts=True)
                main = int(uniq[np.argmax(counts)])
                correct += covers.count(main)
                switches += sum(1 for a, b in zip(covered, covered[1:]) if a != b)
    accuracy = correct / total_pairs if total_pairs else 0.0
    return accuracy, switches


def evaluate(predictions: list[EvalTrack], gts: list[EvalTrack],
             thresholds=MAP_THRESHOLDS,
             scenarios: dict[str, tuple[list, list]] | None = None) -> EvalReport:
    overlaps = _overlaps(predictions, gts)
    per_threshold, per_class, mean = video_map(predictions, gts, overlaps, thresholds)
    accuracy, switches = id_metrics(predictions, gts, overlaps)
    report = EvalReport(per_threshold=per_threshold, mean_map=mean,
                        per_class_ap=per_class, association_accuracy=accuracy,
                        id_switches=switches)
    for name, (p, g) in (scenarios or {}).items():
        overlaps = _overlaps(p, g)
        _, _, smap = video_map(p, g, overlaps, thresholds)
        sacc, ssw = id_metrics(p, g, overlaps)
        report.scenarios[name] = {"mean_map": smap, "association_accuracy": sacc,
                                  "id_switches": ssw}
    return report


# ---------------------------------------------------------------------------
# prediction files


def tracks_from_json(blob: dict, sequence: int = 0) -> list[EvalTrack]:
    """EvalTracks from the track-output JSON schema."""
    out = []
    for tr in blob["tracks"]:
        masks = {}
        final_scores = None
        for frame in tr["frames"]:
            final_scores = np.asarray(frame["scores"], dtype=np.float64)
            if frame.get("active") and "mask" in frame:
                masks[int(frame["t"])] = sw.decode_mask(frame["mask"])
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
    noise = noise or sw.SUITE_NOISE
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
