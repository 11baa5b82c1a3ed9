"""Synthetic world generation and detection-stream corruption.

Stands in for an image backbone and detector: objects with latent appearance
vectors move smoothly through the unit square, and a corruption pass turns
the ground truth into a noisy detection stream (misses, duplicates, false
positives, class confusion, box jitter, appearance noise).  Streams load and
save as JSON Lines so externally produced detections can be fed in.  A
frame's detections are one DetectionFrame of stacked arrays from the start.

Sampling order (replayable, one generator seeded from the config):
  per object i = 0..max_objects-1, in order:
    class id, entry frame, exit flag per frame after entry, latent appearance
    (A values), initial center (2), velocity angle, speed, box size (2),
    then per frame t = 1..T-1 a turn-noise value.
Corruption draws, per frame, in detection order: miss flag per present
object, duplicate flag, jitter (4), appearance noise (A) per emitted copy;
then the false-positive count and per false positive box (4) and
appearance (A).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np


class DataError(ValueError):
    """Malformed stream files or inconsistent sequence data."""


@dataclass
class WorldConfig:
    num_classes: int = 5
    frames: int = 10
    max_objects: int = 6
    appearance_dim: int = 8
    mask_grid: int = 24
    speed_range: tuple[float, float] = (0.01, 0.05)
    turn_sigma: float = 0.2
    size_range: tuple[float, float] = (0.12, 0.3)
    entry_window: int = 3        # objects enter in frames [0, entry_window)
    exit_prob: float = 0.02      # per-frame chance of leaving once entered
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1 or self.num_classes < 1 or self.appearance_dim < 1:
            raise DataError("frames, num_classes, and appearance_dim must be >= 1")


@dataclass
class NoiseConfig:
    miss_prob: float = 0.0
    false_positive_rate: float = 0.0   # expected count per frame (Poisson)
    class_temperature: float = 0.0     # 0: exact one-hot scores
    box_jitter: float = 0.0
    appearance_noise: float = 0.0
    duplicate_prob: float = 0.0

    def __post_init__(self):
        for name in ("miss_prob", "duplicate_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be a probability, got {v}")
        for name in ("false_positive_rate", "class_temperature", "box_jitter",
                     "appearance_noise"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be nonnegative")


# The noise of `trackgraph generate` and of evalkit.make_crossing_suite.
SUITE_NOISE = NoiseConfig(miss_prob=0.1, false_positive_rate=0.3, class_temperature=0.3,
                          box_jitter=0.01, appearance_noise=0.1, duplicate_prob=0.05)


@dataclass
class TrackedObject:
    """One ground-truth object: constant identity, class, and latent
    appearance; per-frame presence, box, and mask."""

    id: int
    class_id: int
    appearance: np.ndarray            # (A,) latent
    present: np.ndarray               # (T,) bool
    boxes: np.ndarray                 # (T, 4) cx, cy, w, h
    masks: np.ndarray                 # (T, G, G) uint8


@dataclass
class GroundTruthSequence:
    config: WorldConfig
    objects: list[TrackedObject] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return self.config.frames


@dataclass(eq=False)
class DetectionFrame:
    """One frame's detections as stacked arrays, one row per detection."""

    boxes: np.ndarray       # (n, 4) cx, cy, w, h
    scores: np.ndarray      # (n, C+1), background last, rows sum to 1
    appearance: np.ndarray  # (n, A)
    masks: np.ndarray       # (n, G, G) uint8
    sources: np.ndarray     # (n,) objects: gt object id, "fp", or None (external)

    @classmethod
    def stack(cls, columns, shapes) -> "DetectionFrame":
        """A frame from per-detection boxes, scores, appearance, masks and
        sources; `shapes` are the first four's row shapes, even with none."""
        *cols, sources = list(columns) or [()] * 5
        arrays = [np.array(col, dtype=np.uint8 if f.name == "masks" else np.float64)
                  .reshape(len(sources), *shape)
                  for f, col, shape in zip(fields(cls), cols, shapes)]
        return cls(*arrays, sources=np.fromiter(sources, dtype=object, count=len(sources)))

    def __len__(self):
        return len(self.boxes)

    @cached_property
    def top(self) -> np.ndarray:
        """(n,) top foreground (non-background) score of each row."""
        return self.scores[:, :-1].max(axis=1)

    def rows(self, idx) -> "DetectionFrame":
        """The detections at `idx`, in that order."""
        return DetectionFrame(*(getattr(self, f.name)[idx] for f in fields(self)))


@dataclass
class DetectionSequence:
    num_classes: int
    frames: list[DetectionFrame] = field(default_factory=list)

    def __len__(self):
        return len(self.frames)


# ---------------------------------------------------------------------------
# generation


def render_mask(box, grid: int) -> np.ndarray:
    """Ellipse inscribed in the box, rasterized on the unit-square grid by
    cell-center membership."""
    cx, cy, w, h = (float(v) for v in box)
    centers = (np.arange(grid) + 0.5) / grid
    gx, gy = np.meshgrid(centers, centers)  # gy rows, gx cols
    rx = max(w / 2, 1e-9)
    ry = max(h / 2, 1e-9)
    inside = ((gx - cx) / rx) ** 2 + ((gy - cy) / ry) ** 2 <= 1.0
    return inside.astype(np.uint8)


def _clamp_center(c, half, lo=0.0, hi=1.0):
    return min(max(c, lo + half), hi - half)


def generate_sequence(config: WorldConfig) -> GroundTruthSequence:
    """Sample a world per the documented order; deterministic in the seed."""
    rng = np.random.default_rng(config.seed)
    T, G = config.frames, config.mask_grid
    seq = GroundTruthSequence(config=config)
    for i in range(config.max_objects):
        class_id = int(rng.integers(0, config.num_classes))
        entry = int(rng.integers(0, min(config.entry_window, T)))
        present = np.zeros(T, dtype=bool)
        alive = True
        for t in range(entry, T):
            if alive and t > entry and rng.random() < config.exit_prob:
                alive = False
            present[t] = alive
        appearance = rng.normal(size=config.appearance_dim)
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(*config.speed_range)
        w, h = rng.uniform(*config.size_range, size=2)
        boxes = np.zeros((T, 4))
        masks = np.zeros((T, G, G), dtype=np.uint8)
        vx, vy = speed * np.cos(angle), speed * np.sin(angle)
        for t in range(T):
            if t > 0:
                turn = rng.normal(0.0, config.turn_sigma)
                ca, sa = np.cos(turn), np.sin(turn)
                vx, vy = ca * vx - sa * vy, sa * vx + ca * vy
                cx, cy = cx + vx, cy + vy
            cx = _clamp_center(cx, w / 2)
            cy = _clamp_center(cy, h / 2)
            boxes[t] = (cx, cy, w, h)
            if present[t]:
                masks[t] = render_mask(boxes[t], G)
        seq.objects.append(TrackedObject(id=i, class_id=class_id,
                                         appearance=appearance, present=present,
                                         boxes=boxes, masks=masks))
    return seq


def crossing_sequence(config: WorldConfig, num_pairs: int = 1) -> GroundTruthSequence:
    """Stress preset: pairs of same-class objects that start on opposite sides
    and cross near the middle of the sequence, plus random extras up to
    max_objects.  Deterministic in the seed."""
    rng = np.random.default_rng(config.seed)
    T, G = config.frames, config.mask_grid
    seq = GroundTruthSequence(config=config)
    next_id = 0
    for _ in range(num_pairs):
        class_id = int(rng.integers(0, config.num_classes))
        lane = rng.uniform(0.35, 0.65)
        w, h = rng.uniform(*config.size_range, size=2)
        drift = rng.uniform(-0.1, 0.1)
        for direction in (+1, -1):
            appearance = rng.normal(size=config.appearance_dim)
            x0 = 0.2 if direction > 0 else 0.8
            x1 = 0.8 if direction > 0 else 0.2
            boxes = np.zeros((T, 4))
            masks = np.zeros((T, G, G), dtype=np.uint8)
            for t in range(T):
                a = t / max(T - 1, 1)
                cx = _clamp_center(x0 + (x1 - x0) * a, w / 2)
                cy = _clamp_center(lane + direction * drift * (a - 0.5), h / 2)
                boxes[t] = (cx, cy, w, h)
                masks[t] = render_mask(boxes[t], G)
            seq.objects.append(TrackedObject(
                id=next_id, class_id=class_id, appearance=appearance,
                present=np.ones(T, dtype=bool), boxes=boxes, masks=masks))
            next_id += 1
    extra_cfg = WorldConfig(**{**config.__dict__,
                               "max_objects": max(config.max_objects - next_id, 0),
                               "seed": config.seed + 1})
    extras = generate_sequence(extra_cfg)
    for obj in extras.objects:
        obj.id = next_id
        next_id += 1
        seq.objects.append(obj)
    return seq


# ---------------------------------------------------------------------------
# corruption


def _class_scores(class_id: int, num_classes: int, temperature: float) -> np.ndarray:
    scores = np.zeros(num_classes + 1)
    if temperature == 0.0:
        scores[class_id] = 1.0
        return scores
    logits = np.zeros(num_classes + 1)
    logits[class_id] = 1.0 / temperature
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _diffuse_scores(rng, num_classes: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.0, size=num_classes + 1)
    return raw / raw.sum()


def corrupt(gt: GroundTruthSequence, noise: NoiseConfig, seed: int) -> DetectionSequence:
    """Emit one detection per present object (unless missed), plus duplicates
    and false positives; truncate to the 16 highest-confidence detections."""
    rng = np.random.default_rng(seed)
    cfg = gt.config
    A, G = cfg.appearance_dim, cfg.mask_grid
    shapes = ((4,), (cfg.num_classes + 1,), (A,), (G, G))
    out = DetectionSequence(num_classes=cfg.num_classes)
    for t in range(cfg.frames):
        rows = []  # (box, scores, appearance, mask, source)
        for obj in gt.objects:
            if not obj.present[t]:
                continue
            if rng.random() < noise.miss_prob:
                continue
            copies = 2 if rng.random() < noise.duplicate_prob else 1
            for _ in range(copies):
                box = obj.boxes[t]
                if noise.box_jitter > 0:
                    box = box + rng.normal(0, noise.box_jitter, size=4)
                    box[2:] = np.maximum(box[2:], 0.01)
                app = obj.appearance
                if noise.appearance_noise > 0:
                    app = app + rng.normal(0, noise.appearance_noise, size=A)
                rows.append((box, _class_scores(obj.class_id, cfg.num_classes,
                                                noise.class_temperature),
                             app, obj.masks[t], obj.id))
        if noise.false_positive_rate > 0:
            for _ in range(int(rng.poisson(noise.false_positive_rate))):
                box = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                                rng.uniform(0.08, 0.25), rng.uniform(0.08, 0.25)])
                scores = _diffuse_scores(rng, cfg.num_classes)
                rows.append((box, scores, rng.normal(size=A), render_mask(box, G), "fp"))
        out.frames.append(truncate_detections(DetectionFrame.stack(zip(*rows), shapes), 16))
    return out


def truncate_detections(frame: DetectionFrame, cap: int) -> DetectionFrame:
    """The `cap` detections with the highest top foreground scores, in their
    original order."""
    if len(frame) <= cap:
        return frame
    return frame.rows(np.sort(np.argsort(frame.top)[::-1][:cap]))


# ---------------------------------------------------------------------------
# JSON Lines input/output


def _encode_mask(mask: np.ndarray) -> str:
    return base64.b64encode(np.asarray(mask, dtype=np.uint8).tobytes()).decode("ascii")


def decode_mask(data: str) -> np.ndarray:
    """A read-only square row-major uint8 mask; its grid is from the byte count."""
    raw = np.frombuffer(base64.b64decode(data), dtype=np.uint8)
    grid = math.isqrt(raw.size)
    if raw.size != grid * grid:
        raise DataError(f"mask payload has {raw.size} bytes, not a square grid")
    return raw.reshape(grid, grid)


def save_detections_jsonl(seq: DetectionSequence, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, frame in enumerate(seq.frames):
            dets = [{"box": box, "scores": scores, "mask": _encode_mask(mask),
                     "appearance": app, **({"source": src} if src is not None else {})}
                    for box, scores, mask, app, src in zip(
                        frame.boxes.tolist(), frame.scores.tolist(), frame.masks,
                        frame.appearance.tolist(), frame.sources)]
            fh.write(json.dumps({"frame": t, "detections": dets}) + "\n")


def load_detections_jsonl(path) -> DetectionSequence:
    """One DetectionFrame per line, stacked and checked once: every detection
    has the row shapes of the stream's first one, a box 4 entries.  Frames
    with no line or no detections get those shapes too."""
    frames: dict[int, DetectionFrame] = {}
    shapes = {"box": ((4,), None)}  # JSON field -> (row shape, the line that set it)
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            record = json.loads(line)
            t = _frame_index(record, frames)
            frames[t] = _stack_line(record["detections"], shapes, lineno)
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}: malformed line {lineno}: {exc}") from None
    empty = _stack_line([], shapes, lineno=0)
    return DetectionSequence(num_classes=empty.scores.shape[-1] - 1, frames=[
        frames[t] if len(frames.get(t, empty)) else empty
        for t in range(max(frames, default=-1) + 1)])


# JSON key of each row field, and its row shape in a stream without detections
_JSON_FIELDS = {"box": (4,), "scores": (1,), "appearance": (0,), "mask": (0, 0)}


def _stack_line(rows, shapes: dict, lineno: int) -> DetectionFrame:
    """A line's detections as one frame.  The stream's first detection sets
    each field's row shape in `shapes`; every detection must match it."""
    columns, wants = [], []
    for key, default in _JSON_FIELDS.items():
        values = [decode_mask(r[key]) if key == "mask"
                  else np.asarray(r[key], dtype=np.float64) for r in rows]
        if values and key not in shapes:
            shapes[key] = (values[0].shape, lineno)
        want, origin = shapes.get(key, (default, None))
        for i, v in enumerate(values):
            if v.shape != want:
                raise DataError(f"detection {i} field {key!r} has shape {v.shape}, not "
                                f"{want}" + (f" as on line {origin}" if origin else ""))
        columns.append(values)
        wants.append(want)
    frame = DetectionFrame.stack(columns + [[r.get("source") for r in rows]], wants)
    if not (np.isfinite(frame.boxes).all() and (frame.boxes[:, 2:] > 0).all()):
        raise DataError("a box is not finite with w, h > 0")
    return frame


def save_ground_truth_jsonl(seq: GroundTruthSequence, path):
    cfg = seq.config
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in range(cfg.frames):
            objects = []
            for obj in seq.objects:
                if not obj.present[t]:
                    continue
                objects.append({
                    "id": obj.id,
                    "class": obj.class_id,
                    "box": [float(v) for v in obj.boxes[t]],
                    "mask": _encode_mask(obj.masks[t]),
                    "appearance": [float(v) for v in obj.appearance],
                })
            fh.write(json.dumps({"frame": t, "objects": objects}) + "\n")


def load_ground_truth_jsonl(path, num_classes: int | None = None) -> GroundTruthSequence:
    """Rebuild a ground-truth sequence from per-frame object records.  The
    file's first mask sets the grid; every mask must match it.  An object
    keeps one class on every line, in [0, num_classes) when that is given."""
    top = math.inf if num_classes is None else num_classes
    rows: dict[int, dict] = {}
    seen: set[int] = set()
    grid_from = None  # (mask shape, the line that set it)
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            record = json.loads(line)
            t = _frame_index(record, seen)
            seen.add(t)
            for o in record["objects"]:
                cls = int(o["class"])
                if not 0 <= cls < top:
                    raise DataError(f"object {o['id']} has class {cls}, outside [0, {top})")
                entry = rows.setdefault(int(o["id"]), {
                    "class": cls, "line": lineno,
                    "appearance": np.asarray(o["appearance"], dtype=np.float64),
                    "frames": {},
                })
                if cls != entry["class"]:
                    raise DataError(f"object {o['id']} has class {cls}, not "
                                    f"{entry['class']} as on line {entry['line']}")
                mask = decode_mask(o["mask"])
                grid_from = grid_from or (mask.shape, lineno)
                if mask.shape != grid_from[0]:
                    raise DataError(f"object {o['id']} mask has shape {mask.shape}, not "
                                    f"{grid_from[0]} as on line {grid_from[1]}")
                entry["frames"][t] = (np.asarray(o["box"], dtype=np.float64), mask)
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"{path}: malformed line {lineno}: {exc}") from None
    T = max(seen, default=-1) + 1
    grid = grid_from[0][0] if grid_from else 24
    classes = (max((e["class"] for e in rows.values()), default=0) + 1
               if num_classes is None else num_classes)
    dims = next((len(e["appearance"]) for e in rows.values()), 8)
    cfg = WorldConfig(num_classes=max(classes, 1), frames=max(T, 1),
                      max_objects=len(rows), appearance_dim=max(dims, 1),
                      mask_grid=grid)
    seq = GroundTruthSequence(config=cfg)
    for oid in sorted(rows):
        entry = rows[oid]
        present = np.zeros(T, dtype=bool)
        boxes = np.zeros((T, 4))
        masks = np.zeros((T, grid, grid), dtype=np.uint8)
        for t, (box, mask) in entry["frames"].items():
            present[t] = True
            boxes[t] = box
            masks[t] = mask
        seq.objects.append(TrackedObject(id=oid, class_id=entry["class"],
                                         appearance=entry["appearance"],
                                         present=present, boxes=boxes, masks=masks))
    return seq


def _frame_index(record, seen) -> int:
    """A line's frame index, which must be new and nonnegative."""
    t = int(record["frame"])
    if t < 0:
        raise DataError(f"negative frame {t}")
    if t in seen:
        raise DataError(f"repeats frame {t}")
    return t


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line
