"""Synthetic world generation and detection-stream corruption.

Stands in for an image backbone and detector: objects with latent appearance
vectors move smoothly through the unit square, and a corruption pass turns
the ground truth into a noisy detection stream (misses, duplicates, false
positives, class confusion, box jitter, appearance noise).  Streams load and
save as JSON Lines so externally produced detections can be fed in.  A
frame's detections are one DetectionFrame of stacked arrays from the start,
and a sequence's ground truth is one GroundTruth: its objects as rows in
ascending id order, from the generator and the loader to training targets
and evaluation.

Sampling order (replayable, one generator seeded from the config):
  per object i = 0..max_objects-1, in order:
    class id, entry frame, exit flag per frame after entry, latent appearance
    (A values), initial center (2), velocity angle, speed, box size (2),
    then per frame t = 1..T-1 a turn-noise value.
Corruption draws, per frame, in detection order: miss flag per present
object, duplicate flag, jitter (4), appearance noise (A) per emitted copy;
then the false-positive count and per false positive box (4), scores (C+1)
and appearance (A).
Masks are rasterized by render_masks, per object after its draws and per
frame after its false positives' draws; rasterizing draws nothing.
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


MAX_FRAMES = 100_000  # frame indices lie in [0, MAX_FRAMES), in a world and in a stream


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
        # every int field is an integer (not a bool); the sizes are >= 1
        for name, f in self.__dataclass_fields__.items():
            v = getattr(self, name)
            if type(f.default) is not int:
                continue
            low = {"max_objects": 0, "seed": None}.get(name, 1)
            if (not isinstance(v, (int, np.integer)) or isinstance(v, bool)
                    or (low is not None and v < low)):
                bound = "" if low is None else f" >= {low}"
                raise DataError(f"world {name} must be an integer{bound}, got {v!r}")
        if self.frames > MAX_FRAMES:
            raise DataError(f"frames must be at most MAX_FRAMES = {MAX_FRAMES}")


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


@dataclass(eq=False)
class GroundTruth:
    """A sequence's objects as stacked rows in ascending id order: constant
    identity, class and latent appearance; per-frame presence, box and mask.
    The order is the paint order of the gt maps: where masks overlap, the
    higher id is on top."""

    num_classes: int
    ids: np.ndarray         # (K,) int, strictly ascending
    classes: np.ndarray     # (K,) int
    appearance: np.ndarray  # (K, A) latent
    present: np.ndarray     # (K, T) bool
    boxes: np.ndarray       # (K, T, 4) cx, cy, w, h
    masks: np.ndarray       # (K, T, G, G) uint8

    def __post_init__(self):
        if (self.ids[1:] <= self.ids[:-1]).any():
            raise DataError(f"ground-truth ids {self.ids.tolist()} are not strictly ascending")

    @property
    def frames(self) -> int:
        return self.present.shape[1]

    def __len__(self):
        return len(self.ids)


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


def render_masks(boxes, grid: int) -> np.ndarray:
    """(N, G, G) uint8: the ellipse inscribed in each (cx, cy, w, h) box,
    rasterized on the unit-square grid by cell-center membership."""
    cx, cy, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T[:, :, None, None]
    centers = (np.arange(grid) + 0.5) / grid  # rows are y, columns x
    rx = np.maximum(w / 2, 1e-9)
    ry = np.maximum(h / 2, 1e-9)
    inside = ((centers - cx) / rx) ** 2 + ((centers[:, None] - cy) / ry) ** 2 <= 1.0
    return inside.astype(np.uint8)


def _clamp_center(c, half, lo=0.0, hi=1.0):
    return np.minimum(np.maximum(c, lo + half), hi - half)


def _stack_rows(config: WorldConfig, rows) -> GroundTruth:
    """Per-object (class, appearance, present, boxes, masks) rows stacked
    once, with ids 0..K-1 in row order."""
    T, G, K = config.frames, config.mask_grid, len(rows)
    shapes = ((), (config.appearance_dim,), (T,), (T, 4), (T, G, G))
    dtypes = (np.int64, np.float64, bool, np.float64, np.uint8)
    return GroundTruth(config.num_classes, np.arange(K), *(
        np.array(col, dtype=dtype).reshape(K, *shape)
        for col, dtype, shape in zip(list(zip(*rows)) or [()] * 5, dtypes, shapes)))


def _random_rows(config: WorldConfig):
    """The rows of generate_sequence, drawn in the documented order."""
    rng = np.random.default_rng(config.seed)
    T, G = config.frames, config.mask_grid
    for _ in range(config.max_objects):
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
        turns = rng.normal(0.0, config.turn_sigma, size=T - 1)
        boxes = np.zeros((T, 4))
        vx, vy = speed * np.cos(angle), speed * np.sin(angle)
        for t in range(T):
            if t > 0:  # the clamped center feeds the next frame
                ca, sa = np.cos(turns[t - 1]), np.sin(turns[t - 1])
                vx, vy = ca * vx - sa * vy, sa * vx + ca * vy
                cx, cy = cx + vx, cy + vy
            # _clamp_center's bits, without numpy's per-call cost on scalars
            cx = min(max(cx, w / 2), 1.0 - w / 2)
            cy = min(max(cy, h / 2), 1.0 - h / 2)
            boxes[t] = (cx, cy, w, h)
        masks = np.zeros((T, G, G), dtype=np.uint8)
        masks[present] = render_masks(boxes[present], G)
        yield class_id, appearance, present, boxes, masks


def generate_sequence(config: WorldConfig) -> GroundTruth:
    """Sample a world per the documented order; deterministic in the seed."""
    return _stack_rows(config, list(_random_rows(config)))


def crossing_sequence(config: WorldConfig, num_pairs: int = 1) -> GroundTruth:
    """Stress preset: pairs of same-class objects that start on opposite sides
    and cross near the middle of the sequence, plus random extras up to
    max_objects.  Deterministic in the seed."""
    rng = np.random.default_rng(config.seed)
    T, G = config.frames, config.mask_grid
    a = np.arange(T) / max(T - 1, 1)  # each frame's share of the crossing
    rows = []
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
            boxes[:, 0] = _clamp_center(x0 + (x1 - x0) * a, w / 2)
            boxes[:, 1] = _clamp_center(lane + direction * drift * (a - 0.5), h / 2)
            boxes[:, 2:] = w, h
            rows.append((class_id, appearance, np.ones(T, dtype=bool), boxes,
                         render_masks(boxes, G)))
    extra_cfg = WorldConfig(**{**config.__dict__,
                               "max_objects": max(config.max_objects - len(rows), 0),
                               "seed": config.seed + 1})
    return _stack_rows(config, rows + list(_random_rows(extra_cfg)))


# ---------------------------------------------------------------------------
# corruption


def _class_score_table(num_classes: int, temperature: float) -> np.ndarray:
    """(C, C+1): row c is the scores of a detection of class c, background
    last; exact one-hot at temperature 0."""
    onehot = np.eye(num_classes, num_classes + 1)
    if temperature == 0.0:
        return onehot
    e = np.exp(onehot / temperature - 1.0 / temperature)
    return e / e.sum(axis=1, keepdims=True)


def _diffuse_scores(rng, num_classes: int) -> np.ndarray:
    raw = rng.uniform(0.5, 1.0, size=num_classes + 1)
    return raw / raw.sum()


def corrupt(gt: GroundTruth, noise: NoiseConfig, seed: int) -> DetectionSequence:
    """Emit one detection per present object (unless missed), plus duplicates
    and false positives; truncate to the 16 highest-confidence detections."""
    rng = np.random.default_rng(seed)
    C, A, G = gt.num_classes, gt.appearance.shape[1], gt.masks.shape[-1]
    shapes = ((4,), (C + 1,), (A,), (G, G))
    class_scores = _class_score_table(C, noise.class_temperature)[gt.classes]
    out = DetectionSequence(num_classes=C)
    for t in range(gt.frames):
        rows = []  # (box, scores, appearance, mask, source)
        for k in np.flatnonzero(gt.present[:, t]):
            if rng.random() < noise.miss_prob:
                continue
            copies = 2 if rng.random() < noise.duplicate_prob else 1
            for _ in range(copies):
                box = gt.boxes[k, t]
                if noise.box_jitter > 0:
                    box = box + rng.normal(0, noise.box_jitter, size=4)
                    box[2:] = np.maximum(box[2:], 0.01)
                app = gt.appearance[k]
                if noise.appearance_noise > 0:
                    app = app + rng.normal(0, noise.appearance_noise, size=A)
                rows.append((box, class_scores[k], app, gt.masks[k, t], int(gt.ids[k])))
        fps = []  # (box, scores, appearance)
        if noise.false_positive_rate > 0:
            for _ in range(int(rng.poisson(noise.false_positive_rate))):
                box = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                                rng.uniform(0.08, 0.25), rng.uniform(0.08, 0.25)])
                fps.append((box, _diffuse_scores(rng, C), rng.normal(size=A)))
        if fps:
            boxes, scores, apps = zip(*fps)
            rows += zip(boxes, scores, apps, render_masks(boxes, G), ["fp"] * len(fps))
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


def encode_mask(mask: np.ndarray) -> str:
    """A mask's uint8 bytes in row-major order as base64 text."""
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
            dets = [{"box": box, "scores": scores, "mask": encode_mask(mask),
                     "appearance": app, **({"source": src} if src is not None else {})}
                    for box, scores, mask, app, src in zip(
                        frame.boxes.tolist(), frame.scores.tolist(), frame.masks,
                        frame.appearance.tolist(), frame.sources)]
            fh.write(json.dumps({"frame": t, "detections": dets}) + "\n")


def load_detections_jsonl(path) -> DetectionSequence:
    """One DetectionFrame per line, stacked and checked once: every detection
    has the row shapes of the stream's first one, a box 4 entries; finite
    values, w, h > 0, and scores in [0, 1] that sum to 1 within
    SCORE_SUM_TOLERANCE.  Frames with no line or no detections get those
    shapes too.  A line's "frame" is a new JSON integer in [0, MAX_FRAMES)."""
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
SCORE_SUM_TOLERANCE = 1e-3


def _stack_line(rows, shapes: dict, lineno: int) -> DetectionFrame:
    """A line's detections as one frame.  The stream's first detection sets
    each field's row shape in `shapes`; every detection must match it."""
    columns, wants = [], []
    for key, default in _JSON_FIELDS.items():
        values = [decode_mask(r[key]) if key == "mask"
                  else np.asarray(r[key], dtype=np.float64) for r in rows]
        for i, v in enumerate(values):
            _check_row_shape(shapes, key, v, lineno, f"detection {i} field {key!r}")
        columns.append(values)
        wants.append(shapes.get(key, (default,))[0])
    frame = DetectionFrame.stack(columns + [[r.get("source") for r in rows]], wants)
    boxes, scores = frame.boxes, frame.scores
    _reject(~(np.isfinite(boxes).all(1) & (boxes[:, 2:] > 0).all(1)),
            "has a box that is not finite with w, h > 0")
    _reject(~np.isfinite(scores).all(1), "has a non-finite score")
    _reject(~np.isfinite(frame.appearance).all(1), "has a non-finite appearance entry")
    _reject(((scores < 0) | (scores > 1)).any(1), "has a score outside [0, 1]")
    _reject(np.abs(scores.sum(1) - 1) > SCORE_SUM_TOLERANCE,
            f"has scores that do not sum to 1 within {SCORE_SUM_TOLERANCE:g}")
    return frame


def _reject(bad: np.ndarray, what: str):
    """A DataError naming the first detection flagged in `bad`, if any."""
    if bad.any():
        raise DataError(f"detection {int(np.argmax(bad))} {what}")


def _check_row_shape(shapes: dict, key: str, value: np.ndarray, lineno: int, label: str):
    """`value` must have field `key`'s row shape in `shapes` (shape, the line
    that set it); the first value of a field not there yet sets it."""
    want, origin = shapes.setdefault(key, (value.shape, lineno))
    if value.shape != want:
        raise DataError(f"{label} has shape {value.shape}, not {want}"
                        + (f" as on line {origin}" if origin else ""))


def save_ground_truth_jsonl(gt: GroundTruth, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in range(gt.frames):
            objects = [{"id": int(gt.ids[k]), "class": int(gt.classes[k]),
                        "box": gt.boxes[k, t].tolist(), "mask": encode_mask(gt.masks[k, t]),
                        "appearance": gt.appearance[k].tolist()}
                       for k in np.flatnonzero(gt.present[:, t])]
            fh.write(json.dumps({"frame": t, "objects": objects}) + "\n")


def load_ground_truth_jsonl(path, num_classes: int | None = None) -> GroundTruth:
    """Ground-truth rows from per-frame object records.  The file's first
    mask sets the grid and its first appearance the appearance size; every
    object must match them and have a 4-entry box.  An object appears at
    most once per line and keeps one class on every line, in
    [0, num_classes) when that is given.  A line's "frame" is a new JSON
    integer in [0, MAX_FRAMES).  A file without objects gives K = 0 rows."""
    top = math.inf if num_classes is None else num_classes
    objects: dict[int, tuple] = {}  # id -> (class, appearance, the line that set them)
    cells = []                      # (id, frame, box, mask) per object and line
    seen: set[int] = set()
    shapes = {"box": ((4,), None)}  # JSON field -> (row shape, the line that set it)
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            record = json.loads(line)
            t = _frame_index(record, seen)
            seen.add(t)
            here: set[int] = set()
            for o in record["objects"]:
                # both become int64 rows, so a value beyond int64 is malformed
                oid, cls = np.array([o["id"], o["class"]], dtype=np.int64).tolist()
                if oid in here:
                    raise DataError(f"object {oid} is listed twice in frame {t}")
                here.add(oid)
                if not 0 <= cls < top:
                    raise DataError(f"object {oid} has class {cls}, outside [0, {top})")
                row = {"box": np.asarray(o["box"], dtype=np.float64),
                       "mask": decode_mask(o["mask"]),
                       "appearance": np.asarray(o["appearance"], dtype=np.float64)}
                for key, value in row.items():
                    _check_row_shape(shapes, key, value, lineno, f"object {oid} {key}")
                first = objects.setdefault(oid, (cls, row["appearance"], lineno))
                if cls != first[0]:
                    raise DataError(f"object {oid} has class {cls}, not "
                                    f"{first[0]} as on line {first[2]}")
                cells.append((oid, t, row["box"], row["mask"]))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"{path}: malformed line {lineno}: {exc}") from None
    ids = np.array(sorted(objects), dtype=np.int64)
    K, T = len(ids), max(seen, default=-1) + 1
    (G, _), (A,) = shapes.get("mask", ((0, 0),))[0], shapes.get("appearance", ((0,),))[0]
    classes = np.array([objects[i][0] for i in ids.tolist()], dtype=np.int64)
    present = np.zeros((K, T), dtype=bool)
    boxes = np.zeros((K, T, 4))
    masks = np.zeros((K, T, G, G), dtype=np.uint8)
    if cells:
        oid, t, box, mask = zip(*cells)
        k = np.searchsorted(ids, oid)
        present[k, t], boxes[k, t], masks[k, t] = True, box, mask
    return GroundTruth(
        num_classes=int(classes.max(initial=0)) + 1 if num_classes is None else num_classes,
        ids=ids, classes=classes, present=present, boxes=boxes, masks=masks,
        appearance=np.array([objects[i][1] for i in ids.tolist()]).reshape(K, A))


def _frame_index(record, seen) -> int:
    """A line's frame index: a JSON integer (not a bool, float or string) in
    [0, MAX_FRAMES), new in the stream."""
    t = record["frame"]
    if type(t) is not int:
        raise DataError(f"frame {json.dumps(t)} is not an integer")
    if t < 0:
        raise DataError(f"negative frame {t}")
    if t >= MAX_FRAMES:
        raise DataError(f"frame {t} is not below MAX_FRAMES = {MAX_FRAMES}")
    if t in seen:
        raise DataError(f"repeats frame {t}")
    return t


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line
