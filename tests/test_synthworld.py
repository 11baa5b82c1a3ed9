import base64
import dataclasses
import json

import numpy as np
import pytest

from trackgraph import assocgraph as ag
from trackgraph import learn
from trackgraph import synthworld as sw

from oracles import render_mask


def test_generate_determinism_bit_exact():
    cfg = sw.WorldConfig(seed=42, max_objects=4)
    a = sw.generate_sequence(cfg)
    b = sw.generate_sequence(cfg)
    assert len(a) == len(b) == 4
    for name in ("ids", "classes", "present", "boxes", "masks", "appearance"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_generate_no_objects():
    cfg = sw.WorldConfig(seed=1, max_objects=0, frames=10)
    seq = sw.generate_sequence(cfg)
    assert len(seq) == 0
    assert seq.frames == 10
    assert seq.masks.shape == (0, 10, cfg.mask_grid, cfg.mask_grid)
    assert seq.appearance.shape == (0, cfg.appearance_dim)


def test_generate_replays_documented_sampling_order():
    # Re-execute the documented draw order with an independent generator and
    # check class, entry frame, and presence match for seed 7, 3 objects.
    cfg = sw.WorldConfig(seed=7, max_objects=3, frames=10)
    seq = sw.generate_sequence(cfg)
    rng = np.random.default_rng(7)
    for k in range(len(seq)):
        class_id = int(rng.integers(0, cfg.num_classes))
        entry = int(rng.integers(0, min(cfg.entry_window, cfg.frames)))
        present = np.zeros(cfg.frames, dtype=bool)
        alive = True
        for t in range(entry, cfg.frames):
            if alive and t > entry and rng.random() < cfg.exit_prob:
                alive = False
            present[t] = alive
        rng.normal(size=cfg.appearance_dim)        # latent appearance
        rng.uniform(0.15, 0.85, size=2)            # initial center
        rng.uniform(0, 2 * np.pi)                  # heading
        rng.uniform(*cfg.speed_range)              # speed
        rng.uniform(*cfg.size_range, size=2)       # box size
        for _ in range(1, cfg.frames):
            rng.normal(0.0, cfg.turn_sigma)        # per-frame turn noise
        assert seq.classes[k] == class_id
        np.testing.assert_array_equal(seq.present[k], present)
    assert len(seq) == 3


def test_boxes_inside_unit_square_and_masks_nonempty():
    cfg = sw.WorldConfig(seed=3, max_objects=6, frames=20)
    seq = sw.generate_sequence(cfg)
    for k in range(len(seq)):
        for t in range(cfg.frames):
            cx, cy, w, h = seq.boxes[k, t]
            if seq.present[k, t]:
                assert cx - w / 2 >= -1e-9 and cx + w / 2 <= 1 + 1e-9
                assert cy - h / 2 >= -1e-9 and cy + h / 2 <= 1 + 1e-9
                assert seq.masks[k, t].sum() > 0


def test_object_identity_constant():
    cfg = sw.WorldConfig(seed=5, max_objects=5)
    seq = sw.generate_sequence(cfg)
    assert seq.ids.tolist() == list(range(5))


def test_corrupt_zero_noise_is_identity():
    cfg = sw.WorldConfig(seed=11, max_objects=4)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(), seed=0)
    for t in range(cfg.frames):
        present = np.flatnonzero(seq.present[:, t])
        frame = det.frames[t]
        assert len(frame) == len(present)
        for j, k in enumerate(present):
            np.testing.assert_array_equal(frame.boxes[j], seq.boxes[k, t])
            np.testing.assert_array_equal(frame.masks[j], seq.masks[k, t])
            np.testing.assert_array_equal(frame.appearance[j], seq.appearance[k])
            assert frame.scores[j, seq.classes[k]] == 1.0
            assert type(frame.sources[j]) is int and frame.sources[j] == seq.ids[k]


def test_corrupt_miss_everything():
    cfg = sw.WorldConfig(seed=2, max_objects=3)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(miss_prob=1.0, false_positive_rate=0.5),
                     seed=1)
    for frame in det.frames:
        assert all(s == "fp" for s in frame.sources)


def test_corrupt_miss_rate_monte_carlo():
    # Binomial oracle: with miss 0.3 the mean detection count over reruns
    # approaches 0.7 * presence-count; use a 4-sigma band.
    cfg = sw.WorldConfig(seed=9, max_objects=4, frames=10, exit_prob=0.0,
                         entry_window=1)
    seq = sw.generate_sequence(cfg)
    presence = int(seq.present.sum())
    runs = 1000
    counts = []
    for r in range(runs):
        det = sw.corrupt(seq, sw.NoiseConfig(miss_prob=0.3), seed=1000 + r)
        counts.append(sum(len(f) for f in det.frames))
    mean = np.mean(counts)
    expect = 0.7 * presence
    sigma = np.sqrt(presence * 0.3 * 0.7 / runs)
    assert abs(mean - expect) < 4 * sigma


def test_class_scores_sum_to_one():
    cfg = sw.WorldConfig(seed=13, max_objects=4)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(class_temperature=0.4,
                                         false_positive_rate=1.0), seed=3)
    for frame in det.frames:
        assert np.all(np.abs(frame.scores.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(frame.scores >= 0)


def test_provenance_partition():
    cfg = sw.WorldConfig(seed=17, max_objects=3)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(false_positive_rate=1.0, miss_prob=0.2),
                     seed=4)
    ids = set(seq.ids.tolist())
    for frame in det.frames:
        assert all(s == "fp" or s in ids for s in frame.sources)
    clean = sw.corrupt(seq, sw.NoiseConfig(), seed=5)
    assert all(s != "fp" for f in clean.frames for s in f.sources)


def test_truncation_to_sixteen_keeps_best():
    cfg = sw.WorldConfig(seed=19, max_objects=6, frames=3, exit_prob=0.0,
                         entry_window=1)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(false_positive_rate=30.0), seed=6)
    for frame in det.frames:
        assert len(frame) <= 16
        # every kept real detection outranks dropped false positives
        assert sum(1 for s in frame.sources if s != "fp") == 6
        assert len(frame.top) == len(frame.scores) == len(frame.masks) == len(frame)


def test_detection_roundtrip_bit_exact(tmp_path):
    cfg = sw.WorldConfig(seed=23, max_objects=4)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(miss_prob=0.1, false_positive_rate=0.7,
                                         class_temperature=0.3, box_jitter=0.01,
                                         appearance_noise=0.05,
                                         duplicate_prob=0.1), seed=7)
    path = tmp_path / "dets.jsonl"
    sw.save_detections_jsonl(det, path)
    back = sw.load_detections_jsonl(path)
    assert len(back) == len(det)
    assert back.num_classes == det.num_classes
    assert any("fp" in f.sources for f in det.frames)
    for fa, fb in zip(det.frames, back.frames):
        for f in dataclasses.fields(sw.DetectionFrame):
            a, b = getattr(fa, f.name), getattr(fb, f.name)
            assert a.shape == b.shape and a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b)
        assert list(fa.sources) == list(fb.sources)


def test_ground_truth_roundtrip(tmp_path):
    cfg = sw.WorldConfig(seed=29, max_objects=3)
    seq = sw.generate_sequence(cfg)
    path = tmp_path / "gt.jsonl"
    sw.save_ground_truth_jsonl(seq, path)
    back = sw.load_ground_truth_jsonl(path, num_classes=cfg.num_classes)
    # an object never present writes no record, so it does not come back
    kept = seq.present.any(axis=1)
    np.testing.assert_array_equal(back.ids, seq.ids[kept])
    np.testing.assert_array_equal(back.classes, seq.classes[kept])
    np.testing.assert_array_equal(back.present, seq.present[kept])
    np.testing.assert_array_equal(back.appearance, seq.appearance[kept])
    on = back.present
    np.testing.assert_array_equal(back.boxes[on], seq.boxes[kept][on])
    np.testing.assert_array_equal(back.masks[on], seq.masks[kept][on])


ROW_FIELDS = ("ids", "classes", "appearance", "present", "boxes", "masks")


@pytest.mark.parametrize("objects", [4, 0])
def test_ground_truth_round_trip_keeps_every_array_and_dtype(tmp_path, objects):
    # every object is present on every frame, so the file drops nothing
    cfg = sw.WorldConfig(seed=37, frames=6, max_objects=objects, num_classes=3,
                         appearance_dim=5, mask_grid=7, entry_window=1, exit_prob=0.0)
    gt = sw.crossing_sequence(cfg, num_pairs=objects // 2)
    assert len(gt) == objects and gt.present.all()
    path = tmp_path / "gt.jsonl"
    sw.save_ground_truth_jsonl(gt, path)
    back = sw.load_ground_truth_jsonl(path, num_classes=3)
    if not objects:  # a file without objects sets no appearance size or grid
        gt = dataclasses.replace(gt, appearance=np.zeros((0, 0)),
                                 masks=np.zeros((0, 6, 0, 0), dtype=np.uint8))
    assert back.num_classes == gt.num_classes and back.frames == 6
    for name in ROW_FIELDS:
        a, b = getattr(back, name), getattr(gt, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)
    sw.save_ground_truth_jsonl(back, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_ground_truth_from_empty_file_has_no_rows(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text("")
    gt = sw.load_ground_truth_jsonl(path)
    assert len(gt) == 0 and gt.frames == 0
    assert [getattr(gt, name).shape for name in ROW_FIELDS] == [
        (0,), (0,), (0, 0), (0, 0), (0, 0, 4), (0, 0, 0, 0)]


@pytest.mark.parametrize("ids", [[0, 2, 1], [0, 1, 1]], ids=["unsorted", "repeated"])
def test_ground_truth_rejects_ids_not_strictly_ascending(ids):
    gt = sw.generate_sequence(sw.WorldConfig(seed=3, max_objects=3, frames=4))
    with pytest.raises(sw.DataError, match="not strictly ascending"):
        dataclasses.replace(gt, ids=np.array(ids))


def _line(t, rows):
    """One JSONL line of (box, scores, appearance, mask, source) rows."""
    return json.dumps({"frame": t, "detections": [
        {"box": list(box), "scores": list(scores), "appearance": list(app),
         "mask": base64.b64encode(np.asarray(mask, dtype=np.uint8).tobytes()).decode(),
         **({"source": src} if src is not None else {})}
        for box, scores, app, mask, src in rows]})


def _rows(n, classes=3, dim=4, grid=6, seed=0):
    rng = np.random.default_rng(seed)
    return [([0.5, 0.5, 0.2, 0.1 + 0.1 * j], rng.dirichlet(np.ones(classes + 1)),
             rng.normal(size=dim), rng.integers(0, 2, size=(grid, grid)), src)
            for j, src in zip(range(n), [3, "fp", None, 0, 7])]


def test_load_stacks_rows_in_line_order_and_checks_every_field(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = _rows(3)
    path.write_text(_line(0, rows) + "\n")
    frame = sw.load_detections_jsonl(path).frames[0]
    assert len(frame) == 3
    for j, (box, scores, app, mask, src) in enumerate(rows):
        for got, want in ((frame.boxes, box), (frame.scores, scores),
                          (frame.appearance, app), (frame.masks, mask)):
            np.testing.assert_array_equal(got[j], want)
        assert frame.top[j] == max(scores[:-1])
        assert frame.sources[j] == src
    assert frame.masks.dtype == np.uint8 and frame.sources.dtype == object

    # a field that differs from the stream's first detection, in its own line
    # or a later one, names the line, the detection, the field and both shapes
    for key, bad, shape in (("box", [0.5, 0.5, 0.2], "(3,)"),
                            ("scores", np.full(5, 0.2), "(5,)"),
                            ("appearance", np.zeros(3), "(3,)"),
                            ("mask", np.zeros((5, 5)), "(5, 5)")):
        k = ("box", "scores", "appearance", "mask").index(key)
        bad_row = tuple(bad if i == k else v for i, v in enumerate(rows[1]))
        for lines, lineno in (([_line(0, [rows[0], bad_row])], 1),
                              ([_line(0, rows), _line(1, [rows[0], bad_row])], 2)):
            path.write_text("\n".join(lines) + "\n")
            # a box has 4 entries in every stream; the other shapes come from line 1
            expected = (f"detection 1 field 'box' has shape {shape}, not (4,)"
                        if key == "box" else f"detection 1 field {key!r} has shape "
                        f"{shape}, not {np.shape(rows[0][k])} as on line 1")
            with pytest.raises(sw.DataError) as err:
                sw.load_detections_jsonl(path)
            assert f"malformed line {lineno}: {expected}" in str(err.value)


def test_empty_frames_take_the_stream_shapes(tmp_path):
    # frame 1 is an empty line between non-empty ones, frame 3 has no line
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join([_line(0, _rows(2)), _line(1, []), _line(2, _rows(1)),
                               _line(4, _rows(2))]) + "\n")
    seq = sw.load_detections_jsonl(path)
    assert [len(f) for f in seq.frames] == [2, 0, 1, 0, 2]
    assert seq.num_classes == 3
    for t in (1, 3):
        f = seq.frames[t]
        assert [a.shape for a in (f.boxes, f.scores, f.appearance, f.masks, f.sources,
                                  f.top)] == [(0, 4), (0, 4), (0, 4), (0, 6, 6), (0,), (0,)]


def test_empty_stream_keeps_its_frame_count(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(_line(t, []) for t in range(3)) + "\n")
    seq = sw.load_detections_jsonl(path)
    assert len(seq) == 3 and seq.num_classes == 0
    assert all(len(f) == 0 for f in seq.frames)


def test_truncate_detections_keeps_the_top_rows_in_order():
    # top ignores the background column
    scores = np.array([[0.5, 0.0, 0.5], [0.1, 0.9, 0.0], [0.2, 0.6, 0.2],
                       [0.7, 0.1, 0.2], [0.0, 0.05, 0.95]])
    n = len(scores)
    frame = sw.DetectionFrame(boxes=np.arange(n * 4.0).reshape(n, 4), scores=scores,
                              appearance=np.arange(n * 2.0).reshape(n, 2),
                              masks=np.arange(n * 9, dtype=np.uint8).reshape(n, 3, 3),
                              sources=np.array([0, "fp", None, 2, 1], dtype=object))
    np.testing.assert_array_equal(frame.top, [0.5, 0.9, 0.6, 0.7, 0.05])
    assert sw.truncate_detections(frame, 5) is frame
    kept = sw.truncate_detections(frame, 3)
    assert list(kept.sources) == ["fp", None, 2]
    for f in dataclasses.fields(frame):
        np.testing.assert_array_equal(getattr(kept, f.name),
                                      getattr(frame, f.name)[[1, 2, 3]])
    np.testing.assert_array_equal(kept.top, [0.9, 0.6, 0.7])
    assert list(sw.truncate_detections(frame, 1).sources) == ["fp"]
    assert len(sw.truncate_detections(frame, 0)) == 0
    # tied rows keep the order of numpy's argsort of top, reversed
    tied = frame.rows([0, 4, 2, 0, 2])
    for cap in range(5):
        want = np.sort(np.argsort(tied.top)[::-1][:cap])
        np.testing.assert_array_equal(sw.truncate_detections(tied, cap).boxes,
                                      tied.boxes[want])


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    seq = sw.load_detections_jsonl(path)
    assert len(seq) == 0


def test_load_hand_written_fixture(tmp_path):
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[1, 2] = 1
    line = {
        "frame": 0,
        "detections": [{
            "box": [0.5, 0.25, 0.1, 0.2],
            "scores": [0.6, 0.3, 0.1],
            "mask": base64.b64encode(mask.tobytes()).decode(),
            "appearance": [1.5, -2.5],
        }],
    }
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(line) + "\n")
    seq = sw.load_detections_jsonl(path)
    assert len(seq) == 1 and len(seq.frames[0]) == 1
    frame = seq.frames[0]
    np.testing.assert_array_equal(frame.boxes, [[0.5, 0.25, 0.1, 0.2]])
    np.testing.assert_array_equal(frame.scores, [[0.6, 0.3, 0.1]])
    assert frame.masks[0, 1, 2] == 1 and frame.masks.sum() == 1
    np.testing.assert_array_equal(frame.appearance, [[1.5, -2.5]])
    assert list(frame.sources) == [None]
    assert seq.num_classes == 2


def test_load_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "detections": []}\n{"frame": "oops"}\n')
    with pytest.raises(sw.DataError, match="line 2"):
        sw.load_detections_jsonl(path)


@pytest.mark.parametrize("grid", [1, 8, 24])
def test_render_masks_match_per_box_oracle(grid):
    rng = np.random.default_rng(grid)
    cells = (np.arange(grid) + 0.5) / grid
    boxes = np.concatenate([
        np.column_stack([rng.uniform(0, 1, (20, 2)), rng.uniform(0.05, 0.6, (20, 2))]),
        # centers near or beyond the edge of the unit square
        np.column_stack([rng.uniform(-0.2, 1.2, (20, 2)), rng.uniform(0.1, 0.9, (20, 2))]),
        # w or h below 2e-9, where the 1e-9 radius floor applies, on cell centers
        np.column_stack([rng.choice(cells, (6, 2)), [0.0, 1e-12, 1.9e-9, 0.2, 1e-10, 0.0],
                         [0.3, 1e-12, 0.0, 1.5e-9, 0.2, 0.0]]),
    ])
    masks = sw.render_masks(boxes, grid)
    assert masks.shape == (len(boxes), grid, grid) and masks.dtype == np.uint8
    for box, mask in zip(boxes, masks):
        np.testing.assert_array_equal(mask, render_mask(box, grid))
    assert 0 < masks.sum() < masks.size
    assert sw.render_masks(np.zeros((0, 4)), grid).shape == (0, grid, grid)


@pytest.mark.parametrize("make", [sw.generate_sequence, sw.crossing_sequence])
def test_generated_masks_are_the_oracle_ellipse_of_each_present_box(make):
    cfg = sw.WorldConfig(seed=6, max_objects=5, frames=8, mask_grid=10, exit_prob=0.3,
                         entry_window=4)
    gt = make(cfg)
    assert gt.present.any() and not gt.present.all()
    for k in range(len(gt)):
        for t in range(gt.frames):
            want = render_mask(gt.boxes[k, t], 10) if gt.present[k, t] else 0
            np.testing.assert_array_equal(gt.masks[k, t], want)


def test_crossing_preset_same_class_overlap():
    cfg = sw.WorldConfig(seed=31, max_objects=4, frames=10)
    seq = sw.crossing_sequence(cfg, num_pairs=1)
    assert seq.classes[0] == seq.classes[1]
    overlaps = [ag.iou_matrix(seq.boxes[0, t], seq.boxes[1, t])[0, 0]
                for t in range(cfg.frames)]
    mid = cfg.frames // 2
    assert max(overlaps[mid - 2 : mid + 3]) > 0.3
    assert overlaps[0] < 0.1
    # deterministic given the seed
    seq2 = sw.crossing_sequence(cfg, num_pairs=1)
    np.testing.assert_array_equal(seq.boxes[0], seq2.boxes[0])


def test_invalid_configs_rejected():
    with pytest.raises(sw.DataError):
        sw.WorldConfig(frames=0)
    with pytest.raises(sw.DataError):  # its last frame index would not load
        sw.WorldConfig(frames=sw.MAX_FRAMES + 1)
    sw.WorldConfig(frames=sw.MAX_FRAMES)
    with pytest.raises(sw.DataError):
        sw.NoiseConfig(miss_prob=1.5)
    with pytest.raises(sw.DataError):
        sw.NoiseConfig(box_jitter=-0.1)


# each config dataclass and the error its __post_init__ raises
CONFIG_ERRORS = {sw.WorldConfig: sw.DataError, sw.NoiseConfig: sw.DataError,
                 ag.ModelConfig: ValueError, learn.TrainConfig: ValueError,
                 learn.LossConfig: ValueError}


def _wrong_values(f):
    """Values of the wrong kind for field `f`, and one below its bound."""
    kind = type(f.default)
    if kind is bool:
        return ["x", 1]
    if kind is int:
        low = {"seed": None, "max_objects": 0}.get(f.name, 1)
        return ["x", True, 2.5] + ([] if low is None else [low - 1])
    if kind is float:
        return ["x", True, float("nan"), -1.0]
    if kind is tuple:
        return ["x", [0.5] * (len(f.default) + 1), [-1.0, *f.default[1:]]]
    return []  # a string or a nested config: its class checks it


@pytest.mark.parametrize("cls,name,value", [
    pytest.param(cls, f.name, v, id=f"{cls.__name__}.{f.name}={v!r}")
    for cls in CONFIG_ERRORS for f in dataclasses.fields(cls) for v in _wrong_values(f)])
def test_every_config_field_rejects_a_value_of_the_wrong_kind(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be ") as info:
        cls(**{name: value})
    assert type(info.value) is CONFIG_ERRORS[cls]


@pytest.mark.parametrize("cls", list(CONFIG_ERRORS), ids=lambda cls: cls.__name__)
def test_every_config_constructs_from_its_defaults(cls):
    cls()
