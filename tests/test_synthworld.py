import dataclasses

import numpy as np
import pytest

from trackgraph import synthworld as sw


def test_generate_determinism_bit_exact():
    cfg = sw.WorldConfig(seed=42, max_objects=4)
    a = sw.generate_sequence(cfg)
    b = sw.generate_sequence(cfg)
    assert len(a.objects) == len(b.objects)
    for oa, ob in zip(a.objects, b.objects):
        assert oa.class_id == ob.class_id
        np.testing.assert_array_equal(oa.present, ob.present)
        np.testing.assert_array_equal(oa.boxes, ob.boxes)
        np.testing.assert_array_equal(oa.masks, ob.masks)
        np.testing.assert_array_equal(oa.appearance, ob.appearance)


def test_generate_no_objects():
    cfg = sw.WorldConfig(seed=1, max_objects=0, frames=10)
    seq = sw.generate_sequence(cfg)
    assert seq.objects == []
    assert seq.frames == 10


def test_generate_replays_documented_sampling_order():
    # Re-execute the documented draw order with an independent generator and
    # check class, entry frame, and presence match for seed 7, 3 objects.
    cfg = sw.WorldConfig(seed=7, max_objects=3, frames=10)
    seq = sw.generate_sequence(cfg)
    rng = np.random.default_rng(7)
    for obj in seq.objects:
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
        assert obj.class_id == class_id
        np.testing.assert_array_equal(obj.present, present)
    assert len(seq.objects) == 3


def test_boxes_inside_unit_square_and_masks_nonempty():
    cfg = sw.WorldConfig(seed=3, max_objects=6, frames=20)
    seq = sw.generate_sequence(cfg)
    for obj in seq.objects:
        for t in range(cfg.frames):
            cx, cy, w, h = obj.boxes[t]
            if obj.present[t]:
                assert cx - w / 2 >= -1e-9 and cx + w / 2 <= 1 + 1e-9
                assert cy - h / 2 >= -1e-9 and cy + h / 2 <= 1 + 1e-9
                assert obj.masks[t].sum() > 0


def test_object_identity_constant():
    cfg = sw.WorldConfig(seed=5, max_objects=5)
    seq = sw.generate_sequence(cfg)
    assert [o.id for o in seq.objects] == list(range(5))


def test_corrupt_zero_noise_is_identity():
    cfg = sw.WorldConfig(seed=11, max_objects=4)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(), seed=0)
    for t in range(cfg.frames):
        present = [o for o in seq.objects if o.present[t]]
        assert len(det.frames[t]) == len(present)
        for d, o in zip(det.frames[t], present):
            np.testing.assert_array_equal(d.box, o.boxes[t])
            np.testing.assert_array_equal(d.mask, o.masks[t])
            np.testing.assert_array_equal(d.appearance, o.appearance)
            assert d.scores[o.class_id] == 1.0
            assert d.source == o.id


def test_corrupt_miss_everything():
    cfg = sw.WorldConfig(seed=2, max_objects=3)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(miss_prob=1.0, false_positive_rate=0.5),
                     seed=1)
    for frame in det.frames:
        assert all(d.source == "fp" for d in frame)


def test_corrupt_miss_rate_monte_carlo():
    # Binomial oracle: with miss 0.3 the mean detection count over reruns
    # approaches 0.7 * presence-count; use a 4-sigma band.
    cfg = sw.WorldConfig(seed=9, max_objects=4, frames=10, exit_prob=0.0,
                         entry_window=1)
    seq = sw.generate_sequence(cfg)
    presence = sum(int(o.present[t]) for o in seq.objects for t in range(cfg.frames))
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
        for d in frame:
            assert abs(d.scores.sum() - 1.0) < 1e-12
            assert np.all(d.scores >= 0)


def test_provenance_partition():
    cfg = sw.WorldConfig(seed=17, max_objects=3)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(false_positive_rate=1.0, miss_prob=0.2),
                     seed=4)
    ids = {o.id for o in seq.objects}
    for frame in det.frames:
        for d in frame:
            assert d.source == "fp" or d.source in ids
    clean = sw.corrupt(seq, sw.NoiseConfig(), seed=5)
    assert all(d.source != "fp" for f in clean.frames for d in f)


def test_truncation_to_sixteen_keeps_best():
    cfg = sw.WorldConfig(seed=19, max_objects=6, frames=3, exit_prob=0.0,
                         entry_window=1)
    seq = sw.generate_sequence(cfg)
    det = sw.corrupt(seq, sw.NoiseConfig(false_positive_rate=30.0), seed=6)
    for frame in det.frames:
        assert len(frame) <= 16
        # every kept real detection outranks dropped false positives
        assert sum(1 for d in frame if d.source != "fp") == 6


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
    for fa, fb in zip(det.frames, back.frames):
        assert len(fa) == len(fb)
        for da, db in zip(fa, fb):
            np.testing.assert_array_equal(da.box, db.box)
            np.testing.assert_array_equal(da.scores, db.scores)
            np.testing.assert_array_equal(da.mask, db.mask)
            np.testing.assert_array_equal(da.appearance, db.appearance)
            assert da.source == db.source


def test_ground_truth_roundtrip(tmp_path):
    cfg = sw.WorldConfig(seed=29, max_objects=3)
    seq = sw.generate_sequence(cfg)
    path = tmp_path / "gt.jsonl"
    sw.save_ground_truth_jsonl(seq, path)
    back = sw.load_ground_truth_jsonl(path, num_classes=cfg.num_classes)
    by_id = {o.id: o for o in back.objects}
    for obj in seq.objects:
        if not obj.present.any():
            continue
        b = by_id[obj.id]
        assert b.class_id == obj.class_id
        np.testing.assert_array_equal(b.present, obj.present)
        np.testing.assert_array_equal(b.appearance, obj.appearance)
        for t in range(cfg.frames):
            if obj.present[t]:
                np.testing.assert_array_equal(b.boxes[t], obj.boxes[t])
                np.testing.assert_array_equal(b.masks[t], obj.masks[t])


def test_stack_frame_keeps_list_order_and_checks_every_field():
    cfg = sw.WorldConfig(seed=4, max_objects=3, frames=1, num_classes=3,
                         appearance_dim=4, mask_grid=6, exit_prob=0.0, entry_window=1)
    dets = sw.corrupt(sw.generate_sequence(cfg), sw.NoiseConfig(class_temperature=0.5),
                      seed=1).frames[0]
    frame = sw.stack_frame(dets, 3, 4, 6)
    assert len(frame) == len(dets) == 3
    for j, d in enumerate(dets):
        for got, want in ((frame.boxes, d.box), (frame.scores, d.scores),
                          (frame.appearance, d.appearance), (frame.masks, d.mask)):
            np.testing.assert_array_equal(got[j], want)
        assert frame.top[j] == max(d.scores[:-1])
    empty = sw.stack_frame([], 3, 4, 6)
    assert [a.shape for a in (empty.boxes, empty.scores, empty.appearance, empty.masks,
                              empty.top)] == [(0, 4), (0, 4), (0, 4), (0, 6, 6), (0,)]
    for attr, bad in (("box", np.zeros(3)), ("scores", np.full(5, 0.2)),
                      ("appearance", np.zeros(3)), ("mask", np.zeros((5, 5)))):
        with pytest.raises(sw.DataError, match=f"detection field '{attr}' has shape"):
            sw.stack_frame([dets[0], dataclasses.replace(dets[1], **{attr: bad})], 3, 4, 6)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    seq = sw.load_detections_jsonl(path)
    assert len(seq) == 0


def test_load_hand_written_fixture(tmp_path):
    import base64
    import json

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
    d = seq.frames[0][0]
    np.testing.assert_array_equal(d.box, [0.5, 0.25, 0.1, 0.2])
    np.testing.assert_array_equal(d.scores, [0.6, 0.3, 0.1])
    assert d.mask[1, 2] == 1 and d.mask.sum() == 1
    np.testing.assert_array_equal(d.appearance, [1.5, -2.5])
    assert d.source is None
    assert seq.num_classes == 2


def test_load_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame": 0, "detections": []}\n{"frame": "oops"}\n')
    with pytest.raises(sw.DataError, match="line 2"):
        sw.load_detections_jsonl(path)


def test_crossing_preset_same_class_overlap():
    from trackgraph.assocgraph import iou

    cfg = sw.WorldConfig(seed=31, max_objects=4, frames=10)
    seq = sw.crossing_sequence(cfg, num_pairs=1)
    a, b = seq.objects[0], seq.objects[1]
    assert a.class_id == b.class_id
    overlaps = [iou(a.boxes[t], b.boxes[t]) for t in range(cfg.frames)]
    mid = cfg.frames // 2
    assert max(overlaps[mid - 2 : mid + 3]) > 0.3
    assert overlaps[0] < 0.1
    # deterministic given the seed
    seq2 = sw.crossing_sequence(cfg, num_pairs=1)
    np.testing.assert_array_equal(seq.objects[0].boxes, seq2.objects[0].boxes)


def test_invalid_configs_rejected():
    with pytest.raises(sw.DataError):
        sw.WorldConfig(frames=0)
    with pytest.raises(sw.DataError):
        sw.NoiseConfig(miss_prob=1.5)
    with pytest.raises(sw.DataError):
        sw.NoiseConfig(box_jitter=-0.1)
