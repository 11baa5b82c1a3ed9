import base64
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from trackgraph import cli, learn, synthworld as sw, trackman as tm
from trackgraph.assocgraph import ModelConfig


def run(argv):
    return cli.main(argv)


def test_generate_single_file(tmp_path):
    out = tmp_path / "world.det.jsonl"
    code = run(["generate", "--seed", "7", "--frames", "10", "--objects", "3",
                "--out", str(out),
                "--override", "world.mask_grid=8", "--override",
                "world.appearance_dim=4"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 10
    gt_path = Path(str(out).replace(".det.jsonl", ".gt.jsonl"))
    assert gt_path.exists()
    stamp = json.loads(Path(str(out) + ".stamp.json").read_text())
    assert stamp["seed"] == 7 and stamp["config"]["world"]["mask_grid"] == 8


def test_generate_directory_with_sequences(tmp_path):
    out = tmp_path / "suite"
    code = run(["generate", "--seed", "3", "--sequences", "3", "--objects", "2",
                "--out", str(out), "--override", "world.mask_grid=6",
                "--override", "world.appearance_dim=3",
                "--override", "world.num_classes=3"])
    assert code == 0
    assert len(list(out.glob("*.det.jsonl"))) == 3
    assert len(list(out.glob("*.gt.jsonl"))) == 3
    assert (out / "stamp.json").exists()


def test_generate_reproducible(tmp_path):
    a = tmp_path / "a.det.jsonl"
    b = tmp_path / "b.det.jsonl"
    for out in (a, b):
        assert run(["generate", "--seed", "11", "--frames", "5", "--out",
                    str(out)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("override,message", [
    ("world.mask_grid=0", "world mask_grid must be an integer >= 1, got 0"),
    ('world.frames="x"', "world frames must be an integer >= 1, got 'x'"),
    ("world.frames=2.5", "world frames must be an integer >= 1, got 2.5"),
    ("world.num_classes=true", "world num_classes must be an integer >= 1, got True"),
    ("world.appearance_dim=0", "world appearance_dim must be an integer >= 1, got 0"),
    ("world.entry_window=0", "world entry_window must be an integer >= 1, got 0"),
    ("world.max_objects=-1", "world max_objects must be an integer >= 0, got -1"),
])
def test_generate_rejects_a_broken_world_config(tmp_path, capsys, override, message):
    # the parent wrote empty masks for a zero grid and ended in a TypeError
    # traceback for a string frame count
    out = tmp_path / "world.det.jsonl"
    assert run(["generate", "--seed", "1", "--out", str(out), "--override", override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def train_argv(tmp_path):
    """Generate a tiny suite; return (data dir, checkpoint path, train argv)."""
    data = tmp_path / "data"
    assert run(["generate", "--seed", "5", "--sequences", "2", "--objects", "2",
                "--frames", "4", "--out", str(data),
                "--override", "world.mask_grid=6",
                "--override", "world.appearance_dim=3",
                "--override", "world.num_classes=3",
                "--override", "noise.false_positive_rate=0.2"]) == 0
    ckpt = tmp_path / "model.npz"
    argv = ["train", "--data", str(data), "--out", str(ckpt), "--seed", "1",
            "--override", "iterations=3", "--override", "D=8",
            "--override", "T=4", "--override", "batch_size=1"]
    return data, ckpt, argv


def train_tiny(tmp_path, extra_overrides=()):
    data, ckpt, argv = train_argv(tmp_path)
    assert run(argv + list(extra_overrides)) == 0
    return data, ckpt


def test_train_track_eval_pipeline(tmp_path):
    data, ckpt = train_tiny(tmp_path)
    assert ckpt.exists()
    csv = ckpt.with_suffix(".losses.csv")
    text = csv.read_text().splitlines()
    assert text[0].startswith("# stamp:")
    assert text[1] == "iteration,score,seg,match,init,total"
    assert len(text) == 2 + 3

    tracks = tmp_path / "tracks.json"
    det_file = sorted(data.glob("*.det.jsonl"))[0]
    assert run(["track", "--checkpoint", str(ckpt), "--detections", str(det_file),
                "--out", str(tracks)]) == 0
    blob = json.loads(tracks.read_text())
    assert "stamp" in blob and "tracks" in blob

    report = tmp_path / "report.json"
    gt_file = sorted(data.glob("*.gt.jsonl"))[0]
    render = tmp_path / "render"
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt_file),
                "--out", str(report), "--render", str(render)]) == 0
    payload = json.loads(report.read_text())
    assert "mean_map" in payload and "association_accuracy" in payload
    assert (render / "frame_000.ppm").read_bytes().startswith(b"P6")


def test_track_reproducible(tmp_path):
    data, ckpt = train_tiny(tmp_path)
    det_file = sorted(data.glob("*.det.jsonl"))[0]
    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        assert run(["track", "--checkpoint", str(ckpt), "--detections",
                    str(det_file), "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        del blob["stamp"]
        outs.append(json.dumps(blob, sort_keys=True))
    assert outs[0] == outs[1]


def test_usage_errors_exit_one(tmp_path):
    assert run(["bogus"]) == 1
    assert run(["ablate", "--name", "nonexistent", "--out", str(tmp_path)]) == 1
    assert run(["train", "--data", str(tmp_path), "--out", "x.npz",
                "--override", "unknown_key=1"]) in (1, 2)
    assert run(["ablate", "--name", "full", "--out", str(tmp_path / "abl"),
                "--override", "unknown_key=1"]) == 1
    assert not (tmp_path / "abl").exists()


@pytest.mark.parametrize("override", [
    "ablations.bogus=1",            # unknown model config key
    'ablations.gate_mode="nope"',   # not a gate mode
    "iterations=0",                 # no training iteration to run
    "batch_size=0",                 # no sequence per batch
    'ablations.max_tracks="x"',     # a count that is not an integer
    "ablations.limited_gnn=1",      # a switch that is not a boolean
    "ablations=1",                  # not an object of model config keys
])
def test_config_errors_exit_one_before_training(tmp_path, capsys, override):
    _, ckpt, argv = train_argv(tmp_path)
    assert run(argv + ["--override", override]) == 1
    assert "error:" in capsys.readouterr().err
    assert not ckpt.exists()


def test_data_errors_exit_two(tmp_path, capsys):
    _, _, ckpt = _tiny_stream(tmp_path)
    bad = tmp_path / "bad.det.jsonl"
    bad.write_text("{not json}\n")
    assert run(["track", "--checkpoint", str(ckpt), "--detections", str(bad),
                "--out", str(tmp_path / "o.json")]) == 2
    assert "malformed line 1" in capsys.readouterr().err


def _tiny_stream(tmp_path):
    """A generated 3-frame stream, its ground truth and a matching checkpoint."""
    det = tmp_path / "w.det.jsonl"
    assert run(["generate", "--seed", "2", "--frames", "3", "--objects", "2",
                "--out", str(det), "--override", "world.mask_grid=6",
                "--override", "world.appearance_dim=3",
                "--override", "world.num_classes=3"]) == 0
    ckpt = tmp_path / "model.npz"
    config = ModelConfig(num_classes=3, appearance_dim=3, mask_grid=6, embed_dim=8)
    learn.save_checkpoint(ckpt, tm.build_model(config, seed=0))
    return det, Path(str(det).replace(".det.jsonl", ".gt.jsonl")), ckpt


def _first_det(lines, **fields):
    record = json.loads(lines[0])
    record["detections"][0].update(fields)
    return [json.dumps(record)] + lines[1:]


def _over_cap(lines):
    """Line 1 with max_detections + 1 detections, the fourth with one score."""
    record = json.loads(lines[0])
    dets = [dict(record["detections"][0]) for _ in range(ModelConfig().max_detections + 1)]
    dets[3]["scores"] = [1.0]
    return [json.dumps({**record, "detections": dets})] + lines[1:]


def _last_det(lines, **fields):
    """The last detection of line 2 takes `fields`."""
    record = json.loads(lines[1])
    record["detections"][-1].update(fields)
    return lines[:1] + [json.dumps(record)] + lines[2:]


def _every_det(lines, **fields):
    """Every detection takes `fields`, and frame 0 has none."""
    out = []
    for t, line in enumerate(lines):
        record = json.loads(line)
        record["detections"] = [] if t == 0 else [{**d, **fields}
                                                  for d in record["detections"]]
        out.append(json.dumps(record))
    return out


_MASK_5X5 = base64.b64encode(bytes(25)).decode()


@pytest.mark.parametrize("mutate, message", [
    (lambda lines: lines + lines[1:2], "repeats frame 1"),
    (lambda lines: _first_det(lines, box=[0.5, 0.5, -0.1, 0.2]), "w, h > 0"),
    (lambda lines: _first_det(lines, box=[0.5, 0.5, 0.1, 0.0]), "w, h > 0"),
    (lambda lines: _first_det(lines, box=[0.5, float("nan"), 0.1, 0.2]), "not finite"),
    (lambda lines: lines + ['{"frame": -1, "detections": []}'], "negative frame -1"),
    # a frame index is a JSON integer below MAX_FRAMES; int() would have read
    # these as frames 1, 1 and 2, and 1e9 as a billion-frame stream
    (lambda lines: lines + ['{"frame": 1.5, "detections": []}'],
     "malformed line 4: frame 1.5 is not an integer"),
    (lambda lines: lines + ['{"frame": true, "detections": []}'],
     "malformed line 4: frame true is not an integer"),
    (lambda lines: lines + ['{"frame": "2", "detections": []}'],
     'malformed line 4: frame "2" is not an integer'),
    (lambda lines: lines + ['{"frame": 1e9, "detections": []}'],
     "malformed line 4: frame 1000000000.0 is not an integer"),
    (lambda lines: lines + [f'{{"frame": {sw.MAX_FRAMES}, "detections": []}}'],
     f"malformed line 4: frame {sw.MAX_FRAMES} is not below MAX_FRAMES = {sw.MAX_FRAMES}"),
    # the mutated first detection sets the stream's shapes, so the next line
    # that has detections disagrees with it
    (lambda lines: _first_det(lines, scores=[0.5, 0.5]),
     "malformed line 2: detection 0 field 'scores' has shape (4,), not (2,) as on line 1"),
    (lambda lines: _first_det(lines, appearance=[0.1, 0.2]),
     "malformed line 2: detection 0 field 'appearance' has shape (3,), not (2,) "
     "as on line 1"),
    (lambda lines: _first_det(lines, mask=_MASK_5X5),
     "malformed line 2: detection 0 field 'mask' has shape (6, 6), not (5, 5) "
     "as on line 1"),
    # checked before the frame is ranked down to max_detections
    (_over_cap, "malformed line 1: detection 3 field 'scores' has shape (1,)"),
    # a self-consistent stream the checkpoint's model (3 classes, appearance
    # size 3, 6x6 grid) cannot read: step names the frame
    (lambda lines: _every_det(lines, scores=[0.2] * 5),
     "frame 1: detection field 'scores' has rows of shape (5,), the model's are (4,)"),
    (lambda lines: _every_det(lines, appearance=[0.1, 0.2]),
     "frame 1: detection field 'appearance' has rows of shape (2,), the model's are (3,)"),
    (lambda lines: _every_det(lines, mask=_MASK_5X5),
     "frame 1: detection field 'masks' has rows of shape (5, 5), the model's are (6, 6)"),
    # values the loader rejects, naming the line and the detection
    (lambda lines: _first_det(lines, scores=[float("nan"), 0.2, 0.2, 0.2]),
     "malformed line 1: detection 0 has a non-finite score"),
    (lambda lines: _first_det(lines, appearance=[0.1, float("nan"), 0.2]),
     "malformed line 1: detection 0 has a non-finite appearance entry"),
    (lambda lines: _first_det(lines, appearance=[float("inf"), 0.1, 0.2]),
     "malformed line 1: detection 0 has a non-finite appearance entry"),
    (lambda lines: _first_det(lines, scores=[2.0, -1.0, 0.0, 0.0]),
     "malformed line 1: detection 0 has a score outside [0, 1]"),
    (lambda lines: _first_det(lines, scores=[0.5, 0.2, 0.1, 0.1]),
     "malformed line 1: detection 0 has scores that do not sum to 1 within 0.001"),
    (lambda lines: _last_det(lines, scores=[0.25, 0.25, 0.25, 0.2485]),
     "malformed line 2: detection {last} has scores that do not sum to 1 within 0.001"),
], ids=["repeated_frame", "negative_width", "zero_height", "nan_center",
        "negative_frame", "float_frame", "bool_frame", "string_frame", "exponent_frame",
        "frame_past_bound", "score_length", "appearance_length", "mask_grid",
        "over_cap_short_scores", "model_score_length", "model_appearance_length",
        "model_mask_grid", "nan_score", "nan_appearance", "inf_appearance",
        "score_above_one", "score_sum", "score_sum_last_detection"])
def test_bad_detection_stream_exits_two(tmp_path, capsys, mutate, message):
    det, _, ckpt = _tiny_stream(tmp_path)
    lines = det.read_text().splitlines()
    last = len(json.loads(lines[1])["detections"]) - 1
    det.write_text("\n".join(mutate(lines)) + "\n")
    assert run(["track", "--checkpoint", str(ckpt), "--detections", str(det),
                "--out", str(tmp_path / "o.json")]) == 2
    assert message.format(last=last) in capsys.readouterr().err


def test_track_stream_without_detections_writes_no_tracks(tmp_path):
    _, _, ckpt = _tiny_stream(tmp_path)
    det = tmp_path / "empty.det.jsonl"
    det.write_text("".join(f'{{"frame": {t}, "detections": []}}\n' for t in range(4)))
    out = tmp_path / "o.json"
    assert run(["track", "--checkpoint", str(ckpt), "--detections", str(det),
                "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["num_frames"] == 4 and blob["tracks"] == []


def test_repeated_ground_truth_frame_exits_two(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    lines = gt.read_text().splitlines()
    gt.write_text("\n".join(lines + lines[:1]) + "\n")
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "repeats frame 0" in capsys.readouterr().err


def test_ground_truth_object_twice_in_one_frame_exits_two(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    lines = gt.read_text().splitlines()
    record = json.loads(lines[1])
    twin = {**record["objects"][0], "box": [0.5, 0.5, 0.1, 0.1]}
    record["objects"].append(twin)
    gt.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert (f"malformed line 2: object {twin['id']} is listed twice in frame 1"
            in capsys.readouterr().err)


def test_ground_truth_class_beyond_the_tracks_classes_exits_two_in_eval(tmp_path, capsys):
    det, gt, ckpt = _tiny_stream(tmp_path)
    tracks = tmp_path / "tracks.json"
    assert run(["track", "--checkpoint", str(ckpt), "--detections", str(det),
                "--out", str(tracks)]) == 0
    assert json.loads(tracks.read_text())["tracks"]
    lines = [json.loads(line) for line in gt.read_text().splitlines()]
    oid = lines[-1]["objects"][0]["id"]
    for r in lines:
        for o in r["objects"]:
            if o["id"] == oid:
                o["class"] = 9
    gt.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert (f"{gt} has 10 classes (object {oid} has class 9), {tracks} has 3"
            in capsys.readouterr().err)
    # a tracks file without tracks sets no bound
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 0


def test_negative_ground_truth_frame_exits_two(tmp_path, capsys):
    # frame -1 would otherwise mark its objects present on the last frame
    _, gt, _ = _tiny_stream(tmp_path)
    lines = gt.read_text().splitlines()
    gt.write_text("\n".join(lines + [lines[0].replace('"frame": 0', '"frame": -1')]) + "\n")
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "negative frame -1" in capsys.readouterr().err


@pytest.mark.parametrize("frame, message", [
    ("1.5", "frame 1.5 is not an integer"),
    ("true", "frame true is not an integer"),
    ('"2"', 'frame "2" is not an integer'),
    ("2e12", "frame 2000000000000.0 is not an integer"),
    ("1e308", "frame 1e+308 is not an integer"),
    (str(10 ** 12), f"frame {10 ** 12} is not below MAX_FRAMES = {sw.MAX_FRAMES}"),
], ids=["float", "bool", "string", "exponent", "huge_exponent", "past_bound"])
def test_bad_ground_truth_frame_exits_two(tmp_path, capsys, frame, message):
    # a frame index is a JSON integer below MAX_FRAMES: int() would have read
    # 2e12 as a frame count, and 1e308 failed outside the loader's checks
    _, gt, _ = _tiny_stream(tmp_path)
    gt.write_text(gt.read_text() + f'{{"frame": {frame}, "objects": []}}\n')
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert f"{gt}: malformed line 4: {message}" in capsys.readouterr().err


def test_ground_truth_mask_grid_mismatch_exits_two(tmp_path, capsys):
    # the file's first mask sets the grid (6x6); one object on line 2 disagrees
    _, gt, _ = _tiny_stream(tmp_path)
    lines = gt.read_text().splitlines()
    record = json.loads(lines[1])
    record["objects"][0]["mask"] = _MASK_5X5
    gt.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    oid = record["objects"][0]["id"]
    assert (f"malformed line 2: object {oid} mask has shape (5, 5), not (6, 6) as on line 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("t", [0, 7], ids=["overlapping_frame", "disjoint_frame"])
def test_track_masks_on_another_grid_exit_two(tmp_path, capsys, t):
    # the ground truth is on a 6x6 grid, the track's mask on 5x5
    _, gt, _ = _tiny_stream(tmp_path)
    tracks = tmp_path / "tracks.json"
    frame = {"t": t, "active": True, "scores": [0.7, 0.1, 0.1, 0.1], "mask": _MASK_5X5}
    tracks.write_text(json.dumps({"tracks": [{"id": 0, "frames": [frame]}]}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "masks on grids 5x5 and 6x6" in capsys.readouterr().err


def test_track_mask_payload_not_square_exits_two(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    tracks = tmp_path / "tracks.json"
    frame = {"t": 0, "active": True, "scores": [0.7, 0.1, 0.1, 0.1],
             "mask": base64.b64encode(bytes(24)).decode()}
    tracks.write_text(json.dumps({"tracks": [{"id": 0, "frames": [frame]}]}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "mask payload has 24 bytes, not a square grid" in capsys.readouterr().err


def _train_on_mutated_gt(tmp_path, mutate):
    """Train on the tiny suite after `mutate` edits the last sequence's
    ground-truth records in place; returns (exit code, gt path, det path)."""
    data, _, argv = train_argv(tmp_path)
    gt = sorted(data.glob("*.gt.jsonl"))[-1]
    records = [json.loads(line) for line in gt.read_text().splitlines()]
    mutate(records)
    gt.write_text("".join(json.dumps(r) + "\n" for r in records))
    return run(argv), gt, Path(str(gt).replace(".gt.jsonl", ".det.jsonl"))


@pytest.mark.parametrize("cls", [-1, 3, 9])
def test_ground_truth_class_outside_model_classes_exits_two(tmp_path, capsys, cls):
    # the streams have 3 classes; a class of 3 or more would index past the
    # score head's foreground classes
    def mutate(records):
        for r in records:
            for o in r["objects"]:
                o["class"] = cls
    code, gt, _ = _train_on_mutated_gt(tmp_path, mutate)
    assert code == 2
    assert re.search(rf"{re.escape(str(gt))}: malformed line \d+: object \d+ has class "
                     rf"{cls}, outside \[0, 3\)", capsys.readouterr().err)


def test_ground_truth_class_change_exits_two(tmp_path, capsys):
    seen = {}

    def mutate(records):
        obj = records[-1]["objects"][0]
        first = next(i for i, r in enumerate(records)
                     if any(o["id"] == obj["id"] for o in r["objects"]))
        assert first < len(records) - 1
        seen.update(id=obj["id"], old=obj["class"], line=first + 1)
        obj["class"] = (obj["class"] + 1) % 3
    code, _, _ = _train_on_mutated_gt(tmp_path, mutate)
    assert code == 2
    assert (f"malformed line 4: object {seen['id']} has class {(seen['old'] + 1) % 3}, "
            f"not {seen['old']} as on line {seen['line']}" in capsys.readouterr().err)


def test_tracks_whose_score_rows_differ_in_length_exit_two_in_eval(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    tracks = tmp_path / "tracks.json"
    rows = {7: [0.1, 0.2, 0.3, 0.4], 8: [0.1, 0.2, 0.3, 0.2, 0.2], 9: [0.4, 0.3, 0.2, 0.1]}
    tracks.write_text(json.dumps({"tracks": [
        {"id": tid, "frames": [{"t": 0, "active": False, "scores": scores}]}
        for tid, scores in rows.items()]}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "track 8 has 5 scores, track 7 has 4" in capsys.readouterr().err


def test_negative_ground_truth_class_exits_two_in_eval(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    lines = [json.loads(line) for line in gt.read_text().splitlines()]
    lines[-1]["objects"][0]["class"] = -2
    gt.write_text("".join(json.dumps(r) + "\n" for r in lines))
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert "has class -2, outside [0, inf)" in capsys.readouterr().err


def test_ground_truth_id_beyond_int64_exits_two(tmp_path, capsys):
    _, gt, _ = _tiny_stream(tmp_path)
    lines = [json.loads(line) for line in gt.read_text().splitlines()]
    lines[-1]["objects"][0]["id"] = 2 ** 63
    gt.write_text("".join(json.dumps(r) + "\n" for r in lines))
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps({"tracks": []}))
    assert run(["eval", "--tracks", str(tracks), "--gt", str(gt)]) == 2
    assert f"malformed line {len(lines)}: " in capsys.readouterr().err


def test_ground_truth_on_another_grid_than_its_stream_exits_two(tmp_path, capsys):
    def mutate(records):
        for r in records:
            for o in r["objects"]:
                o["mask"] = _MASK_5X5
    code, gt, det = _train_on_mutated_gt(tmp_path, mutate)
    assert code == 2
    assert (f"{gt} has masks on a 5x5 grid, {det} on a 6x6 grid"
            in capsys.readouterr().err)


def test_ground_truth_shorter_than_its_stream_exits_two(tmp_path, capsys):
    code, gt, det = _train_on_mutated_gt(tmp_path, lambda records: records.pop())
    assert code == 2
    assert f"{gt} covers 3 frames, {det} has 4" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("box", [0.5, 0.5, 0.2], "malformed line 4: object {oid} box has shape (3,), not (4,)"),
    ("appearance", [0.1, 0.2], "malformed line 4: object {oid} appearance has shape (2,), "
                               "not (3,) as on line {first}"),
], ids=["box_length", "ragged_appearance"])
def test_ground_truth_row_shapes_exit_two(tmp_path, capsys, field, value, message):
    seen = {}

    def mutate(records):
        obj = records[-1]["objects"][0]
        obj[field] = value
        seen.update(oid=obj["id"], first=next(i + 1 for i, r in enumerate(records)
                                              if r["objects"]))
    code, gt, _ = _train_on_mutated_gt(tmp_path, mutate)
    assert code == 2
    assert f"{gt}: " + message.format(**seen) in capsys.readouterr().err


_EMPTY_FRAMES = {"gt": '{{"frame": {t}, "objects": []}}\n',
                 "det": '{{"frame": {t}, "detections": []}}\n'}


def _empty_file(data, name, kind):
    (data / f"{name}.{kind}.jsonl").write_text(
        "".join(_EMPTY_FRAMES[kind].format(t=t) for t in range(4)))


def _model_shapes(ckpt):
    config = learn.load_checkpoint(ckpt).config
    return config.num_classes, config.appearance_dim, config.mask_grid


def test_first_ground_truth_without_objects_trains(tmp_path):
    # the model's shapes come from the streams, not from an empty gt file
    data, ckpt, argv = train_argv(tmp_path)
    _empty_file(data, "seq_000", "gt")
    assert run(argv) == 0
    assert _model_shapes(ckpt) == (3, 3, 6)


def test_model_shapes_from_first_stream_with_a_detection(tmp_path):
    data, ckpt, argv = train_argv(tmp_path)
    _empty_file(data, "seq_000", "det")
    assert run(argv) == 0
    assert _model_shapes(ckpt) == (3, 3, 6)


def test_without_detections_the_config_shapes_stand(tmp_path, capsys):
    data, ckpt, argv = train_argv(tmp_path)
    for name in ("seq_000", "seq_001"):
        _empty_file(data, name, "det")
    assert run(argv) == 2  # the default 24x24 grid does not fit the gt masks
    assert (f"{data / 'seq_000.gt.jsonl'} has masks on a 6x6 grid, the training config "
            "on a 24x24 grid") in capsys.readouterr().err
    shapes = ["--override", "num_classes=4", "--override", "appearance_dim=2",
              "--override", "mask_grid=6"]
    assert run(argv + shapes) == 0
    assert _model_shapes(ckpt) == (4, 2, 6)


@pytest.mark.parametrize("override, message", [
    ("world.num_classes=4", "has num_classes 4, {first} has 3"),
    ("world.appearance_dim=4", "has appearance_dim 4, {first} has 3"),
    ("world.mask_grid=5", "has mask_grid 5, {first} has 6"),
], ids=["num_classes", "appearance_dim", "mask_grid"])
def test_streams_that_disagree_on_model_shapes_exit_two(tmp_path, capsys, override,
                                                        message):
    data, ckpt, argv = train_argv(tmp_path)
    second = data / "seq_001.det.jsonl"
    assert run(["generate", "--seed", "8", "--frames", "4", "--objects", "2",
                "--out", str(second), "--override", "world.mask_grid=6",
                "--override", "world.appearance_dim=3",
                "--override", "world.num_classes=3", "--override", override]) == 0
    assert run(argv) == 2
    first = data / "seq_000.det.jsonl"
    assert f"{second} " + message.format(first=first) in capsys.readouterr().err
    assert not ckpt.exists()


# sha256 of the files `trackgraph generate --frames 6` writes with a 8x8 grid
# and appearance size 3 (numpy 2.4, x86-64; CI's step summary prints its numpy
# version and machine); a change to the documented sampling or corruption
# order, or to either JSON Lines format, changes them
GENERATED_SHA256 = {
    "plain": (["--seed", "4", "--objects", "3"], {
        "det": "9f0cd45c563448b64d1cd35379cdd9c88207eee0e617406d53043410d095e772",
        "gt": "fe9b0422fa090f85305192b9d5fe799ee11e983f429d14795d78c18d48665956"}),
    "crossing": (["--seed", "9", "--objects", "5", "--crossing"], {
        "det": "0581f99a28a1f9c0ff2d5999770cd6fc87166f5b32efcd163e9db34e952a33bd",
        "gt": "eb22c1451bbf8eaa7ec812466a6834d6c703654d77085af85c73120c32e0a56b"}),
    "exits": (["--seed", "1", "--objects", "12", "--override", "world.exit_prob=0.3",
               "--override", "world.entry_window=4"], {
        "det": "1f7c516952b20a5d8ec1053786ad2fd31d75f1907c1e0575dadc746ca5949dd3",
        "gt": "a871107b248e3d30f46674642b52277554f3386f14f2439bd228af9e377eb6dc"}),
}


def generate_pinned(tmp_path, name) -> dict:
    """The pinned world's written files, by kind."""
    args, digests = GENERATED_SHA256[name]
    out = tmp_path / "world.det.jsonl"
    assert run(["generate", "--frames", "6", "--out", str(out),
                "--override", "world.mask_grid=8",
                "--override", "world.appearance_dim=3"] + args) == 0
    return {kind: tmp_path / f"world.{kind}.jsonl" for kind in digests}


@pytest.mark.parametrize("name", sorted(GENERATED_SHA256))
def test_generated_files_are_pinned(tmp_path, name):
    for kind, path in generate_pinned(tmp_path, name).items():
        digest = GENERATED_SHA256[name][1][kind]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, kind


def test_exits_pin_covers_exits_entries_and_every_corruption(tmp_path):
    # so the "exits" pin keeps covering every generation and corruption branch
    paths = generate_pinned(tmp_path, "exits")
    gt = [json.loads(line) for line in paths["gt"].read_text().splitlines()]
    det = [json.loads(line) for line in paths["det"].read_text().splitlines()]
    frames = {}  # object id -> frames present
    for t, record in enumerate(gt):
        for obj in record["objects"]:
            frames.setdefault(obj["id"], []).append(t)
    assert sum(ts[-1] < len(gt) - 1 for ts in frames.values()) == 10   # exits
    assert sum(ts[0] > 0 for ts in frames.values()) == 11              # late entries
    misses = duplicates = false_positives = 0
    for record, dets in zip(gt, det):
        sources = [d.get("source") for d in dets["detections"]]
        for obj in record["objects"]:
            misses += obj["id"] not in sources
            duplicates += sources.count(obj["id"]) > 1
        false_positives += sources.count("fp")
    assert (misses, duplicates, false_positives) == (1, 1, 1)


def test_gradcheck_single_target():
    assert run(["gradcheck", "--target", "gate"]) == 0


def test_gradcheck_unknown_target():
    assert run(["gradcheck", "--target", "nonsense"]) == 1


def test_ablation_names_cover_reported_rows():
    expected = {"limited_gnn", "association_heuristic", "no_appearance",
                "const_variance", "scoring_heuristic", "simple_gate",
                "mlp_node_updates", "blocks_1", "blocks_3", "no_residual"}
    assert expected <= set(cli.ABLATIONS)
    for name, flags in cli.ABLATIONS.items():
        ModelConfig.from_dict({**ModelConfig().to_dict(), **flags})


def test_ablate_smoke(tmp_path):
    out = tmp_path / "abl"
    code = run(["ablate", "--name", "limited_gnn", "--out", str(out), "--seed", "2",
                "--override", "iterations=2", "--override", "train_sequences=2",
                "--override", "eval_sequences=1", "--override", "D=8",
                "--override", "T=3", "--override", "mask_grid=6",
                "--override", "appearance_dim=3", "--override", "num_classes=3",
                "--override", "batch_size=1"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "mean_map" in report and report["stamp"]["config"]["name"] == "limited_gnn"
    model = learn.load_checkpoint(out / "model.npz")
    assert model.config.limited_gnn


def test_eval_zero_noise_oracle_model_perfect_map(tmp_path):
    # An oracle-matching model on a trivial single-object, zero-noise world:
    # force heads so the one detection always initializes and always matches.
    cfg = sw.WorldConfig(seed=2, frames=5, max_objects=1, num_classes=3,
                         appearance_dim=3, mask_grid=8, exit_prob=0.0,
                         entry_window=1)
    gt = sw.generate_sequence(cfg)
    det = sw.corrupt(gt, sw.NoiseConfig(), seed=3)
    model_config = ModelConfig(num_classes=3, embed_dim=8, appearance_dim=3,
                               mask_grid=8)
    model = tm.build_model(model_config, seed=0)
    model.params["match_head/w"].data[...] = 0.0
    model.params["match_head/b"].data[...] = 5.0
    # hand-built mask head: logit +10 inside the detection mask, -10 outside
    for name in model.params.names():
        if name.startswith("mask_head"):
            model.params[name].data[...] = 0.0
    model.params["mask_head/conv1/w"].data[0, 16 * 9 + 4] = 20.0
    model.params["mask_head/conv2/w"].data[0, 4] = 1.0
    model.params["mask_head/conv2/b"].data[...] = -10.0
    memory, _ = tm.run_sequence(det.frames, model)
    from trackgraph import evalkit as ek

    preds = ek.tracks_from_memory(memory, 3)
    gts = ek.tracks_from_gt(gt)
    # give the single surviving track the true class with high confidence
    assert len(preds) >= 1
    main = max(preds, key=lambda p: len(p.masks))
    main.class_id = int(gt.classes[0])
    main.confidence = 1.0
    for p in preds:
        if p is not main:
            p.confidence = 0.0
    report = ek.evaluate(preds, gts)
    assert report.mean_map == pytest.approx(1.0)
