import numpy as np
import pytest

from trackgraph import evalkit as ek
from trackgraph import synthworld as sw
from trackgraph import trackman as tm
from trackgraph.assocgraph import ModelConfig

from oracles import id_metrics_oracle, report_oracle, st_iou_oracle, video_map_oracle


def mask_of(cells, grid=6):
    m = np.zeros((grid, grid), dtype=np.uint8)
    for r, c in cells:
        m[r, c] = 1
    return m


def block(r0, r1, c0, c1, grid=6):
    m = np.zeros((grid, grid), dtype=np.uint8)
    m[r0:r1, c0:c1] = 1
    return m


def track(tid, cls, conf, masks, seq=0):
    return ek.EvalTrack(id=tid, class_id=cls, confidence=conf, masks=masks,
                        sequence=seq)


def video_map(preds, gts):
    return ek.video_map(preds, gts, ek._overlaps(preds, gts))


def id_metrics(preds, gts):
    return ek.id_metrics(preds, gts, ek._overlaps(preds, gts))


# ---------------------------------------------------------------------------


def test_st_iou_identical():
    m = {0: block(1, 3, 1, 3), 1: block(2, 4, 2, 4)}
    a = track(0, 0, 1.0, m)
    b = track(1, 0, 1.0, dict(m))
    assert ek.st_iou(a, b) == 1.0


def test_st_iou_temporally_disjoint():
    a = track(0, 0, 1.0, {0: block(1, 3, 1, 3)})
    b = track(1, 0, 1.0, {1: block(1, 3, 1, 3)})
    assert ek.st_iou(a, b) == 0.0


def test_st_iou_one_third_hand_case():
    # same mask at frame 2 only; presence {1,2} vs {2,3}
    m = block(2, 4, 2, 4)
    a = track(0, 0, 1.0, {1: m, 2: m})
    b = track(1, 0, 1.0, {2: m, 3: m})
    assert ek.st_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_st_iou_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = track(0, 0, 1.0, {t: rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
                              for t in range(rng.integers(1, 4))})
        b = track(1, 0, 1.0, {t: rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
                              for t in range(rng.integers(1, 4))})
        v1, v2 = ek.st_iou(a, b), ek.st_iou(b, a)
        assert v1 == v2
        assert 0.0 <= v1 <= 1.0
        assert v1 == st_iou_oracle(a.masks, b.masks)


def test_video_map_perfect_predictions():
    gt = [track(0, 1, 1.0, {0: block(1, 4, 1, 4), 1: block(2, 5, 2, 5)}),
          track(1, 2, 1.0, {0: block(0, 2, 0, 2)})]
    preds = [track(10, 1, 0.9, dict(gt[0].masks)),
             track(11, 2, 0.8, dict(gt[1].masks))]
    _, per_class, mean = video_map(preds, gt)
    assert mean == pytest.approx(1.0)
    assert per_class == {1: 1.0, 2: 1.0}


def test_video_map_single_prediction_at_iou_06():
    cells_gt = [(0, c) for c in range(5)] + [(1, c) for c in range(5)]
    cells_pred = cells_gt[:6]
    gt = [track(0, 0, 1.0, {0: mask_of(cells_gt)})]
    pred = [track(5, 0, 0.7, {0: mask_of(cells_pred)})]
    assert ek.st_iou(pred[0], gt[0]) == pytest.approx(0.6)
    per_thr, _, _ = video_map(pred, gt)
    assert per_thr[0.50] == pytest.approx(1.0)
    assert per_thr[0.55] == pytest.approx(1.0)
    assert per_thr[0.60] == pytest.approx(1.0)
    assert per_thr[0.75] == pytest.approx(0.0)
    assert per_thr[0.95] == pytest.approx(0.0)


def random_fixture(rng):
    """Predictions and ground truth over up to three sequences, each on its
    own grid, with repeated ids, equal confidences, mask values above 1,
    tracks without masks and empty sides.  A track often copies the masks
    of an earlier track of its sequence, all of them or all but one frame,
    so equal and high overlaps are common."""
    grids = rng.integers(3, 6, size=3)

    def masks(seq, earlier):
        same = [tr for tr in earlier if tr.sequence == seq]
        if same and rng.random() < 0.5:
            m = dict(same[int(rng.integers(len(same)))].masks)
            if m and rng.random() < 0.5:
                del m[sorted(m)[int(rng.integers(len(m)))]]
            return m
        g = grids[seq]
        return {t: rng.integers(0, 4, size=(g, g)) * (rng.random((g, g)) < 0.4)
                for t in range(4) if rng.random() < 0.6}

    def tracks(n, conf, earlier):
        out = []
        for _ in range(n):
            seq = int(rng.integers(0, 3))
            out.append(track(int(rng.integers(0, 4)), int(rng.integers(0, 2)), conf(),
                             masks(seq, earlier + out), seq))
        return out

    gts = tracks(int(rng.integers(0, 6)), lambda: 1.0, [])
    preds = tracks(int(rng.integers(0, 7)), lambda: float(rng.choice([0.3, 0.5, 0.9])),
                   gts)
    return preds, gts


def test_video_map_matches_brute_force_oracle_on_random_fixtures():
    rng = np.random.default_rng(7)
    for trial in range(200):
        preds, gts = random_fixture(rng)
        got = video_map(preds, gts)
        assert got == video_map_oracle(preds, gts, ek.MAP_THRESHOLDS), f"trial {trial}"


def test_id_metrics_matches_oracle_on_random_fixtures():
    rng = np.random.default_rng(8)
    for trial in range(200):
        preds, gts = random_fixture(rng)
        assert id_metrics(preds, gts) == id_metrics_oracle(preds, gts), f"trial {trial}"


def test_st_iou_matches_oracle_on_random_fixtures():
    rng = np.random.default_rng(9)
    for _ in range(50):
        preds, gts = random_fixture(rng)
        for p in preds:
            for g in gts:
                if p.sequence == g.sequence:
                    assert ek.st_iou(p, g) == st_iou_oracle(p.masks, g.masks)


def test_evaluate_equals_oracle_report_on_a_tracked_crowded_world():
    # 20 objects, 40 frames, grid 24, every detection joined by a false
    # positive.  Untrained learned heads score every track near mAP 0, so
    # the model associates and scores without learning, and its mask head
    # copies the detection mask: matching then decides at every threshold.
    world = sw.WorldConfig(frames=40, max_objects=20, mask_grid=24, exit_prob=0.0,
                           entry_window=1, seed=11)
    gt = sw.crossing_sequence(world, num_pairs=2)
    noise = sw.NoiseConfig(miss_prob=0.1, false_positive_rate=1.0, class_temperature=0.3,
                           box_jitter=0.01, appearance_noise=0.1, duplicate_prob=0.05)
    det = sw.corrupt(gt, noise, seed=18)
    model = tm.build_model(ModelConfig(heuristic_scoring=True, heuristic_association=True),
                           seed=3)
    for name in model.params.names():
        if name.startswith("mask_head"):
            model.params[name].data[...] = 0.0
    model.params["mask_head/conv1/w"].data[0, 16 * 9 + 4] = 20.0
    model.params["mask_head/conv2/w"].data[0, 4] = 1.0
    model.params["mask_head/conv2/b"].data[...] = -10.0
    memory, _ = tm.run_sequence(det.frames, model)
    preds = ek.tracks_from_memory(memory, world.num_classes)
    gts = ek.tracks_from_gt(gt)
    got = ek.evaluate(preds, gts).to_dict()
    assert got == report_oracle(preds, gts, ek.MAP_THRESHOLDS)
    assert got["mean_map"] > 0.05 and got["id_switches"] > 0


def test_masks_on_two_grids_in_one_sequence_raise():
    gt = [track(0, 0, 1.0, {0: block(1, 3, 1, 3)})]
    for t in (0, 1):  # overlapping and disjoint frames
        pred = [track(1, 0, 0.9, {t: np.ones((5, 5), dtype=np.uint8)})]
        with pytest.raises(sw.DataError, match="grids 5x5 and 6x6"):
            ek.evaluate(pred, gt)
    # one grid per sequence is enough
    pred = [track(1, 0, 0.9, {0: np.ones((5, 5), dtype=np.uint8)}, seq=1)]
    assert ek.evaluate(pred, gt).mean_map == 0.0


def test_video_map_invariant_to_id_relabeling():
    rng = np.random.default_rng(9)
    gts = [track(0, 0, 1.0, {t: rng.integers(0, 2, size=(4, 4)).astype(np.uint8)
                             for t in range(3)})]
    masks = {t: rng.integers(0, 2, size=(4, 4)).astype(np.uint8) for t in range(3)}
    preds1 = [track(1, 0, 0.5, masks), track(2, 0, 0.9, {0: masks[0]})]
    preds2 = [track(42, 0, 0.5, masks), track(77, 0, 0.9, {0: masks[0]})]
    assert video_map(preds1, gts)[2] == video_map(preds2, gts)[2]


def test_video_map_equal_confidence_tie_rule():
    gt = [track(0, 0, 1.0, {0: block(0, 3, 0, 3)})]
    good = {0: block(0, 3, 0, 3)}
    bad = {0: block(3, 6, 3, 6)}
    # lower id first at equal confidence: good has the lower id
    preds = [track(1, 0, 0.5, good), track(2, 0, 0.5, bad)]
    _, _, map_lo = video_map(preds, gt)
    preds_swapped = [track(2, 0, 0.5, good), track(1, 0, 0.5, bad)]
    _, _, map_hi = video_map(preds_swapped, gt)
    assert map_lo == pytest.approx(1.0)   # TP ranked first
    assert map_hi < 1.0                    # FP ranked first pulls AP down


def test_video_map_equal_st_iou_goes_to_lowest_index_gt():
    m0, m1, m2 = block(0, 2, 0, 2), block(2, 4, 2, 4), block(4, 6, 4, 6)
    gt_a = track(0, 0, 1.0, {0: m0, 1: m1})
    gt_b = track(1, 0, 1.0, {1: m1, 2: m2})
    # st-IoU 8/12 against both; the first gt in input order takes it
    wide = track(5, 0, 0.9, {0: m0, 1: m1, 2: m2})
    exact_a = track(6, 0, 0.5, {0: m0, 1: m1})
    per_thr, _, _ = video_map([wide, exact_a], [gt_a, gt_b])
    assert per_thr[0.50] == pytest.approx(51 / 101)   # exact_a finds only gt_b free
    per_thr, _, _ = video_map([wide, exact_a], [gt_b, gt_a])
    assert per_thr[0.50] == 1.0


def test_id_metrics_perfect_coverage():
    gt = [track(0, 0, 1.0, {t: block(1, 4, 1, 4) for t in range(4)})]
    preds = [track(9, 0, 0.9, {t: block(1, 4, 1, 4) for t in range(4)})]
    acc, switches = id_metrics(preds, gt)
    assert acc == 1.0 and switches == 0


def test_id_metrics_swap_counts_switch():
    gt = [track(0, 0, 1.0, {t: block(1, 4, 1, 4) for t in range(4)})]
    preds = [track(1, 0, 0.9, {0: block(1, 4, 1, 4), 1: block(1, 4, 1, 4)}),
             track(2, 0, 0.9, {2: block(1, 4, 1, 4), 3: block(1, 4, 1, 4)})]
    acc, switches = id_metrics(preds, gt)
    assert switches >= 1
    assert acc == pytest.approx(0.5)


def test_id_metrics_crossing_fixture_hand_enumerated():
    # Objects A and B; predictions swap identities at the crossing (t=2).
    box_a = {0: block(0, 2, 0, 2), 1: block(0, 2, 1, 3),
             2: block(0, 2, 2, 4), 3: block(0, 2, 3, 5)}
    box_b = {0: block(3, 5, 3, 5), 1: block(3, 5, 2, 4),
             2: block(3, 5, 1, 3), 3: block(3, 5, 0, 2)}
    gt = [track(0, 0, 1.0, box_a), track(1, 0, 1.0, box_b)]
    p1 = {0: box_a[0], 1: box_a[1], 2: box_b[2], 3: box_b[3]}
    p2 = {0: box_b[0], 1: box_b[1], 2: box_a[2], 3: box_a[3]}
    preds = [track(1, 0, 0.9, p1), track(2, 0, 0.9, p2)]
    acc, switches = id_metrics(preds, gt)
    # hand enumeration: A covered by [1,1,2,2], B by [2,2,1,1]; main track for
    # each is id 1 (count tie, lower id); 2 correct frames per object
    assert acc == pytest.approx(0.5)
    assert switches == 2


def test_id_metrics_no_coverage_counts_incorrect():
    gt = [track(0, 0, 1.0, {0: block(0, 2, 0, 2), 1: block(0, 2, 0, 2)})]
    preds = [track(1, 0, 0.9, {0: block(0, 2, 0, 2)})]
    acc, _ = id_metrics(preds, gt)
    assert acc == pytest.approx(0.5)


def test_evaluate_report_shape_and_scenarios():
    gt = [track(0, 1, 1.0, {0: block(1, 4, 1, 4)})]
    preds = [track(9, 1, 0.9, {0: block(1, 4, 1, 4)})]
    report = ek.evaluate(preds, gt, scenarios={"easy": (preds, gt)})
    d = report.to_dict()
    assert d["mean_map"] == pytest.approx(1.0)
    assert "0.50" in d["map_per_threshold"]
    assert d["scenarios"]["easy"]["mean_map"] == pytest.approx(1.0)
    table = report.to_table()
    assert "video mAP" in table and "association accuracy" in table


def test_evaluate_forms_the_overlaps_once(monkeypatch):
    gt = [track(0, 1, 1.0, {0: block(1, 4, 1, 4), 1: block(2, 5, 2, 5)})]
    preds = [track(9, 1, 0.9, {0: block(1, 4, 1, 4)}),
             track(3, 2, 0.4, {1: block(0, 2, 0, 2)})]
    passes = []
    real = ek._overlaps

    def counted(p, g):
        passes.append(len(p))
        return real(p, g)

    monkeypatch.setattr(ek, "_overlaps", counted)
    want = report_oracle(preds, gt, ek.MAP_THRESHOLDS)
    assert ek.evaluate(preds, gt).to_dict() == want
    assert len(passes) == 1
    ek.evaluate(preds, gt, scenarios={"one": (preds[:1], gt)})
    assert passes[1:] == [2, 1]  # once for the pool, once for the scenario


def test_render_overlay_ppm():
    preds = [track(0, 0, 0.9, {0: block(0, 3, 0, 3)})]
    blob = ek.render_overlay_ppm(preds, frame=0, grid=6, scale=2)
    assert blob.startswith(b"P6\n12 12\n255\n")
    assert len(blob) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


def test_eval_tracks_from_memory_use_final_frame():
    class Rec:
        def __init__(self, t, active, scores, mask=None):
            self.t = t
            self.active = active
            self.scores = np.asarray(scores)
            self.mask = mask

    class Track:
        id = 3
        records = [
            Rec(0, True, [0.6, 0.2, 0.2], mask_of([(0, 0)])),
            Rec(1, False, [0.1, 0.2, 0.7]),
        ]

    out = ek.tracks_from_memory([Track()], num_classes=2)
    assert out[0].class_id == 1          # argmax over foreground only
    assert out[0].confidence == pytest.approx(0.2)
    assert list(out[0].masks) == [0]
