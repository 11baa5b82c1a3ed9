import numpy as np
import pytest

from trackgraph import assocgraph as ag
from trackgraph import numcore as nc
from trackgraph import synthworld as sw
from trackgraph import trackman as tm
from trackgraph.numcore import ParamStore, Tensor, grad_check

from oracles import mask_head_oracle


def small_config(**kw):
    base = dict(num_classes=3, embed_dim=8, appearance_dim=3, mask_grid=6,
                max_tracks=6, max_detections=5)
    base.update(kw)
    return ag.ModelConfig(**base)


def make_det(box, scores, appearance, grid=6, mask=None):
    scores = np.asarray(scores, dtype=np.float64)
    if mask is None:
        mask = sw.render_mask(box, grid)
    return sw.Detection(box=np.asarray(box, dtype=np.float64), scores=scores,
                        mask=mask, appearance=np.asarray(appearance, dtype=np.float64))


def one_hot(cls, num_classes=3):
    s = np.zeros(num_classes + 1)
    s[cls] = 1.0
    return s


def force_head(params, name, weight, bias):
    params[f"{name}/w"].data[...] = weight
    params[f"{name}/b"].data[...] = bias


def test_empty_memory_one_detection_spawns_track():
    config = small_config()
    model = tm.build_model(config, seed=0)
    # zero init head makes every init probability exactly 0.5 >= 0.13
    force_head(model.params, "init_head", 0.0, 0.0)
    det = make_det([0.5, 0.5, 0.2, 0.3], one_hot(1), [1.0, -2.0, 0.5])
    memory, out = tm.step([], [det], model, tm.Thresholds(), "infer", 0)
    assert len(memory) == 1
    track = memory[0]
    np.testing.assert_array_equal(memory.mu.data, [[1.0, -2.0, 0.5]])
    np.testing.assert_array_equal(memory.sigma.data, config.sigma0)
    assert track.birth_frame == 0 and track.active
    assert track.records[0].matched_detection == 0
    assert out.init_probs.data[0] == pytest.approx(0.5)


def test_init_threshold_modes():
    # p = 0.14 clears the 0.13 inference threshold but not the 0.31 training one.
    config = small_config()
    model = tm.build_model(config, seed=0)
    logit = np.log(0.14 / 0.86)
    force_head(model.params, "init_head", 0.0, logit)
    det = make_det([0.5, 0.5, 0.2, 0.3], one_hot(0), [0.0, 0.0, 1.0])
    mem_infer, _ = tm.step([], [det], model, tm.Thresholds(), "infer", 0)
    assert len(mem_infer) == 1
    mem_train, _ = tm.step([], [det], model, tm.Thresholds(), "train", 0)
    assert len(mem_train) == 0


def test_track_without_detections_goes_inactive_but_advances():
    config = small_config()
    model = tm.build_model(config, seed=1)
    force_head(model.params, "init_head", 0.0, 0.0)
    det = make_det([0.5, 0.5, 0.2, 0.3], one_hot(1), [1.0, 0.0, 0.0])
    memory, _ = tm.step([], [det], model, tm.Thresholds(), "infer", 0)
    y_before = memory.y.data.copy()
    sigma_before = memory.sigma.data.copy()
    memory, out = tm.step(memory, [], model, tm.Thresholds(), "infer", 1)
    track = memory[0]
    assert not track.active
    assert track.records[-1].box is None and track.records[-1].mask is None
    assert not np.array_equal(memory.y.data, y_before)
    np.testing.assert_array_equal(memory.sigma.data, sigma_before)
    assert len(memory) == 1


def test_best_match_argmax_and_tie_break():
    config = small_config()
    model = tm.build_model(config, seed=2)
    force_head(model.params, "init_head", 0.0, 0.0)  # p=0.5: spawn on frame 0
    det_a = make_det([0.5, 0.5, 0.2, 0.3], one_hot(1), [1.0, 0.0, 0.0])
    det_b = make_det([0.52, 0.5, 0.2, 0.3], one_hot(1), [1.0, 0.0, 0.0])
    memory, _ = tm.step([], [det_a], model, tm.Thresholds(), "infer", 0)
    assert len(memory) == 1

    # zero-weight head with bias 5 ties every pair at sigmoid(5); the lowest
    # detection index must win the argmax
    force_head(model.params, "init_head", 0.0, -50.0)  # no further births
    force_head(model.params, "match_head", 0.0, 5.0)
    memory, out = tm.step(memory, [det_a, det_b], model, tm.Thresholds(), "infer", 1)
    assert memory[0].records[-1].matched_detection == 0
    p = out.match_probs.data
    assert p.shape == (1, 2)
    assert p[0, 0] == p[0, 1] == pytest.approx(1 / (1 + np.exp(-5.0)))


def test_match_probabilities_drive_box_adoption():
    config = small_config()
    model = tm.build_model(config, seed=3)
    force_head(model.params, "init_head", 0.0, 0.0)
    force_head(model.params, "match_head", 0.0, 5.0)  # always match
    start = make_det([0.3, 0.3, 0.2, 0.2], one_hot(0), [0.5, 0.5, 0.5])
    moved = make_det([0.35, 0.3, 0.2, 0.2], one_hot(0), [0.5, 0.5, 0.5])
    memory, _ = tm.step([], [start], model, tm.Thresholds(), "infer", 0)
    force_head(model.params, "init_head", 0.0, -50.0)
    memory, _ = tm.step(memory, [moved], model, tm.Thresholds(), "infer", 1)
    assert len(memory) == 1
    np.testing.assert_array_equal(memory[0].last_box, moved.box)
    np.testing.assert_array_equal(memory[0].records[-1].box, moved.box)


def test_track_ids_stable_and_memory_monotone():
    config = small_config()
    model = tm.build_model(config, seed=4)
    force_head(model.params, "init_head", 0.0, 0.0)  # p=0.5: births every frame
    rng = np.random.default_rng(0)
    memory = []
    sizes = []
    for t in range(5):
        dets = [make_det([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.2, 0.2],
                         one_hot(int(rng.integers(0, 3))), rng.normal(size=3))]
        memory, _ = tm.step(memory, dets, model, tm.Thresholds(), "infer", t)
        sizes.append(len(memory))
        ids = [tr.id for tr in memory]
        assert len(ids) == len(set(ids))
    assert sizes == sorted(sizes)


def test_capacity_refuses_births():
    config = small_config(max_tracks=2)
    model = tm.build_model(config, seed=5)
    force_head(model.params, "init_head", 0.0, 50.0)  # init everything
    dets = [make_det([0.2 + 0.15 * i, 0.5, 0.1, 0.1], one_hot(0),
                     np.full(3, float(i))) for i in range(4)]
    memory, _ = tm.step([], dets, model, tm.Thresholds(), "infer", 0)
    assert len(memory) == 2


def test_detection_truncation_keeps_best():
    config = small_config(max_detections=3)
    model = tm.build_model(config, seed=6)
    force_head(model.params, "init_head", 0.0, 50.0)
    dets = []
    for i in range(5):
        scores = np.zeros(4)
        scores[0] = 0.2 + 0.15 * i
        scores[3] = 1.0 - scores[0]
        dets.append(make_det([0.1 + 0.15 * i, 0.5, 0.1, 0.1], scores,
                             np.full(3, float(i))))
    memory, out = tm.step([], dets, model, tm.Thresholds(), "infer", 0)
    assert out.num_dets == 3
    kept = {d.appearance[0] for d in out.detections}
    assert kept == {2.0, 3.0, 4.0}


def test_active_tracks_report_exactly_one_box():
    config = small_config()
    model = tm.build_model(config, seed=7)
    force_head(model.params, "init_head", 0.0, 0.0)
    gt = sw.generate_sequence(sw.WorldConfig(
        seed=8, max_objects=3, frames=6, num_classes=3, appearance_dim=3,
        mask_grid=6))
    det = sw.corrupt(gt, sw.NoiseConfig(miss_prob=0.2), seed=9)
    memory, outputs = tm.run_sequence(det.frames, model)
    for track in memory:
        seen = {}
        for r in track.records:
            assert (r.box is not None) == r.active
            assert (r.mask is not None) == r.active
            assert abs(r.scores.sum() - 1.0) < 1e-9
            assert r.t not in seen
            seen[r.t] = True


def test_run_sequence_under_tape_replays_bit_exactly():
    config = small_config()
    model = tm.build_model(config, seed=9)
    force_head(model.params, "init_head", 0.0, 0.0)  # births on the first frame
    gt = sw.generate_sequence(sw.WorldConfig(
        seed=12, max_objects=3, frames=3, num_classes=3, appearance_dim=3,
        mask_grid=6, exit_prob=0.0, entry_window=1))
    det = sw.corrupt(gt, sw.NoiseConfig(box_jitter=0.01, appearance_noise=0.1), seed=13)
    with nc.Tape() as tape:
        memory, outputs = tm.run_sequence(det.frames, model, mode="train")
    assert len(memory) > 0 and outputs[-1].num_tracks > 0
    ops = {node.op for node in tape.nodes}
    assert {"affine", "gather", "slot_sum", "im2col3x3", "tap_sum3x3"} <= ops
    tape.replay()


def test_memory_rows_stay_aligned_with_track_table():
    config = small_config()
    model = tm.build_model(config, seed=4)
    force_head(model.params, "init_head", 0.0, 0.0)  # p=0.5: births every frame
    force_head(model.params, "match_head", 0.0, 5.0)  # and every track matches
    rng = np.random.default_rng(3)
    memory = []
    for t in range(4):
        dets = [make_det([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.2, 0.2],
                         one_hot(int(rng.integers(0, 3))), rng.normal(size=3))
                for _ in range(2)]
        before = len(memory)
        memory, out = tm.step(memory, dets, model, tm.Thresholds(), "infer", t)
        rows = len(memory)
        assert rows == before + len(out.born)
        assert memory.y.shape == memory.c.shape == (rows, config.embed_dim)
        assert memory.mu.shape == memory.sigma.shape == (rows, config.appearance_dim)
        assert out.scores.shape == (rows, config.num_classes + 1)
        assert [tr.id for tr in memory] == list(range(rows))
        assert all(a is b for a, b in zip(memory.tracks, out.track_rows + out.born))
        for row, track in enumerate(memory):
            rec = track.records[-1]
            np.testing.assert_array_equal(rec.scores, out.scores.data[row])
            if track.birth_frame == t:
                # a newborn's row is its initializing detection's Gaussian
                j = rec.matched_detection
                np.testing.assert_array_equal(memory.mu.data[row], dets[j].appearance)
                np.testing.assert_array_equal(memory.sigma.data[row], config.sigma0)
                np.testing.assert_array_equal(memory.c.data[row], 0.0)
            elif rec.active:
                # a matched track's mean moved toward its detection
                x = dets[rec.matched_detection].appearance
                assert np.all(np.abs(memory.mu.data[row] - x) <= np.abs(mu_prev[row] - x))
        mu_prev = memory.mu.data.copy()


def test_step_infer_deterministic():
    config = small_config()
    model = tm.build_model(config, seed=10)
    gt = sw.generate_sequence(sw.WorldConfig(
        seed=11, max_objects=3, frames=5, num_classes=3, appearance_dim=3,
        mask_grid=6))
    det = sw.corrupt(gt, sw.NoiseConfig(miss_prob=0.1, false_positive_rate=0.5),
                     seed=12)

    def run():
        memory, _ = tm.run_sequence(det.frames, model)
        return tm.tracks_to_json(memory, 5)

    assert run() == run()


def test_score_tracks_uniform_at_zero_params():
    config = small_config()
    params = ParamStore()
    params.add("score_head/w", np.zeros((4, 8)))
    params.add("score_head/b", np.zeros(4))
    dist = tm.score_tracks(Tensor(np.random.default_rng(0).normal(size=(3, 8))),
                           params)
    np.testing.assert_allclose(dist.data, 0.25, atol=1e-12)
    np.testing.assert_allclose(dist.data.sum(axis=1), 1.0, atol=1e-12)


def test_score_head_gradients():
    rng = np.random.default_rng(1)
    params = ParamStore()
    params.add("score_head/w", rng.normal(size=(4, 6)) * 0.5)
    params.add("score_head/b", rng.uniform(-0.2, 0.2, size=4))
    emb = Tensor(rng.normal(size=(2, 6)))
    probe = Tensor(rng.normal(size=(2, 4)))

    def fn(p):
        return nc.reshape(nc.tsum(tm.score_tracks(emb, p) * probe), ())

    assert grad_check(fn, params, epsilon=1e-5) < 1e-6


def test_score_tracks_average_heuristic():
    conf, cls = tm.score_tracks_average([0.8, 0.6], [2, 2, 0])
    assert conf == pytest.approx(0.7)
    assert cls == 2


def test_association_linear_perfect_pair_ranks_top():
    perfect = tm.association_linear([1.0, 1.0, 1.0, 1.0])
    assert perfect == pytest.approx(4.0)
    partial = tm.association_linear([0.3, 0.2, 0.0, 0.9])
    assert perfect > partial


def test_greedy_assignment_one_to_one():
    scores = np.array([[3.0, 2.5], [2.9, 1.0]])
    out = tm.greedy_assignment(scores, cutoff=0.0)
    assert out == {0: 0, 1: 1}
    # cutoff removes weak pairs
    out2 = tm.greedy_assignment(scores, cutoff=2.95)
    assert out2 == {0: 0}


def test_reweight_single_track_positive_logits():
    config = small_config()
    model = tm.build_model(config, seed=13)
    params = model.params
    for name in ("mask_head/proj/w", "mask_head/proj/b", "mask_head/conv1/w",
                 "mask_head/conv1/b", "mask_head/conv2/w"):
        params[name].data[...] = 0.0
    params["mask_head/conv2/b"].data[...] = 10.0  # strong positive everywhere

    mask = np.zeros((6, 6), dtype=np.uint8)
    mask[2:4, 2:4] = 1
    emb = Tensor(np.zeros((1, config.embed_dim)))
    inst, logits = tm.reweight_masks(emb, [mask], [[0.5, 0.5, 0.3, 0.3]], params, 6)
    # positive logits everywhere: the single track claims every pixel
    assert np.all(inst == 1)


def test_reweight_zero_params_ties_to_background():
    config = small_config()
    model = tm.build_model(config, seed=14)
    for name in model.params.names():
        if name.startswith("mask_head"):
            model.params[name].data[...] = 0.0

    mask = np.ones((6, 6), dtype=np.uint8)
    inst, logits = tm.reweight_masks(Tensor(np.zeros((1, 8))), [mask],
                                     [[0.5, 0.5, 0.5, 0.5]], model.params, 6)
    assert np.all(inst == 0)
    np.testing.assert_array_equal(logits.data[1], 0.0)


def test_reweight_contested_pixels_to_higher_logit():
    # Oracle: direct per-pixel argmax over hand-built logit maps.
    config = small_config()
    model = tm.build_model(config, seed=15)
    params = model.params
    for name in params.names():
        if name.startswith("mask_head"):
            params[name].data[...] = 0.0
    # conv2 bias 0; conv1 zero: logits come only from conv2 reading zeros -> 0.
    # instead drive conv2 weight on the mask channel of conv1's output: simpler
    # to hand-set proj so embedding drives a constant difference per track.
    params["mask_head/conv2/w"].data[0, :] = 0.0
    params["mask_head/proj/w"].data[...] = 0.0
    params["mask_head/proj/b"].data[...] = 0.0
    # route: conv1 identity-ish on channel 16 (the mask channel)
    params["mask_head/conv1/w"].data[0, 16 * 9 + 4] = 1.0  # center tap of mask chan
    params["mask_head/conv2/w"].data[0, 0 * 9 + 4] = 1.0   # center tap of chan 0
    maskA = np.zeros((6, 6), dtype=np.uint8)
    maskA[1:4, 1:4] = 1
    maskB = np.zeros((6, 6), dtype=np.uint8)
    maskB[2:6, 2:6] = 1

    inst, logits = tm.reweight_masks(Tensor(np.zeros((2, 8))), [maskA, maskB * 2.0],
                                     [[0.4, 0.4, 0.4, 0.4], [0.6, 0.6, 0.6, 0.6]],
                                     params, 6)
    stack = logits.data
    oracle = np.argmax(stack, axis=0)
    np.testing.assert_array_equal(inst, oracle)
    # contested region (2..3, 2..3): B's mask value 2 beats A's 1
    assert np.all(inst[2:4, 2:4] == 2)


@pytest.mark.parametrize("k,grid", [(1, 5), (3, 6)])
def test_reweight_masks_matches_two_conv_oracle(k, grid):
    # Small grids, where border pixels (partial 3x3 windows) dominate.
    config = small_config(mask_grid=grid)
    model = tm.build_model(config, seed=21 + k)
    rng = np.random.default_rng(k)
    for name, t in model.params.items():
        if name.startswith("mask_head") and name.endswith("/b"):
            t.data[...] = rng.normal(scale=0.2, size=t.shape)
    emb = rng.normal(size=(k, config.embed_dim))
    masks = [(rng.random((grid, grid)) < 0.4).astype(np.uint8) for _ in range(k)]
    boxes = [rng.uniform(0.2, 0.7, size=4) for _ in range(k)]
    inst, stack = tm.reweight_masks(Tensor(emb), masks, boxes, model.params, grid)
    want_logits, want_map = mask_head_oracle(
        {n: t.data for n, t in model.params.items() if n.startswith("mask_head")},
        emb, masks, boxes, grid)
    assert stack.shape == (k + 1, grid, grid)
    np.testing.assert_array_equal(stack.data[0], 0.0)
    np.testing.assert_allclose(stack.data[1:], want_logits, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(inst, want_map)


def _mask_head_inputs(k, grid, seed):
    rng = np.random.default_rng(seed)
    masks = [(rng.random((grid, grid)) < 0.4).astype(np.uint8) for _ in range(k)]
    boxes = [rng.uniform(0.2, 0.7, size=4) for _ in range(k)]
    return rng, masks, boxes


def test_mask_head_gradients_match_finite_differences():
    k, grid = 3, 5
    config = small_config(embed_dim=4, mask_grid=grid)
    model = tm.build_model(config, seed=40)
    rng, masks, boxes = _mask_head_inputs(k, grid, seed=41)
    store = ParamStore()
    for name, t in model.params.items():
        if name.startswith("mask_head"):
            store.add(name, t.data + (rng.normal(scale=0.2, size=t.shape)
                                      if name.endswith("/b") else 0.0))
    store.add("embeddings", rng.normal(size=(k, config.embed_dim)))
    probe = Tensor(rng.normal(size=(k + 1, grid, grid)))

    def fn(p):
        _, stack = tm.reweight_masks(p["embeddings"], masks, boxes, p, grid)
        return nc.reshape(nc.tsum(stack * probe), ())

    assert grad_check(fn, store, epsilon=1e-6) < 1e-6


def test_mask_head_builds_no_grid_constant_on_the_tape():
    k, grid = 2, 10  # K*G*G*18 exceeds every parameter's size
    config = small_config(mask_grid=grid)
    model = tm.build_model(config, seed=42)
    rng, masks, boxes = _mask_head_inputs(k, grid, seed=43)
    with nc.Tape() as tape:
        tm.reweight_masks(Tensor(rng.normal(size=(k, config.embed_dim))), masks,
                          boxes, model.params, grid)
    for node in tape.nodes:
        if node.op == "im2col3x3":
            assert not np.all(node.inputs[0].data == 1.0)
        for t in node.inputs + (node.output,):
            assert t.size <= k * grid * grid * 18, (node.op, t.shape)


def test_pixel_ownership_unique():
    config = small_config()
    model = tm.build_model(config, seed=16)
    force_head(model.params, "init_head", 0.0, 0.0)
    gt = sw.crossing_sequence(sw.WorldConfig(
        seed=17, max_objects=2, frames=6, num_classes=3, appearance_dim=3,
        mask_grid=6))
    det = sw.corrupt(gt, sw.NoiseConfig(), seed=18)
    memory, outputs = tm.run_sequence(det.frames, model)
    for out in outputs:
        if out.instance_map is None:
            continue
        masks = [t.records[-1].mask for t in out.seg_tracks
                 if t.records[-1].mask is not None]
        if len(masks) > 1:
            total = np.sum(masks, axis=0)
            assert np.all(total <= 1)


def test_heuristic_association_assignment():
    config = small_config(heuristic_association=True)
    model = tm.build_model(config, seed=19)
    det0 = make_det([0.3, 0.5, 0.2, 0.2], one_hot(1), [1.0, 0.0, 0.0])
    memory, _ = tm.step([], [det0], model, tm.Thresholds(), "infer", 0)
    assert len(memory) == 1  # hard init: unassigned detection spawns
    # same place, same class, same appearance: should assign to the track
    det1 = make_det([0.31, 0.5, 0.2, 0.2], one_hot(1), [1.0, 0.0, 0.0])
    far = make_det([0.8, 0.1, 0.1, 0.1], one_hot(2), [-1.0, 0.5, 0.0])
    memory, out = tm.step(memory, [det1, far], model, tm.Thresholds(), "infer", 1)
    track = memory[0]
    assert track.records[-1].active
    assert track.records[-1].matched_detection == 0
    # the far, unmatched detection initialized a new track (hard rule)
    assert len(memory) == 2
    assert out.init_probs.data[1] == 1.0 and out.init_probs.data[0] == 0.0


def test_all_ablation_flags_preserve_invariants():
    config = small_config(limited_gnn=True, heuristic_association=True,
                          heuristic_scoring=True)
    model = tm.build_model(config, seed=20)
    gt = sw.generate_sequence(sw.WorldConfig(
        seed=21, max_objects=3, frames=6, num_classes=3, appearance_dim=3,
        mask_grid=6))
    det = sw.corrupt(gt, sw.NoiseConfig(miss_prob=0.2, false_positive_rate=0.5),
                     seed=22)
    memory, outputs = tm.run_sequence(det.frames, model)
    ids = [t.id for t in memory]
    assert len(ids) == len(set(ids))
    for track in memory:
        for r in track.records:
            assert (r.box is not None) == r.active
            assert abs(r.scores.sum() - 1.0) < 1e-9
    for out in outputs:
        masks = [t.records[-1].mask for t in out.seg_tracks
                 if t.records and t.records[-1].mask is not None]
        if len(masks) > 1:
            assert np.all(np.sum(masks, axis=0) <= 1)


def test_simple_gate_mode_runs():
    config = small_config(gate_mode="simple")
    model = tm.build_model(config, seed=23)
    gt = sw.generate_sequence(sw.WorldConfig(
        seed=24, max_objects=2, frames=5, num_classes=3, appearance_dim=3,
        mask_grid=6))
    det = sw.corrupt(gt, sw.NoiseConfig(), seed=25)
    memory, _ = tm.run_sequence(det.frames, model)
    assert np.all(np.abs(memory.y.data) < 1.0)


def test_tracks_to_json_schema():
    config = small_config()
    model = tm.build_model(config, seed=26)
    force_head(model.params, "init_head", 0.0, 0.0)
    det = make_det([0.5, 0.5, 0.2, 0.2], one_hot(0), [0.0, 1.0, 0.0])
    memory, _ = tm.step([], [det], model, tm.Thresholds(), "infer", 0)
    blob = tm.tracks_to_json(memory, 1)
    assert blob["num_frames"] == 1
    track = blob["tracks"][0]
    assert set(track) == {"id", "birth_frame", "frames"}
    frame = track["frames"][0]
    assert frame["active"] and "box" in frame and "mask" in frame
    assert len(frame["scores"]) == 4
