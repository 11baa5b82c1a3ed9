import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from trackgraph import assocgraph as ag
from trackgraph import cli
from trackgraph import learn
from trackgraph import numcore as nc
from trackgraph import synthworld as sw
from trackgraph import trackman as tm
from trackgraph.numcore import Tensor

from oracles import (gnn_forward_eager, iou, joint_tape_train, lovasz_softmax_frame_loop,
                     unroll_targets_oracle)


def box_frame(*boxes):
    """A frame of detections that differ only in their boxes."""
    n = len(boxes)
    return sw.DetectionFrame.stack(
        [boxes, np.full((n, 4), 0.25), np.zeros((n, 3)), np.zeros((n, 6, 6)), [None] * n],
        ((4,), (4,), (3,), (6, 6)))


def small_config(**kw):
    base = dict(num_classes=3, embed_dim=8, appearance_dim=3, mask_grid=6,
                max_tracks=6, max_detections=5)
    base.update(kw)
    return ag.ModelConfig(**base)


def small_world(seed=0, frames=6, objects=2, grid=6):
    return sw.WorldConfig(seed=seed, frames=frames, max_objects=objects,
                          num_classes=3, appearance_dim=3, mask_grid=grid,
                          exit_prob=0.0, entry_window=1)


# ---------------------------------------------------------------------------
# target assignment


def test_assign_iou_above_threshold():
    gt = [[0.5, 0.5, 0.2, 0.2]]
    # a detection with IoU exactly 0.6: nested box, area ratio 0.6
    frame = box_frame([0.5, 0.5, 0.2, 0.2 * 0.6])
    assert iou(gt[0], frame.boxes[0]) == pytest.approx(0.6)
    assert learn.assign_targets(frame, gt).tolist() == [0]


def test_assign_iou_below_threshold():
    gt = [[0.5, 0.5, 0.2, 0.2]]
    frame = box_frame([0.5, 0.5, 0.2, 0.2 * 0.4])
    assert iou(gt[0], frame.boxes[0]) == pytest.approx(0.4)
    assert learn.assign_targets(frame, gt).tolist() == [-1]


def test_assign_best_detection_wins():
    gt = [[0.5, 0.5, 0.2, 0.2]]
    frame = box_frame([0.5, 0.5, 0.2, 0.2 * 0.6], [0.5, 0.5, 0.2, 0.2 * 0.7])
    assert learn.assign_targets(frame, gt).tolist() == [-1, 0]


def test_assign_one_to_one_across_objects():
    gt = [[0.3, 0.5, 0.2, 0.2], [0.32, 0.5, 0.2, 0.2]]
    frame = box_frame([0.3, 0.5, 0.2, 0.2], [0.32, 0.5, 0.2, 0.2])
    assert learn.assign_targets(frame, gt).tolist() == [0, 1]


def test_assign_without_ground_truth_is_all_background():
    frame = box_frame([0.3, 0.5, 0.2, 0.2], [0.6, 0.5, 0.2, 0.2])
    assert learn.assign_targets(frame, np.zeros((0, 4))).tolist() == [-1, -1]


def test_assign_empty_frame():
    labels = learn.assign_targets(box_frame(), [[0.3, 0.5, 0.2, 0.2]])
    assert labels.shape == (0,) and labels.dtype.kind == "i"


# ---------------------------------------------------------------------------
# score loss


def test_ramp_weights_sum_to_one():
    for T in (1, 5, 10):
        w = learn.ramp_weights(T)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(w) > 0) or T == 1


def test_loss_score_perfect_predictions_near_zero():
    scores = Tensor([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    frames = [(scores, [1, 2]) for _ in range(4)]
    out = learn.loss_score(frames, seq_len=4)
    assert out.item() < 1e-6


def test_loss_score_uniform_is_log5_per_weighted_frame():
    scores = Tensor(np.full((1, 5), 0.2))
    frames = [(scores, [0]) for _ in range(3)]
    out = learn.loss_score(frames, seq_len=3)
    # ramp weights sum to 1, one track per frame -> exactly ln 5
    assert out.item() == pytest.approx(math.log(5.0), abs=1e-10)


def test_loss_score_later_frames_weigh_more():
    good = Tensor([[1.0, 0.0]])
    bad = Tensor([[0.0, 1.0]])
    early_bad = learn.loss_score([(bad, [0]), (good, [0])], seq_len=2)
    late_bad = learn.loss_score([(good, [0]), (bad, [0])], seq_len=2)
    assert late_bad.item() > early_bad.item()


# ---------------------------------------------------------------------------
# binary cross-entropy losses


def test_loss_bce_extremes_near_zero():
    probs = Tensor(np.array([[1.0, 0.0]]))
    targets = np.array([[1.0, 0.0]])
    out = learn.loss_bce([(probs, targets)], seq_len=1)
    assert out.item() < 1e-5


def test_loss_bce_half_probability_count():
    k = 6
    probs = Tensor(np.full((2, 3), 0.5))
    targets = np.zeros((2, 3))
    for T in (1, 4):
        out = learn.loss_bce([(probs, targets)], seq_len=T)
        assert out.item() == pytest.approx(k * math.log(2.0) / T, rel=1e-12)


def test_loss_bce_false_positives_do_not_dilute():
    # Independent-oracle comparison: adding pure false-positive pairs adds
    # exactly their own BCE; the true pairs' contribution is untouched.
    p_true = 0.8
    probs_a = Tensor(np.array([[p_true]]))
    loss_a = learn.loss_bce([(probs_a, np.array([[1.0]]))], seq_len=1)
    probs_b = Tensor(np.array([[p_true, 0.1, 0.1]]))
    targets_b = np.array([[1.0, 0.0, 0.0]])
    loss_b = learn.loss_bce([(probs_b, targets_b)], seq_len=1)
    fp_only = -2 * math.log(1 - 0.1)
    assert loss_b.item() == pytest.approx(loss_a.item() + fp_only, rel=1e-10)
    assert loss_b.item() > loss_a.item()


def test_bce_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    store = nc.ParamStore()
    store.add("logits", rng.normal(size=(2, 3)))
    targets = rng.integers(0, 2, size=(2, 3)).astype(np.float64)

    def fn(p):
        probs = nc.sigmoid(p["logits"])
        return learn.bce_sum(probs, targets)

    assert nc.grad_check(fn, store, epsilon=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# Lovasz segmentation loss


def jaccard_oracle(pred: np.ndarray, gt: np.ndarray) -> float:
    inter = np.logical_and(pred, gt).sum()
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return inter / union


def binary_logits(pred: np.ndarray, scale=40.0) -> Tensor:
    fg = np.where(pred > 0, scale, -scale)
    return Tensor(np.stack([np.zeros_like(fg), fg]))


def test_lovasz_equals_one_minus_jaccard_on_all_corners():
    rng = np.random.default_rng(1)
    for code in range(512):
        gt = np.array([(code >> i) & 1 for i in range(9)]).reshape(3, 3)
        preds = [gt, 1 - gt, np.zeros((3, 3), int), np.ones((3, 3), int),
                 rng.integers(0, 2, size=(3, 3))]
        for pred in preds:
            loss = learn.lovasz_softmax_frame(binary_logits(pred), gt).item()
            assert abs(loss - (1.0 - jaccard_oracle(pred, gt))) < 1e-10


def test_lovasz_perfect_saturated_prediction():
    gt = np.zeros((4, 4), int)
    gt[1:3, 1:3] = 1
    loss = learn.lovasz_softmax_frame(binary_logits(gt), gt).item()
    assert loss < 1e-10


def test_lovasz_all_background_prediction_in_unit_interval():
    gt = np.zeros((3, 3), int)
    gt[0, 0] = 1
    pred = np.zeros((3, 3), int)
    loss = learn.lovasz_softmax_frame(binary_logits(pred), gt).item()
    assert 0.0 < loss <= 1.0


def test_lovasz_multiclass_range_and_gradients():
    rng = np.random.default_rng(2)
    store = nc.ParamStore()
    store.add("logits", rng.normal(size=(3, 4, 4)))
    labels = rng.integers(0, 3, size=(4, 4))

    def fn(p):
        return learn.lovasz_softmax_frame(p["logits"], labels)

    val = fn(store).item()
    assert 0.0 <= val <= 1.0
    assert nc.grad_check(fn, store, epsilon=1e-5) < 1e-4


@pytest.mark.parametrize("k", [0, 1, 5])
def test_lovasz_rows_in_one_pass_match_class_loop_bit_for_bit(k):
    rng = np.random.default_rng(30 + k)
    labels = rng.integers(0, k + 1, size=(6, 6))
    # rounded logits give tied errors, so the stable sort order matters too
    data = np.round(rng.normal(size=(k + 1, 6, 6)), 1)
    results = []
    for fn in (learn.lovasz_softmax_frame, lovasz_softmax_frame_loop):
        logits = Tensor(data.copy())
        with nc.Tape() as tape:
            loss = fn(logits, labels)
        if k:
            nc.backward(tape, loss)
        results.append((loss.data, logits.grad))
    (l_vec, g_vec), (l_loop, g_loop) = results
    assert l_vec.shape == () and np.array_equal(l_vec, l_loop)
    np.testing.assert_array_equal(g_vec, g_loop)


def test_lovasz_error_map_is_the_two_term_form_bit_for_bit():
    # lovasz_softmax_frame writes fg*(1-p) + (1-fg)*p, the form the class-loop
    # oracle keeps, as p * (1 - 2fg) + fg: one mul and one add.
    rng = np.random.default_rng(8)
    p_data = rng.random((4, 50))
    p_data[:, :4] = [0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53]
    fg = (rng.random((4, 50)) < 0.5).astype(np.float64)
    fg[:, :4] = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0]]
    probe = Tensor(rng.normal(size=(4, 50)))
    runs = []
    for form in (lambda p: p * Tensor(1.0 - 2.0 * fg) + Tensor(fg),
                 lambda p: Tensor(fg) * (1.0 - p) + Tensor(1.0 - fg) * p):
        p = Tensor(p_data.copy())
        with nc.Tape() as tape:
            errors = form(p)
            out = nc.tsum(errors * probe)
        nc.backward(tape, out)
        runs.append([errors.data, p.grad])
    for a, b in zip(*runs):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_zeros():
    zero = Tensor(0.0)
    total, bd = learn.total_loss(zero, zero, zero, zero, learn.LossConfig())
    assert total.item() == 0.0 and bd.total == 0.0


def test_total_loss_weights():
    one = Tensor(1.0)
    total, bd = learn.total_loss(one, one, one, one, learn.LossConfig())
    assert total.item() == pytest.approx(7.0)
    assert bd.match == 1.0


def test_loss_config_rejects_negative_lambda():
    with pytest.raises(ValueError):
        learn.LossConfig(lambdas=(1, -1, 1, 1))


# ---------------------------------------------------------------------------
# unrolled sequences and training


def build_dataset(world_seeds, noise=None, crossing=False, grid=6):
    data = []
    noise = noise or sw.NoiseConfig(miss_prob=0.05, class_temperature=0.25,
                                    box_jitter=0.005, appearance_noise=0.05,
                                    false_positive_rate=0.3)
    for s in world_seeds:
        cfg = small_world(seed=s, grid=grid)
        gt = (sw.crossing_sequence(cfg) if crossing else sw.generate_sequence(cfg))
        det = sw.corrupt(gt, noise, seed=s + 5000)
        data.append((det.frames, gt))
    return data


def test_unroll_sequence_identities_and_targets():
    config = small_config()
    model = tm.build_model(config, seed=0)
    model.params["init_head/b"].data[...] = 2.0  # births everywhere
    gt = sw.generate_sequence(small_world(seed=3))
    det = sw.corrupt(gt, sw.NoiseConfig(), seed=4)
    parts = learn.unroll_sequence(model, det.frames, gt, tm.Thresholds(), mode="train")
    for key in ("score", "seg", "match", "init"):
        v = parts[key].item()
        assert np.isfinite(v) and v >= 0.0
    # tracks were born and carry gt identities via their init detections
    assert len(parts["memory"]) >= len(gt)


LOSS_KEYS = ("score", "seg", "match", "init")


def unrolled_losses(unroll, model, det_frames, gt):
    parts = unroll(model, det_frames, gt, tm.Thresholds(), mode="train")
    return [parts[key].item() for key in LOSS_KEYS]


# births everywhere or through the learned head; misses, false positives and
# duplicate detections; objects entering and leaving
TARGET_STREAMS = [
    (seed, births, sw.NoiseConfig(miss_prob=0.15, false_positive_rate=0.6,
                                  duplicate_prob=0.3, box_jitter=0.01,
                                  class_temperature=0.3))
    for seed, births in ((3, True), (4, False), (5, True), (6, False))]


def target_stream(seed, births, noise, **model_kw):
    model = tm.build_model(small_config(max_tracks=12, **model_kw), seed=seed)
    if births:
        model.params["init_head/b"].data[...] = 2.0
    world = sw.WorldConfig(seed=seed, frames=8, max_objects=4, num_classes=3,
                           appearance_dim=3, mask_grid=6, entry_window=4, exit_prob=0.1)
    gt = sw.generate_sequence(world)
    return model, sw.corrupt(gt, noise, seed=seed + 50).frames, gt


@pytest.mark.parametrize("model_kw", [{}, {"heuristic_association": True}],
                         ids=["default", "heuristic_association"])
@pytest.mark.parametrize("seed,births,noise", TARGET_STREAMS,
                         ids=[f"seed{s}" for s, _, _ in TARGET_STREAMS])
def test_unroll_targets_match_per_track_oracle_bit_for_bit(seed, births, noise, model_kw):
    model, det_frames, gt = target_stream(seed, births, noise, **model_kw)
    got = unrolled_losses(learn.unroll_sequence, model, det_frames, gt)
    assert got == unrolled_losses(unroll_targets_oracle, model, det_frames, gt)


def test_unroll_losses_depend_only_on_gt_id_order():
    model, det_frames, gt = target_stream(*TARGET_STREAMS[0])
    relabeled = dataclasses.replace(gt, ids=3 * gt.ids - 5)
    assert relabeled.ids.min() < -1
    assert (unrolled_losses(learn.unroll_sequence, model, det_frames, relabeled)
            == unrolled_losses(learn.unroll_sequence, model, det_frames, gt))


def test_sequence_without_ground_truth_objects_trains():
    model = tm.build_model(small_config(), seed=2)
    model.params["init_head/b"].data[...] = 2.0  # births from false positives
    gt = sw.generate_sequence(sw.WorldConfig(seed=2, frames=5, max_objects=0, num_classes=3,
                                             appearance_dim=3, mask_grid=6))
    assert len(gt) == 0
    det = sw.corrupt(gt, sw.NoiseConfig(false_positive_rate=2.0), seed=9)
    assert any(len(f) for f in det.frames) and not all(len(f) for f in det.frames)
    curve = learn.train([(det.frames, gt)], model,
                        learn.TrainConfig(iterations=2, batch_size=1, seed=0))
    assert all(np.isfinite([b.score, b.seg, b.match, b.init, b.total]).all()
               for b in curve)


def test_one_adam_step_descends_on_fixed_batch():
    config = small_config()
    model = tm.build_model(config, seed=1)
    data = build_dataset([11])
    det_frames, gt = data[0]

    def batch_loss():
        with nc.Tape() as tape:
            total, _ = learn.sequence_loss(model, det_frames, gt,
                                           learn.LossConfig(), tm.Thresholds())
        return total, tape

    total0, tape = batch_loss()
    grads = nc.backward(tape, total0, model.params)
    state = nc.AdamState(model.params)
    nc.adam_step(model.params, grads, state, lr=1e-4, weight_decay=0.0)
    total1, _ = batch_loss()
    assert total1.item() < total0.item()


def test_training_reproducible():
    def run():
        config = small_config()
        model = tm.build_model(config, seed=2)
        data = build_dataset([21, 22])
        curve = learn.train(data, model, learn.TrainConfig(
            iterations=5, batch_size=1, lr=1e-3, seed=9))
        return [b.total for b in curve], model.params.flat_values()

    c1, p1 = run()
    c2, p2 = run()
    assert c1 == c2
    np.testing.assert_array_equal(p1, p2)


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_per_sequence_sweeps_match_joint_tape_bit_for_bit(batch_size):
    data = build_dataset([51, 52, 53, 54, 55, 56])
    config = learn.TrainConfig(iterations=2, batch_size=batch_size, lr=1e-3, seed=2)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):  # seed 2 draws distinct sequences
        assert len(set(rng.integers(0, len(data), size=batch_size))) == batch_size
    model = tm.build_model(small_config(), seed=5)
    joint = tm.build_model(small_config(), seed=5)
    assert learn.train(data, model, config) == joint_tape_train(data, joint, config)
    for name, t in model.params.items():
        np.testing.assert_array_equal(t.grad, joint.params[name].grad, err_msg=name)
        np.testing.assert_array_equal(t.data, joint.params[name].data, err_msg=name)


def test_training_peak_memory_does_not_grow_with_batch_size():
    # one sequence, so a batch of 4 repeats it: only the tapes held at once
    # can make its iteration peak above batch 1's
    data = build_dataset([61])
    peaks = {}
    for batch_size in (1, 4):
        model = tm.build_model(small_config(), seed=7)
        tracemalloc.start()
        try:
            learn.train(data, model, learn.TrainConfig(iterations=1, batch_size=batch_size))
            peaks[batch_size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] < 1.25 * peaks[1], peaks


def tape_buffer_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape keeps alive: every node's inputs,
    output and array aux (also the arrays in a tuple or list aux), a view
    counted once through its base."""
    held = {}
    for node in tape.nodes:
        aux = node.aux if isinstance(node.aux, (tuple, list)) else (node.aux,)
        arrays = ([t.data for t in node.inputs] + [node.output.data]
                  + [a for a in aux if isinstance(a, np.ndarray)])
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            held[id(a)] = a.nbytes
    return sum(held.values())


# distinct-buffer bytes of the test's tape once the mask head's two
# convolutions are one node that recomputes its hidden activations in the
# backward (816,360 while conv1 and conv2 were two nodes that kept them;
# 973,032 while the head gathered and swapped the weights each frame;
# 1,318,600 before conv1 took uint8 planes in place of float64 tap columns;
# the node chain before the single-node convolutions held 2,589,256)
SEQUENCE_TAPE_BYTES = 545_448


def test_training_tape_holds_no_more_than_its_measured_buffers():
    [(frames, gt)] = build_dataset([61], grid=12)
    model = tm.build_model(small_config(mask_grid=12), seed=7)
    with nc.Tape() as tape:
        learn.sequence_loss(model, frames, gt, learn.LossConfig(), tm.Thresholds())
    assert tape_buffer_bytes(tape) <= 1.05 * SEQUENCE_TAPE_BYTES


def test_divergence_detected_and_reported():
    # Saturated appearance rates: sigmoid(-1e3) is 0.0 for both kappa and nu,
    # so the first appearance update sees kappa + nu == 0.
    model = tm.build_model(small_config(), seed=3)
    model.params["rate_head/w"].data[...] = 0.0
    model.params["rate_head/b"].data[...] = -1e3
    data = build_dataset([31])
    with pytest.raises(learn.DivergenceError) as info:
        learn.train(data, model, learn.TrainConfig(iterations=50, batch_size=1, seed=0))
    assert info.value.iteration == 0
    assert isinstance(info.value.__cause__, nc.NumericOverflowError)


def test_non_finite_loss_is_divergence():
    model = tm.build_model(small_config(), seed=3)
    model.params["score_head/w"].data[0, 0] = np.inf
    data = build_dataset([31])
    with np.errstate(all="ignore"), pytest.raises(learn.DivergenceError) as info:
        learn.train(data, model, learn.TrainConfig(iterations=5, batch_size=1, seed=0))
    assert info.value.iteration == 0
    assert info.value.__cause__ is None


def _train_each_ablation(monkeypatch, visit):
    """One tiny training iteration per named ablation; every node of each
    tape goes to `visit` before the tape is swept."""
    real_backward = nc.backward

    def spy(tape, output, params=None):
        for node in tape.nodes:
            visit(node)
        return real_backward(tape, output, params)

    monkeypatch.setattr(nc, "backward", spy)
    data = build_dataset([11], crossing=True)
    for flags in cli.ABLATIONS.values():
        model = tm.build_model(small_config(**flags), seed=1)
        learn.train(data, model, learn.TrainConfig(iterations=1, batch_size=1, seed=0))


def test_training_records_every_primitive(monkeypatch):
    """Every numcore primitive is used: one tiny training iteration per
    named ablation puts each op of the registry on the tape."""
    seen = set()
    _train_each_ablation(monkeypatch, lambda node: seen.add(node.op))
    assert sorted(set(nc._FORWARD) - seen) == []


def test_every_training_node_output_is_a_float64_ndarray(monkeypatch):
    # numcore wraps a forward's result without converting it, so every op
    # must hand back a float64 ndarray, 0-d results (the losses) included
    wrong, zero_d = set(), []
    def visit(node):
        data = node.output.data
        if type(data) is not np.ndarray or data.dtype != np.float64:
            wrong.add((node.op, type(data).__name__, str(getattr(data, "dtype", ""))))
        zero_d.append(data.ndim == 0)

    _train_each_ablation(monkeypatch, visit)
    assert wrong == set()
    assert any(zero_d)


@pytest.mark.parametrize("flags", [{}, {"num_blocks": 1}, {"limited_gnn": True},
                                   {"interleave_residuals": False},
                                   {"gated_aggregation": False}])
def test_deferred_detection_update_keeps_losses_and_bounds_gradients(monkeypatch, flags):
    # step() runs the last block's detection update only on frames with a
    # birth, after the heads, so the gradients reaching that block's edges
    # are summed in another order than when gnn_forward ran it in place:
    # the losses keep every bit, the gradients stay within 1e-11 relative
    data = build_dataset([21, 22])
    config = small_config(**flags)

    def run():
        model = tm.build_model(config, seed=4)
        model.params["init_head/b"].data[...] = 0.5  # births on most frames
        model.params["init_feat_head/b"].data[...] = 0.5
        losses, grads = [], []
        for frames, gt in data:
            model.params.zero_grads()
            with nc.Tape() as tape:
                total, bd = learn.sequence_loss(model, frames, gt, learn.LossConfig(),
                                                tm.Thresholds())
            losses.append(bd)
            grads.append(nc.backward(tape, total, model.params))
        return losses, grads

    losses, grads = run()
    with monkeypatch.context() as patch:
        patch.setattr(ag, "gnn_forward", gnn_forward_eager)
        patch.setattr(ag, "detection_embeddings", lambda batch, params, config: batch.dets)
        eager_losses, eager_grads = run()
    assert losses == eager_losses
    for got, want in zip(grads, eager_grads):
        for name, g in got.items():
            np.testing.assert_allclose(g, want[name], rtol=1e-11, atol=0, err_msg=name)


def test_checkpoint_roundtrip(tmp_path):
    config = small_config(limited_gnn=True)
    model = tm.build_model(config, seed=4)
    path = tmp_path / "model.npz"
    learn.save_checkpoint(path, model, extra={"seed": 4})
    back = learn.load_checkpoint(path)
    assert back.config == config
    np.testing.assert_array_equal(back.params.flat_values(),
                                  model.params.flat_values())


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, flat=np.zeros(3), meta=np.array('{"format": "other"}'))
    with pytest.raises(ValueError):
        learn.load_checkpoint(path)


def test_train_config_schema_round_trip():
    d = {"T": 8, "batch_size": 3, "lr": 1e-3, "weight_decay": 0.0,
         "lambdas": [1, 2, 3, 4], "seed": 5, "D": 16, "blocks": 1,
         "ablations": {"limited_gnn": True}}
    model_config, train_config, thresholds = learn.train_config_from_dict(d)
    assert model_config.embed_dim == 16 and model_config.limited_gnn
    assert train_config.loss.lambdas == (1, 2, 3, 4)
    assert thresholds.init_train == 0.31 and thresholds.init_infer == 0.13


def test_train_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        learn.train_config_from_dict({"T": 8, "bogus": 1})


def test_batch_duplication_keeps_per_sequence_loss():
    config = small_config()
    model = tm.build_model(config, seed=6)
    data = build_dataset([41])
    det_frames, gt = data[0]
    total_single, _ = learn.sequence_loss(model, det_frames, gt,
                                          learn.LossConfig(), tm.Thresholds())
    # the batch mean of two copies equals the single-sequence loss
    totals = []
    for _ in range(2):
        t, _ = learn.sequence_loss(model, det_frames, gt, learn.LossConfig(),
                                   tm.Thresholds())
        totals.append(t.item())
    assert np.mean(totals) == pytest.approx(total_single.item(), rel=1e-12)
