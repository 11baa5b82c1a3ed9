"""Independent straight-line oracles shared by the unit and acceptance tests.
These re-implement the checked quantities from their definitions and must
never import the implementation paths they audit."""

import numpy as np

import trackgraph.assocgraph as ag
import trackgraph.learn as learn
import trackgraph.numcore as nc
import trackgraph.trackman as tm


def iou(box_a, box_b) -> float:
    """Intersection over union of two (cx, cy, w, h) boxes; 0 for an empty
    union."""
    ax, ay, aw, ah = (float(v) for v in box_a)
    bx, by, bw, bh = (float(v) for v in box_b)
    ax0, ay0, ax1, ay1 = ax - aw / 2, ay - ah / 2, ax + aw / 2, ay + ah / 2
    bx0, by0, bx1, by1 = bx - bw / 2, by - bh / 2, bx + bw / 2, by + bh / 2
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def st_iou_oracle(masks_a: dict, masks_b: dict) -> float:
    inter = union = 0
    for t in sorted(set(masks_a) | set(masks_b)):
        a = masks_a.get(t)
        b = masks_b.get(t)
        if a is not None and b is not None:
            inter += int(np.logical_and(a, b).sum())
            union += int(np.logical_or(a, b).sum())
        else:
            union += int(np.count_nonzero(a if a is not None else b))
    return inter / union if union else 0.0


def ap_oracle(preds, gts, thr) -> float:
    """Average precision re-derived step by step: confidence-order greedy
    matching to the best free ground-truth track of the prediction's own
    sequence, then an explicit 101-point interpolated precision sweep."""
    preds = sorted(preds, key=lambda p: (-p.confidence, p.sequence, p.id))
    taken = [False] * len(gts)
    flags = []
    for p in preds:
        best_v, best_i = 0.0, None
        for i, g in enumerate(gts):
            if taken[i] or g.sequence != p.sequence:
                continue
            v = st_iou_oracle(p.masks, g.masks)
            if v > best_v:
                best_v, best_i = v, i
        if best_i is not None and best_v >= thr:
            taken[best_i] = True
            flags.append(True)
        else:
            flags.append(False)
    if not gts:
        return 0.0
    ap = 0.0
    for k in range(101):
        r = k / 100.0
        best_p = 0.0
        tp = fp = 0
        for f in flags:
            tp += f
            fp += not f
            if tp / len(gts) >= r - 1e-12:
                best_p = max(best_p, tp / (tp + fp))
        ap += best_p
    return ap / 101.0


def video_map_oracle(preds, gts, thresholds):
    """(per-threshold mAP, per-class AP, mean) as `evalkit.video_map`
    returns them, one class and threshold at a time."""
    classes = sorted({g.class_id for g in gts})
    per_threshold, per_class = {}, {c: [] for c in classes}
    for thr in thresholds:
        aps = []
        for c in classes:
            aps.append(ap_oracle([p for p in preds if p.class_id == c],
                                 [g for g in gts if g.class_id == c], thr))
            per_class[c].append(aps[-1])
        per_threshold[float(thr)] = float(np.mean(aps)) if aps else 0.0
    mean = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return per_threshold, {c: float(np.mean(v)) for c, v in per_class.items()}, mean


def covering_track_oracle(preds, gt_mask, t):
    """The id of the prediction whose frame-t mask overlaps `gt_mask` most,
    scanning in id order and keeping the first strict maximum; None when no
    prediction overlaps."""
    best_overlap, best_id = 0, None
    for p in sorted(preds, key=lambda p: p.id):
        mask = p.masks.get(t)
        if mask is None:
            continue
        overlap = int(np.logical_and(mask, gt_mask).sum())
        if overlap > best_overlap:
            best_overlap, best_id = overlap, p.id
    return best_id


def id_metrics_oracle(preds, gts):
    """(association accuracy, ID switches) as `evalkit.id_metrics` returns
    them, one (frame, object) pair at a time."""
    total_pairs = correct = switches = 0
    for gt in gts:
        same_seq = [p for p in preds if p.sequence == gt.sequence]
        covers = [covering_track_oracle(same_seq, gt.masks[t], t) for t in sorted(gt.masks)]
        total_pairs += len(covers)
        covered = [c for c in covers if c is not None]
        if covered:
            ids, counts = np.unique(covered, return_counts=True)
            main = int(ids[np.argmax(counts)])
            correct += sum(1 for c in covers if c == main)
            switches += sum(1 for a, b in zip(covered, covered[1:]) if a != b)
    return (correct / total_pairs if total_pairs else 0.0), switches


def report_oracle(preds, gts, thresholds) -> dict:
    """`evalkit.evaluate(preds, gts).to_dict()` from the oracles above."""
    per_threshold, per_class, mean = video_map_oracle(preds, gts, thresholds)
    accuracy, switches = id_metrics_oracle(preds, gts)
    return {"mean_map": mean,
            "map_per_threshold": {f"{k:.2f}": v for k, v in per_threshold.items()},
            "ap_per_class": {str(k): v for k, v in per_class.items()},
            "association_accuracy": accuracy, "id_switches": switches, "scenarios": {}}


def heuristic_pair_score(track_mu, track_class: int, track_box, det_box, det_scores,
                         det_appearance) -> float:
    """The non-learned association score of one (track, detection) pair:
    appearance cosine (0 against a zero vector) + IoU + [same top class] +
    the detection's top foreground score, each weighted 1."""
    na, nb = np.linalg.norm(track_mu), np.linalg.norm(det_appearance)
    cosine = 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(track_mu, det_appearance)
                                                      / (na * nb))
    same_class = 1.0 if int(np.argmax(det_scores[:-1])) == track_class else 0.0
    top = float(np.max(det_scores[:-1]))
    return float(np.dot(np.ones(4), [cosine, iou(track_box, det_box), same_class, top]))


def heuristic_distribution_oracle(confidences, classes, num_classes: int) -> np.ndarray:
    """The heuristic class distribution of one track from its per-frame lists
    of matched-detection confidences and top classes: np.mean of the
    confidences on the majority class (ties to the smaller id), the rest on
    the background; a track without votes gets class 0 with confidence 0."""
    conf = float(np.mean(confidences)) if confidences else 0.0
    cls = int(np.argmax(np.bincount(np.asarray(classes, dtype=int)))) if classes else 0
    dist = np.zeros(num_classes + 1)
    dist[cls] = conf
    dist[num_classes] = 1.0 - conf
    return dist


def mask_head_oracle(params: dict, embeddings, masks, boxes, grid: int):
    """The mask head from its definition, pixel by pixel: the ReLU track
    projection broadcast to every pixel, concatenated with the detection mask
    and the box raster (18 channels), a zero-padded 3x3 convolution to 16
    channels, ReLU, and a zero-padded 3x3 convolution to one logit map.
    Conv weights are (out, in*9) with column in*9 + 3*di + dj reading the
    input at (i + di - 1, j + dj - 1).  `params` maps mask_head names to
    arrays.  Returns (logits (K, G, G), instance_map (G, G)), where pixels go
    to the first strictly largest of [background 0, logits...]."""
    pw, pb = params["mask_head/proj/w"], params["mask_head/proj/b"]
    w1, b1 = params["mask_head/conv1/w"], params["mask_head/conv1/b"]
    w2, b2 = params["mask_head/conv2/w"], params["mask_head/conv2/b"]

    def conv3x3(x, w, b):
        cin, cout = x.shape[0], w.shape[0]
        out = np.zeros((cout, grid, grid))
        for o in range(cout):
            for i in range(grid):
                for j in range(grid):
                    acc = b[o]
                    for c in range(cin):
                        for di in range(3):
                            for dj in range(3):
                                y, x_ = i + di - 1, j + dj - 1
                                if 0 <= y < grid and 0 <= x_ < grid:
                                    acc += w[o, c * 9 + 3 * di + dj] * x[c, y, x_]
                    out[o, i, j] = acc
        return out

    logits = []
    for emb, mask, box in zip(embeddings, masks, boxes):
        proj = [max(0.0, float(np.dot(pw[c], emb) + pb[c])) for c in range(pw.shape[0])]
        cx, cy, bw, bh = (float(v) for v in box)
        x = np.zeros((len(proj) + 2, grid, grid))
        for i in range(grid):
            for j in range(grid):
                x[: len(proj), i, j] = proj
                x[len(proj), i, j] = mask[i][j]
                px, py = (j + 0.5) / grid, (i + 0.5) / grid
                x[len(proj) + 1, i, j] = float(abs(px - cx) <= bw / 2
                                               and abs(py - cy) <= bh / 2)
        h = np.maximum(conv3x3(x, w1, b1), 0.0)
        logits.append(conv3x3(h, w2, b2)[0])
    instance_map = np.zeros((grid, grid), dtype=int)
    for i in range(grid):
        for j in range(grid):
            best = 0.0
            for k, lg in enumerate(logits):
                if lg[i, j] > best:
                    best, instance_map[i, j] = lg[i, j], k + 1
    return np.array(logits), instance_map


def gnn_forward_all_rows(batch, params, config):
    """`assocgraph.gnn_forward` with every track-side gate MLP run over all
    (m+1) x n edges and the aggregate rows picked afterwards: row 0 of
    g_tau0's sum, rows 1..m of g_tau's.  Reuses assocgraph's edge, node and
    residual updates, which the gate-row selection does not touch."""
    tr, de, ed = batch.tracks, batch.dets, batch.edges
    ma, na = ed.shape[0], ed.shape[1]
    gated = config.gated_aggregation
    rest = np.arange(1, ma)

    def aggregate(gate, edges, axis):
        msg = ag._gate_mlp(params, gate, edges) * edges if gated else edges
        return nc.slot_sum(msg, axis=axis)

    def track_update(k, tr, agg_row0, agg):
        row0 = ag._node_update(params, f"block{k}", "tau0", nc.gather(tr, [0]),
                               nc.gather(agg_row0, [0]), gated)
        others = ag._node_update(params, f"block{k}", "tau", nc.gather(tr, rest),
                                 nc.gather(agg, rest), gated)
        return nc.concat([row0, others], axis=0)

    def residuals(k, ed, tr, de):
        if not config.interleave_residuals:
            return ed, tr, de
        return (ag._residual(params, f"res{k}/edges", ed),
                ag._residual(params, f"res{k}/tracks", tr),
                ag._residual(params, f"res{k}/dets", de))

    if config.limited_gnn:
        ed = ag._edge_update(params, 0, ed, tr, de, gated)
        mask = np.zeros((ma, na))
        if ma > 1 and na > 0:
            probs = ag._head_probs(params, "match_feat_head", batch.edge_feats).data[1:]
            mask[rest, np.argmax(probs, axis=1)] = 1.0
        msg = ag._gate_mlp(params, "block0/g_tau", ed) * ed if gated else ed
        agg = nc.slot_sum(msg * nc.Tensor(mask[:, :, None]), axis=1)
        tr = track_update(0, tr, agg, agg)
        de = ag._node_update(params, "block0", "delta", de,
                             nc.Tensor(np.zeros((na, config.embed_dim))), gated)
        ed, tr, de = residuals(0, ed, tr, de)
    else:
        for k in range(config.num_blocks):
            ed = ag._edge_update(params, k, ed, tr, de, gated)
            tr = track_update(k, tr, aggregate(f"block{k}/g_tau0", ed, 1),
                              aggregate(f"block{k}/g_tau", ed, 1))
            de = ag._node_update(params, f"block{k}", "delta", de,
                                 aggregate(f"block{k}/g_delta", ed, 0), gated)
            ed, tr, de = residuals(k, ed, tr, de)
    return ag.GraphBatch(tracks=tr, dets=de, edges=ed, edge_feats=batch.edge_feats)


def lovasz_softmax_frame_loop(logits, labels):
    """`learn.lovasz_softmax_frame` one class at a time: per track row c, the
    errors against the class-c foreground, their stable descending sort, the
    Jaccard-extension gradient and one summed term; the terms are added in
    row order and averaged.  Built from the same tape primitives, so the
    vectorized loss must match it bit for bit."""

    def grad_vector(fg_sorted):
        gts = fg_sorted.sum()
        jaccard = 1.0 - (gts - np.cumsum(fg_sorted)) / (gts + np.cumsum(1.0 - fg_sorted))
        out = jaccard.copy()
        out[1:] = jaccard[1:] - jaccard[:-1]
        return out

    k_plus_1 = logits.shape[0]
    n_pix = int(np.prod(logits.shape[1:]))
    flat = nc.reshape(logits, (k_plus_1, n_pix))
    probs = nc.swapaxes01(nc.softmax(nc.swapaxes01(flat)))
    labels_flat = np.asarray(labels).reshape(-1)
    terms = []
    for c in range(1, k_plus_1):
        fg = (labels_flat == c).astype(np.float64)
        p_c = nc.reshape(nc.gather(probs, [c]), (n_pix,))
        errors = nc.Tensor(fg) * (1.0 - p_c) + nc.Tensor(1.0 - fg) * p_c
        order = np.argsort(-errors.data, kind="stable")
        errors_sorted = nc.gather(errors, order)
        grad = grad_vector(fg[order])
        terms.append(nc.reshape(nc.tsum(errors_sorted * nc.Tensor(grad)), ()))
    if not terms:
        return nc.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def joint_tape_train(dataset, model, config, thresholds=None):
    """`learn.train` with the whole batch on one tape: each iteration records
    every sequence's loss on the same tape, sums them in batch order, and
    sweeps the batch mean once.  No divergence handling.  `learn.train`'s
    per-sequence sweeps must match it bit for bit."""
    thresholds = thresholds or tm.Thresholds()
    rng = np.random.default_rng(config.seed)
    state = nc.AdamState(model.params)
    curve = []
    for _ in range(config.iterations):
        batch_idx = rng.integers(0, len(dataset), size=config.batch_size)
        model.params.zero_grads()
        with nc.Tape() as tape:
            total = nc.Tensor(0.0)
            acc = np.zeros(4)
            for bi in batch_idx:
                det_frames, gt = dataset[bi]
                seq_total, bd = learn.sequence_loss(model, det_frames, gt,
                                                    config.loss, thresholds)
                total = total + seq_total
                acc += (bd.score, bd.seg, bd.match, bd.init)
            total = total * (1.0 / config.batch_size)
        grads = nc.backward(tape, total, model.params)
        nc.adam_step(model.params, grads, state, lr=config.lr,
                     weight_decay=config.weight_decay, betas=config.betas)
        acc /= config.batch_size
        curve.append(learn.LossBreakdown(score=acc[0], seg=acc[1], match=acc[2],
                                         init=acc[3], total=total.item()))
    return curve


def unroll_targets_oracle(model, det_frames, gt, thresholds, mode="train"):
    """`learn.unroll_sequence`'s four losses with targets built per track:
    each detection's gt id from a greedy over (object, detection) pairs by
    descending IoU in gt-object order, a dict from track id to gt id (None
    for none), each newborn labeled through its record's matched detection,
    the class target looked up per track, and the ground-truth map painted
    object by object in ascending id order.  The earliest active track of an
    object owns its pixels.  The losses themselves are learn's, so the two
    must agree bit for bit."""
    config = model.config
    class_of = {obj.id: obj.class_id for obj in gt.objects}
    identity = {}
    memory = tm.TrackMemory.empty(config)
    score_frames, match_frames, init_frames, seg_frames = [], [], [], []
    for t, frame in enumerate(det_frames):
        memory, out = tm.step(memory, frame, model, thresholds, mode, t)
        objects = [obj for obj in gt.objects if obj.present[t]]
        ious = ag.iou_matrix([obj.boxes[t] for obj in objects], out.detections.boxes)
        labels, used = {}, set()
        for _, gi, j in sorted((-ious[gi, j], gi, j) for gi in range(len(objects))
                               for j in range(out.num_dets)):
            if ious[gi, j] >= 0.5 and gi not in used and j not in labels:
                labels[j] = objects[gi].id
                used.add(gi)
        det_ids = [labels.get(j) for j in range(out.num_dets)]
        row_ids = [identity[track.id] for track in out.track_rows]
        match_frames.append((out.match_probs, np.array(
            [[d is not None and d == r for d in det_ids] for r in row_ids],
            dtype=bool).reshape(out.num_tracks, out.num_dets)))
        init_frames.append((out.init_probs, np.array(
            [d is not None and d not in row_ids for d in det_ids], dtype=bool)))
        for track in out.born:
            identity[track.id] = labels.get(track.records[-1].matched_detection)
        score_frames.append((out.scores, [
            config.num_classes if identity[track.id] is None else class_of[identity[track.id]]
            for track in memory]))
        if out.seg_logits is None:
            seg_frames.append(None)
            continue
        owner = {}
        for k, track in enumerate(out.seg_tracks):
            if identity[track.id] is not None:
                owner.setdefault(identity[track.id], k + 1)
        labels_map = np.zeros((config.mask_grid, config.mask_grid), dtype=int)
        for obj in sorted(gt.objects, key=lambda o: o.id):
            if obj.present[t]:
                labels_map[obj.masks[t] > 0] = owner.get(obj.id, 0)
        seg_frames.append((out.seg_logits, labels_map))
    seq_len = len(det_frames)
    return {"score": learn.loss_score(score_frames, seq_len),
            "seg": learn.loss_seg(seg_frames, seq_len),
            "match": learn.loss_bce(match_frames, seq_len),
            "init": learn.loss_bce(init_frames, seq_len),
            "memory": memory}
