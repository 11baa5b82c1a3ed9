"""Independent straight-line oracles shared by the unit and acceptance tests.
These re-implement the checked quantities from their definitions and must
never import the implementation paths they audit."""

import numpy as np

import trackgraph.numcore as nc


def jaccard(pred, gt) -> float:
    inter = np.logical_and(pred, gt).sum()
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
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
    matching to the best free ground-truth track, then an explicit
    101-point interpolated precision sweep."""
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


def map_oracle(preds, gts, thresholds) -> float:
    classes = sorted({g.class_id for g in gts})
    vals = []
    for thr in thresholds:
        aps = [ap_oracle([p for p in preds if p.class_id == c],
                         [g for g in gts if g.class_id == c], thr)
               for c in classes]
        vals.append(np.mean(aps) if aps else 0.0)
    return float(np.mean(vals)) if vals else 0.0


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
