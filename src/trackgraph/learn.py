"""Target assignment, the four-term loss, and the unrolled-sequence trainer.

Training feeds whole sequences through the same step() used at inference
(train-mode init threshold 0.31) and backpropagates through everything the
model did: graph blocks, gating, appearance updates, rate predictions, and
mask reweighting.  Losses are normalized by batch size and sequence length
but never by track or detection counts, so false positives cannot dilute
the loss of true pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import assocgraph as ag
from . import numcore as nc
from . import trackman as tm
from .assocgraph import ModelConfig
from .numcore import ParamStore, Tensor

PROB_CLAMP = 1e-7

CHECKPOINT_FORMAT = "trackgraph-checkpoint"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite loss at iteration {iteration}")
        self.iteration = iteration


@dataclass
class LossConfig:
    lambdas: tuple[float, float, float, float] = (1.0, 1.0, 4.0, 1.0)
    sequence_length: int = 10

    def __post_init__(self):
        if any(l < 0 for l in self.lambdas):
            raise ValueError("loss weights must be nonnegative")


@dataclass
class LossBreakdown:
    score: float
    seg: float
    match: float
    init: float
    total: float


@dataclass
class TrainConfig:
    iterations: int = 500
    batch_size: int = 2
    lr: float = 2e-4
    weight_decay: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)


# ---------------------------------------------------------------------------
# target assignment


def assign_targets(detections, gt_objects, iou_threshold: float = 0.5) -> dict[int, int]:
    """Label detections with gt identities: global greedy over (gt, detection)
    pairs by descending IoU, one-to-one, at IoU >= threshold.  Unlabeled
    detections are background.  gt_objects: list of (gt_id, box)."""
    ious = ag.iou_matrix([box for _, box in gt_objects], [d.box for d in detections])
    pairs = sorted(zip(*np.nonzero(ious >= iou_threshold)),
                   key=lambda p: (-ious[p], p[0], p[1]))
    used_g, used_d, labels = set(), set(), {}
    for gi, j in pairs:
        if gi in used_g or j in used_d:
            continue
        labels[int(j)] = gt_objects[gi][0]
        used_g.add(gi)
        used_d.add(j)
    return labels


# ---------------------------------------------------------------------------
# loss pieces


def _clamped_log(p: Tensor) -> Tensor:
    return nc.log(nc.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def ramp_weights(seq_len: int) -> np.ndarray:
    """Late-frame emphasis: w_t = t / sum(1..T) for t = 1..T; sums to one."""
    t = np.arange(1, seq_len + 1, dtype=np.float64)
    return t / t.sum()


def loss_score(per_frame, seq_len: int, batch_size: int = 1) -> Tensor:
    """per_frame: list over frames of (scores Tensor (K, C+1), target classes
    (K,)).  Ramp-weighted cross-entropy -log p[target], with p clamped away
    from 0/1, summed over tracks and averaged over the batch (the ramp
    itself carries the sequence normalization)."""
    weights = ramp_weights(seq_len)
    picked, picked_w = [], []
    for t, (scores, targets) in enumerate(per_frame):
        rows = np.arange(len(targets))
        picked.append(nc.gather(nc.reshape(scores, (-1,)),
                                rows * scores.shape[-1] + np.asarray(targets, dtype=int)))
        picked_w.append(np.full(len(rows), weights[t]))
    ce = -_clamped_log(nc.concat(picked, axis=0))
    return nc.tsum(ce * Tensor(np.concatenate(picked_w))) * (1.0 / batch_size)


def bce_sum(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Sum of binary cross-entropies over every entry."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    logp = _clamped_log(probs)
    lognot = _clamped_log(1.0 - probs)
    return -nc.tsum(t * logp + (1.0 - t) * lognot)


def loss_bce(per_frame, seq_len: int, batch_size: int = 1) -> Tensor:
    """per_frame: list of (probs Tensor, targets) over the live entries.  Sum
    over all of them; normalize by batch size and sequence length only."""
    probs = nc.concat([nc.reshape(p, (-1,)) for p, _ in per_frame], axis=0)
    targets = np.concatenate([np.ravel(t) for _, t in per_frame])
    return bce_sum(probs, targets) * (1.0 / (batch_size * seq_len))


def lovasz_grad_vector(fg_sorted: np.ndarray) -> np.ndarray:
    """Jaccard-extension gradient for errors sorted descending along the last
    axis, one vector per row (constant; the sort permutation carries the
    data dependence)."""
    gts = fg_sorted.sum(axis=-1, keepdims=True)
    intersection = gts - np.cumsum(fg_sorted, axis=-1)
    union = gts + np.cumsum(1.0 - fg_sorted, axis=-1)
    jaccard = 1.0 - intersection / union
    out = jaccard.copy()
    out[..., 1:] = jaccard[..., 1:] - jaccard[..., :-1]
    return out


def lovasz_softmax_frame(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multi-class Lovasz-softmax over one frame's (K+1, G, G) logit stack
    (row 0 = background) against integer labels in [0, K].  Averages the
    per-class terms over the K track rows; the background row competes in
    the softmax but has no term of its own.  All K rows go in one pass: a
    row-wise stable sort of the errors, one flat gather, and the row terms
    summed in ascending row order."""
    k = logits.shape[0] - 1
    if k == 0:
        return Tensor(0.0)
    n_pix = int(np.prod(logits.shape[1:]))
    flat = nc.reshape(logits, (k + 1, n_pix))
    probs = nc.swapaxes01(nc.softmax(nc.swapaxes01(flat)))  # (K+1, n_pix)
    fg = (np.asarray(labels).reshape(1, -1)
          == np.arange(1, k + 1)[:, None]).astype(np.float64)      # (K, n_pix)
    p = nc.gather(probs, np.arange(1, k + 1))
    errors = Tensor(fg) * (1.0 - p) + Tensor(1.0 - fg) * p
    order = np.argsort(-errors.data, axis=1, kind="stable")
    flat_order = order + (np.arange(k) * n_pix)[:, None]
    errors_sorted = nc.gather(nc.reshape(errors, (-1,)), flat_order)
    grad = lovasz_grad_vector(np.take_along_axis(fg, order, axis=1))
    terms = nc.tsum(errors_sorted * Tensor(grad), axis=1)            # (K,)
    return nc.slot_sum(terms, 0) * (1.0 / k)


def loss_seg(per_frame, seq_len: int, batch_size: int = 1) -> Tensor:
    """per_frame: list of (logits, labels) or None for frames without active
    tracks.  Mean of per-frame terms over the sequence and batch, keeping the
    component inside [0, 1]."""
    total = Tensor(0.0)
    for entry in per_frame:
        if entry is None:
            continue
        logits, labels = entry
        total = total + lovasz_softmax_frame(logits, labels)
    return total * (1.0 / (batch_size * seq_len))


def total_loss(score: Tensor, seg: Tensor, match: Tensor, init: Tensor,
               config: LossConfig) -> tuple[Tensor, LossBreakdown]:
    l1, l2, l3, l4 = config.lambdas
    total = score * l1 + seg * l2 + match * l3 + init * l4
    breakdown = LossBreakdown(score=score.item(), seg=seg.item(),
                              match=match.item(), init=init.item(),
                              total=total.item())
    return total, breakdown


# ---------------------------------------------------------------------------
# sequence unrolling


def _gt_frame_objects(gt, t):
    return [(obj.id, obj.boxes[t]) for obj in gt.objects if obj.present[t]]


def _paint_gt_map(gt, t, grid: int) -> np.ndarray:
    """Ground-truth instance map: object masks painted in ascending id order
    (higher ids on top); 0 elsewhere, values are gt_id + 1."""
    out = np.zeros((grid, grid), dtype=np.int64)
    for obj in sorted(gt.objects, key=lambda o: o.id):
        if obj.present[t]:
            out[obj.masks[t] > 0] = obj.id + 1
    return out


def unroll_sequence(model: tm.TrackModel, det_frames, gt,
                    thresholds: tm.Thresholds, mode: str = "train"):
    """Run step() over the sequence, assemble loss inputs, and return the
    four loss Tensors plus the final memory."""
    config = model.config
    seq_len = len(det_frames)
    identity: dict[int, int] = {}  # track id -> gt id, -1 for none
    class_of = {obj.id: obj.class_id for obj in gt.objects}
    memory = tm.TrackMemory.empty(config)
    score_frames, match_frames, init_frames, seg_frames = [], [], [], []

    for t, dets in enumerate(det_frames):
        memory, out = tm.step(memory, dets, model, thresholds, mode, t)
        labels = assign_targets(out.detections, _gt_frame_objects(gt, t))
        det_ids = np.array([labels.get(j, -1) for j in range(out.num_dets)])
        row_ids = np.array([identity[track.id] for track in out.track_rows])

        # match targets over pre-birth rows x detections: same gt identity
        match_t = (row_ids[:, None] == det_ids[None, :]) & (det_ids[None, :] >= 0)
        match_frames.append((out.match_probs, match_t))

        # init targets: labeled detection whose object has no track yet
        init_t = (det_ids >= 0) & ~np.isin(det_ids, row_ids)
        init_frames.append((out.init_probs, init_t))

        # newborn tracks inherit the label of their initializing detection
        for track in out.born:
            j = track.records[-1].matched_detection
            identity[track.id] = labels.get(j, -1)

        # score targets, one per row of the new memory
        targets = [class_of.get(identity[track.id], config.num_classes)
                   for track in memory]
        score_frames.append((out.scores, targets))

        # segmentation targets: earliest identity-carrying track owns the
        # object's pixels
        if out.seg_logits is not None:
            owner_row: dict[int, int] = {}
            for k, track in enumerate(out.seg_tracks):
                tid = identity[track.id]
                if tid >= 0 and tid not in owner_row:
                    owner_row[tid] = k + 1
            gt_map = _paint_gt_map(gt, t, config.mask_grid)
            labels_map = np.zeros_like(gt_map)
            for gt_id, row in owner_row.items():
                labels_map[gt_map == gt_id + 1] = row
            seg_frames.append((out.seg_logits, labels_map))
        else:
            seg_frames.append(None)

    return {
        "score": loss_score(score_frames, seq_len),
        "seg": loss_seg(seg_frames, seq_len),
        "match": loss_bce(match_frames, seq_len),
        "init": loss_bce(init_frames, seq_len),
        "memory": memory,
    }


def sequence_loss(model, det_frames, gt, loss_config: LossConfig,
                  thresholds: tm.Thresholds, mode: str = "train"):
    parts = unroll_sequence(model, det_frames, gt, thresholds, mode)
    total, breakdown = total_loss(parts["score"], parts["seg"], parts["match"],
                                  parts["init"], loss_config)
    return total, breakdown


# ---------------------------------------------------------------------------
# training loop


def train(dataset, model: tm.TrackModel, config: TrainConfig,
          thresholds: tm.Thresholds | None = None, log_every: int = 0):
    """Adam on the summed batch loss; returns the loss curve as a list of
    LossBreakdown.  Raises DivergenceError on a non-finite loss."""
    thresholds = thresholds or tm.Thresholds()
    rng = np.random.default_rng(config.seed)
    state = nc.AdamState(model.params)
    curve: list[LossBreakdown] = []
    for it in range(config.iterations):
        batch_idx = rng.integers(0, len(dataset), size=config.batch_size)
        model.params.zero_grads()
        try:
            with nc.Tape() as tape:
                total = Tensor(0.0)
                acc = np.zeros(4)
                for bi in batch_idx:
                    det_frames, gt = dataset[bi]
                    parts = unroll_sequence(model, det_frames, gt, thresholds,
                                            mode="train")
                    seq_total, bd = total_loss(parts["score"], parts["seg"],
                                               parts["match"], parts["init"],
                                               config.loss)
                    total = total + seq_total
                    acc += (bd.score, bd.seg, bd.match, bd.init)
                total = total * (1.0 / config.batch_size)
            if not np.isfinite(total.data):
                raise DivergenceError(it)
            grads = nc.backward(tape, total, model.params)
            nc.adam_step(model.params, grads, state, lr=config.lr,
                         weight_decay=config.weight_decay, betas=config.betas)
        except nc.NumericOverflowError as exc:
            # forward/optimizer numeric-state checks are divergence, not crashes
            raise DivergenceError(it) from exc
        acc /= config.batch_size
        curve.append(LossBreakdown(score=acc[0], seg=acc[1], match=acc[2],
                                   init=acc[3], total=total.item()))
        if log_every and (it + 1) % log_every == 0:
            print(f"iter {it + 1}: total {total.item():.4f}")
    return curve


# ---------------------------------------------------------------------------
# config and checkpoint files


def train_config_from_dict(d: dict) -> tuple[ModelConfig, TrainConfig, tm.Thresholds]:
    """External training-config schema: {"T", "batch_size", "lr",
    "weight_decay", "lambdas", "seed", "D", "blocks", "ablations": {...}}.
    Unknown keys are rejected."""
    known = {"T", "batch_size", "lr", "weight_decay", "lambdas", "seed", "D",
             "blocks", "iterations", "num_classes", "appearance_dim",
             "mask_grid", "ablations"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown training config keys: {sorted(unknown)}")
    model_kw = dict(
        embed_dim=int(d.get("D", 32)),
        num_blocks=int(d.get("blocks", 2)),
        num_classes=int(d.get("num_classes", 5)),
        appearance_dim=int(d.get("appearance_dim", 8)),
        mask_grid=int(d.get("mask_grid", 24)),
    )
    model_kw.update(d.get("ablations", {}))
    model_config = ModelConfig.from_dict({**ModelConfig().to_dict(), **model_kw})
    loss = LossConfig(lambdas=tuple(d.get("lambdas", (1.0, 1.0, 4.0, 1.0))),
                      sequence_length=int(d.get("T", 10)))
    train_config = TrainConfig(
        iterations=int(d.get("iterations", 500)),
        batch_size=int(d.get("batch_size", 2)),
        lr=float(d.get("lr", 2e-4)),
        weight_decay=float(d.get("weight_decay", 1e-4)),
        seed=int(d.get("seed", 0)),
        loss=loss,
    )
    return model_config, train_config, tm.Thresholds()


def save_checkpoint(path, model: tm.TrackModel, extra: dict | None = None):
    names = model.params.names()
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "params": {n: list(model.params[n].shape) for n in names},
        **(extra or {}),
    }
    np.savez(path, flat=model.params.flat_values(),
             meta=np.array(json.dumps(meta)))


def load_checkpoint(path) -> tm.TrackModel:
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a checkpoint file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        config = ModelConfig.from_dict(meta["config"])
        model = tm.build_model(config, seed=0)
        expected = {n: tuple(s) for n, s in meta["params"].items()}
        actual = {n: model.params[n].shape for n in model.params.names()}
        if expected != actual:
            raise ValueError("checkpoint parameter table does not match config")
        model.params.set_flat(blob["flat"])
    return model
