"""Target assignment, the four-term loss, and the unrolled-sequence trainer.

Training feeds whole sequences through the same step() used at inference
(train-mode init threshold 0.31) and backpropagates through everything the
model did: graph blocks, gating, appearance updates, rate predictions, and
mask reweighting.  Losses are normalized by batch size and sequence length
but never by track or detection counts, so false positives cannot dilute
the loss of true pairs.

Targets are array expressions over the memory rows: they read the
sequence's synthworld.GroundTruth rows (objects by ascending id) sliced to
the stream's length, and one identity array holds each memory row's gt row
(-1 for none); a newborn takes its detection's row via
FrameOutput.row_detections.  Only the id order matters: a higher id paints
on top in the gt maps.
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
    sequence_length: int = 10  # read by nothing (the data sets it); perfbench/ passes it

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
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


# ---------------------------------------------------------------------------
# target assignment


def assign_targets(frame, gt_boxes, iou_threshold: float = 0.5) -> np.ndarray:
    """The (n,) row of `gt_boxes` that labels each of the frame's detections,
    -1 for background: global greedy over (gt, detection) pairs by descending
    IoU, one-to-one, at IoU >= threshold."""
    assigned = tm.greedy_assignment(ag.iou_matrix(gt_boxes, frame.boxes), iou_threshold)
    det_gt = np.full(len(frame), -1)
    det_gt[list(assigned.values())] = list(assigned)
    return det_gt


# ---------------------------------------------------------------------------
# loss pieces


def _clamped_log(p: Tensor) -> Tensor:
    return nc.log(nc.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def ramp_weights(seq_len: int) -> np.ndarray:
    """Late-frame emphasis: w_t = t / sum(1..T) for t = 1..T; sums to one."""
    t = np.arange(1, seq_len + 1, dtype=np.float64)
    return t / t.sum()


def loss_score(per_frame, seq_len: int) -> Tensor:
    """per_frame: list over frames of (scores Tensor (K, C+1), target classes
    (K,)).  Ramp-weighted cross-entropy -log p[target], with p clamped away
    from 0/1, summed over tracks (the ramp itself carries the sequence
    normalization)."""
    weights = ramp_weights(seq_len)
    picked, picked_w = [], []
    for t, (scores, targets) in enumerate(per_frame):
        rows = np.arange(len(targets))
        picked.append(nc.gather(nc.reshape(scores, (-1,)),
                                rows * scores.shape[-1] + np.asarray(targets, dtype=int)))
        picked_w.append(np.full(len(rows), weights[t]))
    ce = -_clamped_log(nc.concat(picked, axis=0))
    return nc.tsum(ce * Tensor(np.concatenate(picked_w)))


def bce_sum(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Sum of binary cross-entropies over every entry."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    logp = _clamped_log(probs)
    lognot = _clamped_log(1.0 - probs)
    return -nc.tsum(t * logp + (1.0 - t) * lognot)


def loss_bce(per_frame, seq_len: int) -> Tensor:
    """per_frame: list of (probs Tensor, targets) over the live entries.  Sum
    over all of them; normalize by sequence length only."""
    probs = nc.concat([nc.reshape(p, (-1,)) for p, _ in per_frame], axis=0)
    targets = np.concatenate([np.ravel(t) for _, t in per_frame])
    return bce_sum(probs, targets) * (1.0 / seq_len)


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
    errors = p * Tensor(1.0 - 2.0 * fg) + Tensor(fg)  # fg*(1-p) + (1-fg)*p, bit for bit
    order = np.argsort(-errors.data, axis=1, kind="stable")
    flat_order = order + (np.arange(k) * n_pix)[:, None]
    errors_sorted = nc.gather(nc.reshape(errors, (-1,)), flat_order)
    grad = lovasz_grad_vector(np.take_along_axis(fg, order, axis=1))
    terms = nc.tsum(errors_sorted * Tensor(grad), axis=1)            # (K,)
    return nc.slot_sum(terms, 0) * (1.0 / k)


def loss_seg(per_frame, seq_len: int) -> Tensor:
    """per_frame: list of (logits, labels) or None for frames without active
    tracks.  Mean of per-frame terms over the sequence, keeping the component
    inside [0, 1]."""
    total = Tensor(0.0)
    for entry in per_frame:
        if entry is None:
            continue
        logits, labels = entry
        total = total + lovasz_softmax_frame(logits, labels)
    return total * (1.0 / seq_len)


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


def unroll_sequence(model: tm.TrackModel, det_frames, gt,
                    thresholds: tm.Thresholds, mode: str = "train"):
    """Run step() over the sequence, assemble loss inputs, and return the
    four loss Tensors plus the final memory."""
    config = model.config
    K, seq_len = len(gt), len(det_frames)
    present, boxes = gt.present[:, :seq_len], gt.boxes[:, :seq_len]
    classes = np.append(gt.classes, config.num_classes)  # row -1: background
    # (T, G*G) gt maps: the largest row + 1 covering a pixel, else 0
    gt_maps = np.where(
        (gt.masks[:, :seq_len].reshape(K, seq_len, config.mask_grid ** 2) > 0)
        & present[:, :, None], np.arange(1, K + 1)[:, None, None], 0).max(axis=0, initial=0)
    identity = np.zeros(0, dtype=int)
    memory = tm.TrackMemory.empty(config)
    score_frames, match_frames, init_frames, seg_frames = [], [], [], []

    for t, frame in enumerate(det_frames):
        memory, out = tm.step(memory, frame, model, thresholds, mode, t)
        live = np.append(np.flatnonzero(present[:, t]), -1)  # -1 keeps background
        det_gt = live[assign_targets(out.detections, boxes[live[:-1], t])]

        # match targets over pre-birth rows x detections: same gt row
        match_frames.append((out.match_probs,
                             (identity[:, None] == det_gt) & (det_gt >= 0)))
        # init targets: labeled detection whose object has no track yet
        init_frames.append((out.init_probs, (det_gt >= 0) & ~np.isin(det_gt, identity)))

        # newborns take their initializing detection's row
        identity = np.concatenate([identity, det_gt[out.row_detections[out.num_tracks:]]])
        score_frames.append((out.scores, classes[identity]))

        # segmentation targets: the earliest active track of a gt row owns the
        # object's pixels (instance-map value k + 1 for the k-th active row)
        if out.seg_logits is not None:
            rows, first = np.unique(identity[out.row_detections >= 0], return_index=True)
            owner = np.zeros(len(classes), dtype=int)
            owner[rows[rows >= 0] + 1] = first[rows >= 0] + 1
            seg_frames.append((out.seg_logits, owner[gt_maps[t]].reshape(
                config.mask_grid, config.mask_grid)))
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
    """Adam on the batch-mean loss; returns the loss curve as a list of
    LossBreakdown.  Raises DivergenceError on a non-finite loss.

    Each sequence of a batch is recorded on its own tape and swept at once,
    its loss scaled by 1/batch_size, onto the parameters' gradients, so an
    iteration holds one sequence's tape, not the batch's.  The sequences are
    swept last first: a reverse sweep over one tape holding the whole batch
    reaches the last sequence first, so each parameter's gradient sums its
    contributions in the same order, bit for bit.  The loss curve still sums
    the sequences in batch order."""
    thresholds = thresholds or tm.Thresholds()
    rng = np.random.default_rng(config.seed)
    state = nc.AdamState(model.params)
    curve: list[LossBreakdown] = []
    for it in range(config.iterations):
        batch_idx = rng.integers(0, len(dataset), size=config.batch_size)
        model.params.zero_grads()
        breakdowns = [None] * config.batch_size
        try:
            for i in reversed(range(config.batch_size)):
                breakdowns[i], grads = _sweep_sequence(dataset[batch_idx[i]], model,
                                                       config, thresholds, it)
            nc.adam_step(model.params, grads, state, lr=config.lr,
                         weight_decay=config.weight_decay)
        except nc.NumericOverflowError as exc:
            # forward/optimizer numeric-state checks are divergence, not crashes
            raise DivergenceError(it) from exc
        total, acc = 0.0, np.zeros(4)
        for bd in breakdowns:
            total += bd.total
            acc += (bd.score, bd.seg, bd.match, bd.init)
        acc /= config.batch_size
        curve.append(LossBreakdown(*acc, total=total * (1.0 / config.batch_size)))
        if log_every and (it + 1) % log_every == 0:
            print(f"iter {it + 1}: total {curve[-1].total:.4f}")
    return curve


def _sweep_sequence(sequence, model: tm.TrackModel, config: TrainConfig,
                    thresholds: tm.Thresholds, it: int):
    """One sequence's share of a training iteration: its loss breakdown and
    the store's gradients once its scaled loss is swept.  The tape is freed
    on return."""
    det_frames, gt = sequence
    with nc.Tape() as tape:
        seq_total, bd = sequence_loss(model, det_frames, gt, config.loss, thresholds)
        scaled = seq_total * (1.0 / config.batch_size)
    if not np.isfinite(bd.total):
        raise DivergenceError(it)
    return bd, nc.backward(tape, scaled, model.params)


# ---------------------------------------------------------------------------
# config and checkpoint files


# external training-config keys that set a ModelConfig or TrainConfig field
_MODEL_KEYS = {"D": "embed_dim", "blocks": "num_blocks", "num_classes": "num_classes",
               "appearance_dim": "appearance_dim", "mask_grid": "mask_grid"}
_TRAIN_KEYS = {"iterations": int, "batch_size": int, "lr": float, "weight_decay": float,
               "seed": int}


def train_config_from_dict(d: dict) -> tuple[ModelConfig, TrainConfig, tm.Thresholds]:
    """External training-config schema: {"T", "batch_size", "lr",
    "weight_decay", "lambdas", "seed", "D", "blocks", "ablations": {...}}.
    An omitted key keeps the ModelConfig, TrainConfig or LossConfig default;
    "T" is accepted, but the data sets the sequence length.  Unknown keys are
    rejected."""
    unknown = set(d) - {"T", "lambdas", "ablations", *_MODEL_KEYS, *_TRAIN_KEYS}
    if unknown:
        raise ValueError(f"unknown training config keys: {sorted(unknown)}")
    model_kw = {field: int(d[key]) for key, field in _MODEL_KEYS.items() if key in d}
    ablations = d.get("ablations", {})
    if not isinstance(ablations, dict):
        raise ValueError(f"ablations must be an object of model config keys, got {ablations!r}")
    model_kw.update(ablations)
    loss = LossConfig(**({"lambdas": tuple(d["lambdas"])} if "lambdas" in d else {}))
    train_kw = {key: cast(d[key]) for key, cast in _TRAIN_KEYS.items() if key in d}
    return (ModelConfig.from_dict(model_kw), TrainConfig(**train_kw, loss=loss),
            tm.Thresholds())


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
