"""Per-frame track management: graph construction, assignment, track birth,
scoring, mask reweighting, and memory update.

The track memory is one TrackMemory: everything step() carries to the next
frame is one row per track, and a TrackState per row holds only the
track's identity and per-frame records.  Every learned piece of a frame
(graph, gate, rate head, appearance update, mask head, score head) runs
once over the stacked rows, and reads the frame's detections as the rows
of the synthworld.DetectionFrame that step() takes.

step() is the full inference loop for one frame and is the same code path
during training (a tape is simply active, so every probability, score, and
logit stays differentiable).  Tracks are never deleted; they are marked
inactive when no detection matches with probability >= 0.31 and live on with
their recurrent state advancing every frame, so an object lost for a few
frames can be reclaimed under its original identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import appearance as ap
from . import assocgraph as ag
from . import numcore as nc
from . import recurrence as rec
from .assocgraph import ModelConfig
from .numcore import NumericError, ParamStore, Tensor
from .synthworld import DataError, DetectionFrame, encode_mask, truncate_detections


@dataclass
class Thresholds:
    init_train: float = 0.31
    init_infer: float = 0.13
    match_active: float = 0.31

    def init_for(self, mode: str) -> float:
        if mode == "train":
            return self.init_train
        if mode == "infer":
            return self.init_infer
        raise NumericError(f"unknown mode {mode!r}")


@dataclass
class FrameRecord:
    t: int
    active: bool
    scores: np.ndarray
    matched_detection: int | None = None
    box: np.ndarray | None = None
    mask: np.ndarray | None = None


@dataclass
class TrackState:
    """Identity and output of one track; its state is a row of TrackMemory."""

    id: int
    birth_frame: int
    records: list[FrameRecord] = field(default_factory=list)

    @property
    def active(self) -> bool:
        """Whether a detection matched the track on its latest frame."""
        return bool(self.records) and self.records[-1].active


@dataclass
class TrackMemory:
    """Every track as one row, the only place track state lives.  As
    Tensors: the recurrent state y, c (M, D), y in (-1, 1) elementwise and a
    newborn's c 0, and the appearance Gaussian's mean and variance mu, sigma
    (M, A), a newborn's sigma sigma0 and an updated one at least
    appearance.VAR_FLOOR.  As numpy rows: the last matched box (M, 4), the
    counts of the matched detections' top classes (M, C) and the sum of
    their top foreground scores (M,).  Row i belongs to tracks[i];
    iterating, len() and indexing go over that TrackState table."""

    tracks: list[TrackState]
    y: Tensor
    c: Tensor
    mu: Tensor
    sigma: Tensor
    boxes: np.ndarray
    class_votes: np.ndarray
    conf_sum: np.ndarray

    @classmethod
    def empty(cls, config: ModelConfig) -> "TrackMemory":
        rows = Tensor(np.zeros((0, config.embed_dim)))
        apps = Tensor(np.zeros((0, config.appearance_dim)))
        return cls(tracks=[], y=rows, c=rows, mu=apps, sigma=apps, boxes=np.zeros((0, 4)),
                   class_votes=np.zeros((0, config.num_classes), dtype=np.int64),
                   conf_sum=np.zeros(0))

    def __len__(self) -> int:
        return len(self.tracks)

    def __iter__(self):
        return iter(self.tracks)

    def __getitem__(self, i) -> TrackState:
        return self.tracks[i]


@dataclass
class TrackModel:
    config: ModelConfig
    params: ParamStore


@dataclass
class FrameOutput:
    """Everything the losses and reporters need for one processed frame.
    match/init probabilities refer to the memory as it stood when the graph
    ran (before any births this frame): match_probs is (m, n), init_probs
    (n,).  scores holds one class distribution per row of the returned
    memory (track_rows, then born), and row_detections (M',) each such row's
    detection this frame, -1 when unmatched: a newborn's is
    row_detections[num_tracks:], and the active rows, row_detections >= 0,
    are the seg_tracks in order."""

    num_tracks: int
    num_dets: int
    detections: DetectionFrame
    match_probs: Tensor
    init_probs: Tensor
    track_rows: list[TrackState]
    born: list[TrackState]
    row_detections: np.ndarray
    scores: Tensor
    seg_logits: Tensor | None
    seg_tracks: list[TrackState]
    instance_map: np.ndarray | None


def build_model(config: ModelConfig, seed: int = 0) -> TrackModel:
    """All learnable parameters, drawn in a fixed order so that every config
    variant starts from identical weights for a given seed."""
    params = ParamStore()
    rng = np.random.default_rng(seed)
    ag.init_gnn_params(params, config, rng)
    rec.init_gate_params(params, config.embed_dim, rng)
    rec.init_simple_gate_params(params, config.embed_dim, rng)
    ap.init_rate_params(params, config.embed_dim, rng)
    init_head_params(params, config, rng)
    return TrackModel(config=config, params=params)


def init_head_params(params: ParamStore, config: ModelConfig, rng):
    d = config.embed_dim
    nc.add_linear(params, "score_head", d, config.num_classes + 1, rng)
    nc.add_linear(params, "mask_head/proj", d, 16, rng)
    # the two 3x3 convolutions as (out, in * 9 taps) weights, each input
    # channel's 9 taps together; conv1's inputs are the 16 projection
    # channels, then the detection mask and the box mask
    nc.add_linear(params, "mask_head/conv1", 18 * 9, 16, rng)
    nc.add_linear(params, "mask_head/conv2", 16 * 9, 1, rng)


# ---------------------------------------------------------------------------
# scoring


def score_tracks(embeddings: Tensor, params: ParamStore) -> Tensor:
    """Class distributions over C+1 (background last) from track embeddings,
    one row per track."""
    return nc.softmax(nc.apply_linear(params, "score_head", embeddings))


def score_tracks_average(class_votes: np.ndarray, conf_sum: np.ndarray) -> np.ndarray:
    """Heuristic scoring of memory rows: (M, C+1) distributions that put the
    mean matched-detection confidence on the majority class (ties go to the
    smaller class id) and the rest on the background.  A row without votes
    gets class 0 with confidence 0."""
    m, num_classes = class_votes.shape
    conf = conf_sum / np.maximum(class_votes.sum(axis=1), 1)
    dist = np.zeros((m, num_classes + 1))
    dist[np.arange(m), np.argmax(class_votes, axis=1)] = conf
    dist[:, num_classes] = 1.0 - conf
    return dist


# ---------------------------------------------------------------------------
# heuristic association


def greedy_assignment(scores: np.ndarray, cutoff: float) -> dict[int, int]:
    """One-to-one track->detection assignment by descending score, stopping
    below the cutoff.  Ties break toward lower track then detection index."""
    used_m, used_n, out = set(), set(), {}
    for flat in np.argsort(-scores, axis=None, kind="stable"):
        m, n = divmod(int(flat), scores.shape[1])
        if scores[m, n] < cutoff:
            break
        if m in used_m or n in used_n:
            continue
        out[m] = n
        used_m.add(m)
        used_n.add(n)
    return out


def heuristic_scores(memory: TrackMemory, frame: DetectionFrame) -> np.ndarray:
    """(m, n) non-learned association scores: appearance cosine (0 against a
    zero vector) + IoU + [same top class] + top foreground score; at most 4."""
    mu, apps = memory.mu.data, frame.appearance
    norms = np.linalg.norm(mu, axis=1)[:, None] * np.linalg.norm(apps, axis=1)
    cosine = np.zeros(norms.shape)
    np.divide(mu @ apps.T, norms, out=cosine, where=norms != 0.0)
    track_class = np.array([np.argmax(t.records[-1].scores[:-1]) if t.records else 0
                            for t in memory], dtype=int)
    same_class = track_class[:, None] == np.argmax(frame.scores[:, :-1], axis=1)
    return cosine + ag.iou_matrix(memory.boxes, frame.boxes) + same_class + frame.top


# ---------------------------------------------------------------------------
# mask reweighting


def render_box_masks(boxes, grid: int) -> np.ndarray:
    """(K, G, G) uint8 0/1 rasters: a pixel is inside a box when its center is."""
    cx, cy, w, h = (v[:, None, None] for v in
                    np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T)
    centers = (np.arange(grid) + 0.5) / grid
    inside = ((np.abs(centers[None, None, :] - cx) <= w / 2)
              & (np.abs(centers[None, :, None] - cy) <= h / 2))
    return inside.astype(np.uint8)


def reweight_masks(embeddings: Tensor, masks, boxes, params: ParamStore, grid: int):
    """Resolve pixel ownership among overlapping track masks.

    embeddings: (K, D) track embeddings; masks: (K, G, G) detection masks,
    read as uint8; boxes: (K, 4) detection boxes.  Returns (instance_map,
    logits): the map holds a row index per pixel (0 = background, i+1 =
    entry i); logits is the (K+1, G, G) stack with the fixed background row
    of zeros first.  argmax keeps the first maximal row, so a pixel whose
    logits tie goes to the background when 0 is among the tied maxima, and
    otherwise to the earliest tied entry.

    The head is two zero-padded 3x3 convolutions, 18 -> 16 -> 1 channels,
    over the track projection (16 channels, constant over each track's
    grid), the detection mask and the box mask, run as one numcore node,
    nc.mask_convs, that reads the stored weights.  It takes the projection
    as (K, 16) rows and the two data channels as one (2, K, G, G) uint8
    stack of mask and box planes, so the tape holds the planes, not their
    tap columns, and the (K, G, G) logits, not the (16, K*G*G) hidden
    activations, which its backward recomputes.  The head records affine,
    relu, mask_convs and the concat of the background row.
    """
    if len(masks) == 0:
        return None, None
    proj = nc.relu(nc.apply_linear(params, "mask_head/proj", embeddings))  # (K, 16)
    planes = np.array([masks, render_box_masks(boxes, grid)], dtype=np.uint8)
    logits = nc.mask_convs(params["mask_head/conv1/w"], params["mask_head/conv1/b"], proj,
                           params["mask_head/conv2/w"], params["mask_head/conv2/b"],
                           planes)                                   # (K, G, G)
    stack = nc.concat([Tensor(np.zeros((1, grid, grid))), logits], axis=0)
    instance_map = np.argmax(stack.data, axis=0)
    return instance_map, stack


# ---------------------------------------------------------------------------
# the per-frame loop


def step(memory: TrackMemory, frame: DetectionFrame, model: TrackModel,
         thresholds: Thresholds, mode: str, frame_index: int):
    """Process one frame; returns (memory, FrameOutput).  `memory` may be []
    for an empty memory.  A frame with rows must match the model's shapes
    (an empty one may have any); its `max_detections` best rows are used.
    The returned memory holds the existing tracks, in order and advanced one
    frame, then the newborns."""
    config, params = model.config, model.params
    if not len(memory):
        memory = TrackMemory.empty(config)
    thr_init = thresholds.init_for(mode)
    shapes = ((4,), (config.num_classes + 1,), (config.appearance_dim,),
              (config.mask_grid, config.mask_grid))
    if not len(frame):
        frame = DetectionFrame.stack([], shapes)
    for f, want in zip(fields(frame), shapes):
        if (got := getattr(frame, f.name).shape[1:]) != want:
            raise DataError(f"frame {frame_index}: detection field {f.name!r} has rows "
                            f"of shape {got}, the model's are {want}")
    frame = truncate_detections(frame, config.max_detections)
    m, n = len(memory), len(frame)

    batch = ag.build_graph_batch(memory, frame, params, config)
    out_batch = ag.gnn_forward(batch, params, config)
    match_p = ag.match_probabilities(out_batch, params, config)
    init_p = ag.init_probabilities(out_batch, params, config)

    # -- assignment: each existing track's detection, -1 when unmatched -------
    matches = np.full(m, -1)
    if config.heuristic_association:
        assigned = greedy_assignment(heuristic_scores(memory, frame), cutoff=2.0)
        matches[list(assigned)] = list(assigned.values())
        match_p = Tensor((matches[:, None] == np.arange(n)).astype(np.float64))
        init_p = Tensor(1.0 - match_p.data.sum(axis=0))
        init_decisions = init_p.data >= 0.5
    else:
        if n:
            best = np.argmax(match_p.data, axis=1)
            hit = match_p.data[np.arange(m), best] >= thresholds.match_active
            matches[hit] = best[hit]
        init_decisions = init_p.data >= thr_init

    # -- advance existing tracks through the gate; births (refused once the
    # memory holds max_tracks) ----------------------------------------------
    tau_tilde = nc.gather(out_batch.tracks, np.arange(1, m + 1))
    if config.gate_mode == "lstm":
        y, c = rec.gate_step(tau_tilde, memory.c, params)
    else:
        y, c = rec.simple_gate_step(tau_tilde, params), Tensor(np.zeros(tau_tilde.shape))
    born_js = np.flatnonzero(init_decisions)[: config.max_tracks - m]
    # the last block's detection embeddings feed only the newborn rows
    born_rows = (nc.gather(ag.detection_embeddings(out_batch, params, config), born_js)
                 if len(born_js) else Tensor(np.zeros((0, config.embed_dim))))
    born_y, born_c = rec.new_track_state(born_rows)
    next_id = max((t.id for t in memory), default=-1) + 1
    born = [TrackState(id=next_id + k, birth_frame=frame_index)
            for k in range(len(born_js))]

    # -- appearance updates of the matched existing tracks ---------------------
    tracks = memory.tracks + born
    row_js = np.concatenate([matches, born_js])  # each next-memory row's detection
    # active rows: matched existing tracks in memory order, then the newborns
    seg_rows = np.flatnonzero(row_js >= 0)
    seg_js = row_js[seg_rows]
    u = len(seg_rows) - len(born)
    upd_rows, upd_js = seg_rows[:u], seg_js[:u]
    kappa, nu = ap.predict_rates(nc.gather(y, upd_rows), params)
    upd_mu, upd_sigma = ap.update(
        nc.gather(memory.mu, upd_rows), nc.gather(memory.sigma, upd_rows),
        frame.appearance[upd_js], kappa, nu, freeze_sigma=config.const_variance)
    born_mu, born_sigma = ap.init_model(frame.appearance[born_js], config.sigma0)

    # -- the next memory: one concat (and gather) per stacked tensor; an
    # active row takes its detection's box, class vote and confidence --------
    app_rows = np.arange(m + len(born))
    app_rows[upd_rows] = m + np.arange(u)
    app_rows[m:] += u
    boxes, class_votes, conf_sum = (
        np.concatenate([a, np.zeros((len(born),) + a.shape[1:], a.dtype)])
        for a in (memory.boxes, memory.class_votes, memory.conf_sum))
    boxes[seg_rows] = frame.boxes[seg_js]
    class_votes[seg_rows, np.argmax(frame.scores[seg_js, :-1], axis=1)] += 1
    conf_sum[seg_rows] += frame.top[seg_js]
    nxt = TrackMemory(
        tracks=tracks,
        y=nc.concat([y, born_y], axis=0),
        c=nc.concat([c, born_c], axis=0),
        mu=nc.gather(nc.concat([memory.mu, upd_mu, born_mu], axis=0), app_rows),
        sigma=nc.gather(nc.concat([memory.sigma, upd_sigma, born_sigma], axis=0),
                        app_rows),
        boxes=boxes, class_votes=class_votes, conf_sum=conf_sum)

    instance_map, seg_logits = reweight_masks(
        nc.gather(nxt.y, seg_rows), frame.masks[seg_js], frame.boxes[seg_js], params,
        config.mask_grid)

    # -- scoring and per-frame records -----------------------------------------
    if config.heuristic_scoring:
        scores = Tensor(score_tracks_average(class_votes, conf_sum))
    else:
        scores = score_tracks(nxt.y, params)
    k = 0  # instance-map value of the latest active row
    for row, (track, j) in enumerate(zip(tracks, row_js.tolist())):
        record = FrameRecord(t=frame_index, active=j >= 0, scores=scores.data[row].copy())
        if j >= 0:
            k += 1
            record.matched_detection = j
            record.box = frame.boxes[j].copy()
            record.mask = (instance_map == k).astype(np.uint8)
        track.records.append(record)

    output = FrameOutput(
        num_tracks=m,
        num_dets=n,
        detections=frame,
        match_probs=match_p,
        init_probs=init_p,
        track_rows=memory.tracks,
        born=born,
        row_detections=row_js,
        scores=scores,
        seg_logits=seg_logits,
        seg_tracks=[tracks[row] for row in seg_rows.tolist()],
        instance_map=instance_map,
    )
    return nxt, output


def run_sequence(detection_frames, model: TrackModel,
                 thresholds: Thresholds | None = None, mode: str = "infer"):
    """Feed every frame through step(); returns (memory, outputs)."""
    thresholds = thresholds or Thresholds()
    memory = TrackMemory.empty(model.config)
    outputs = []
    for t, frame in enumerate(detection_frames):
        memory, out = step(memory, frame, model, thresholds, mode, t)
        outputs.append(out)
    return memory, outputs


# ---------------------------------------------------------------------------
# track output serialization


def tracks_to_json(memory: TrackMemory, num_frames: int) -> dict:
    tracks = []
    for t in memory:
        frames = []
        for r in t.records:
            entry = {"t": r.t, "active": bool(r.active),
                     "scores": [float(v) for v in r.scores]}
            if r.active:
                entry["box"] = [float(v) for v in r.box]
                entry["mask"] = encode_mask(r.mask)
            frames.append(entry)
        tracks.append({"id": t.id, "birth_frame": t.birth_frame, "frames": frames})
    return {"num_frames": num_frames, "tracks": tracks}
