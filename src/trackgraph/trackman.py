"""Per-frame track management: graph construction, assignment, track birth,
scoring, mask reweighting, and memory update.

The track memory is one TrackMemory: the recurrent state and appearance
Gaussians of all M tracks as stacked (M, D) and (M, A) tensors, with identity
and per-frame records in a TrackState side table, one per row.  Every
learned piece of a frame (graph, gate, rate head, appearance update, mask
head, score head) runs once over those stacked rows.

step() is the full inference loop for one frame and is the same code path
during training (a tape is simply active, so every probability, score, and
logit stays differentiable).  Tracks are never deleted; they are marked
inactive when no detection matches with probability >= 0.31 and live on with
their recurrent state advancing every frame, so an object lost for a few
frames can be reclaimed under its original identity.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from . import appearance as ap
from . import assocgraph as ag
from . import numcore as nc
from . import recurrence as rec
from .assocgraph import ModelConfig
from .numcore import NumericError, ParamStore, Tensor
from .synthworld import top_foreground_score, truncate_detections


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
    """Identity and bookkeeping of one track.  Its recurrent state and
    appearance Gaussian live in the matching row of TrackMemory."""

    id: int
    birth_frame: int
    last_box: np.ndarray | None = None
    active: bool = True
    records: list[FrameRecord] = field(default_factory=list)
    # matched-detection history for the heuristic scoring variant
    conf_votes: list[float] = field(default_factory=list)
    class_votes: list[int] = field(default_factory=list)

    @property
    def class_distribution(self) -> np.ndarray:
        return self.records[-1].scores


@dataclass
class TrackMemory:
    """Every track as one row of stacked tensors: recurrent state y and c
    (M, D), appearance mean mu and variance sigma (M, A).  Row i belongs to
    tracks[i]; iterating, len() and indexing go over that TrackState table."""

    tracks: list[TrackState]
    y: Tensor
    c: Tensor
    mu: Tensor
    sigma: Tensor

    @classmethod
    def empty(cls, config: ModelConfig) -> "TrackMemory":
        rows = Tensor(np.zeros((0, config.embed_dim)))
        apps = Tensor(np.zeros((0, config.appearance_dim)))
        return cls(tracks=[], y=rows, c=rows, mu=apps, sigma=apps)

    def __len__(self) -> int:
        return len(self.tracks)

    def __iter__(self):
        return iter(self.tracks)

    def __getitem__(self, i) -> TrackState:
        return self.tracks[i]

    @property
    def boxes(self) -> np.ndarray:
        return np.array([t.last_box for t in self.tracks]).reshape(-1, 4)


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
    memory (track_rows, then born)."""

    frame: int
    num_tracks: int
    num_dets: int
    detections: list
    match_probs: Tensor
    init_probs: Tensor
    track_rows: list[TrackState]
    born: list[TrackState]
    scores: Tensor
    seg_logits: Tensor | None
    seg_tracks: list[TrackState]
    instance_map: np.ndarray | None


HEURISTIC_ASSOC_WEIGHTS = (1.0, 1.0, 1.0, 1.0)


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
    params.add("score_head/w", nc.uniform_init(rng, (config.num_classes + 1, d), d))
    params.add("score_head/b", np.zeros(config.num_classes + 1))
    params.add("mask_head/proj/w", nc.uniform_init(rng, (16, d), d))
    params.add("mask_head/proj/b", np.zeros(16))
    params.add("mask_head/conv1/w", nc.uniform_init(rng, (16, 18 * 9), 18 * 9))
    params.add("mask_head/conv1/b", np.zeros(16))
    params.add("mask_head/conv2/w", nc.uniform_init(rng, (1, 16 * 9), 16 * 9))
    params.add("mask_head/conv2/b", np.zeros(1))


# ---------------------------------------------------------------------------
# scoring


def score_tracks(embeddings: Tensor, params: ParamStore) -> Tensor:
    """Class distributions over C+1 (background last) from track embeddings,
    one row per track."""
    return nc.softmax(nc.linear(params["score_head/w"], params["score_head/b"],
                                embeddings))


def score_tracks_average(confidences, classes) -> tuple[float, int]:
    """Heuristic scoring: mean matched-detection confidence plus majority-vote
    class (ties broken toward the smaller class id)."""
    conf = float(np.mean(confidences)) if len(confidences) else 0.0
    if len(classes) == 0:
        return conf, 0
    counts = np.bincount(np.asarray(classes, dtype=int))
    return conf, int(np.argmax(counts))


def _heuristic_distribution(track: TrackState, num_classes: int) -> np.ndarray:
    conf, cls = score_tracks_average(track.conf_votes, track.class_votes)
    dist = np.zeros(num_classes + 1)
    dist[cls] = conf
    dist[num_classes] = 1.0 - conf
    return dist


# ---------------------------------------------------------------------------
# heuristic association


def association_linear(features, weights=HEURISTIC_ASSOC_WEIGHTS) -> float:
    """Score = w1*cosine(appearance) + w2*IoU + w3*[same class] + w4*conf."""
    return float(np.dot(np.asarray(weights), np.asarray(features, dtype=np.float64)))


def _cosine(a, b) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def greedy_assignment(scores: np.ndarray, cutoff: float) -> dict[int, int]:
    """One-to-one track->detection assignment by descending score, stopping
    below the cutoff.  Ties break toward lower track then detection index."""
    pairs = sorted(
        ((scores[m, n], m, n) for m in range(scores.shape[0])
         for n in range(scores.shape[1])),
        key=lambda x: (-x[0], x[1], x[2]),
    )
    used_m, used_n, out = set(), set(), {}
    for s, m, n in pairs:
        if s < cutoff:
            break
        if m in used_m or n in used_n:
            continue
        out[m] = n
        used_m.add(m)
        used_n.add(n)
    return out


def _heuristic_association(memory: TrackMemory, detections, weights):
    m, n = len(memory), len(detections)
    ious = ag.iou_matrix(memory.boxes, [d.box for d in detections])
    scores = np.zeros((m, n))
    for i, track in enumerate(memory):
        track_class = int(np.argmax(track.class_distribution[:-1])) if track.records else 0
        for j, det in enumerate(detections):
            feats = [
                _cosine(memory.mu.data[i], det.appearance),
                ious[i, j],
                1.0 if int(np.argmax(det.scores[:-1])) == track_class else 0.0,
                top_foreground_score(det),
            ]
            scores[i, j] = association_linear(feats, weights)
    return greedy_assignment(scores, cutoff=sum(weights) / 2.0)


# ---------------------------------------------------------------------------
# mask reweighting


def render_box_masks(boxes, grid: int) -> np.ndarray:
    """(K, G, G) 0/1 rasters: a pixel is inside a box when its center is."""
    cx, cy, w, h = (v[:, None, None] for v in
                    np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T)
    centers = (np.arange(grid) + 0.5) / grid
    inside = ((np.abs(centers[None, None, :] - cx) <= w / 2)
              & (np.abs(centers[None, :, None] - cy) <= h / 2))
    return inside.astype(np.float64)


def _in_grid_taps(grid: int) -> np.ndarray:
    """(G*G, 9) 0/1 table: row i*G + j, column 3*di + dj is 1 when tap
    (di, dj) of pixel (i, j) reads inside the grid (im2col3x3's tap order)."""
    rows = np.arange(3)[:, None] + np.arange(grid)[None, :] - 1
    ok = ((rows >= 0) & (rows < grid)).astype(np.float64)          # (3, G)
    return (ok[:, None, :, None] * ok[None, :, None, :]).reshape(9, grid * grid).T


def reweight_masks(embeddings: Tensor, masks, boxes, params: ParamStore, grid: int):
    """Resolve pixel ownership among overlapping track masks.

    embeddings: (K, D) track embeddings; masks: K (G,G) detection masks;
    boxes: K detection boxes.  Returns (instance_map, logits): the map holds
    a row index per pixel (0 = background, i+1 = entry i); logits is the
    (K+1, G, G) stack with the fixed background row of zeros first.
    Equal-logit ties go to the background because argmax keeps the first
    maximal row.

    The head is two zero-padded 3x3 convolutions, 18 -> 16 -> 1 channels,
    over the track projection (16 channels, broadcast to every pixel), the
    detection mask and the box mask.  A projection channel is constant over
    the grid, so conv1's share of it is taken per tap: P = proj @ conv1's
    projection taps gives each track's (16 out, 9 tap) contribution, and a
    pixel's share is the sum of P over the taps that fall inside the grid,
    one affine with the fixed in-grid table.  Only the two data channels go
    through im2col3x3.  Conv2 runs tap-first: h @ conv2 gives one plane per
    tap, and tap_sum3x3 adds the shifted planes.
    """
    k = len(masks)
    if k == 0:
        return None, None
    for mask in masks:
        if np.shape(mask) != (grid, grid):
            raise NumericError(f"mask shape {np.shape(mask)} does not match grid {grid}")
    gg = grid * grid
    proj = nc.relu(nc.linear(params["mask_head/proj/w"], params["mask_head/proj/b"],
                             embeddings))                          # (K,16)
    # conv1/w is (16 out, 18 in * 9 taps): in < 16 projection, 16/17 data
    w1 = nc.reshape(params["mask_head/conv1/w"], (-1,))
    o, t, c = np.ix_(range(16), range(9), range(16))
    w1_proj = nc.gather(w1, (o * 162 + c * 9 + t).reshape(144, 16))    # (16o*9t, 16c)
    w1_data = nc.gather(w1, np.arange(16)[:, None] * 162 + 144 + np.arange(18))  # (16,18)
    p = nc.linear(w1_proj, Tensor(np.zeros(144)), proj)            # (K, 16o*9t)
    h_proj = nc.linear(nc.reshape(p, (k * 16, 9)), Tensor(np.zeros(k * 16)),
                       Tensor(_in_grid_taps(grid)))                 # (GG, K*16)
    h_proj = nc.swapaxes01(nc.reshape(h_proj, (gg, k, 16)))         # (K,GG,16)
    data = np.stack([np.asarray(masks, dtype=np.float64),
                     render_box_masks(boxes, grid)], axis=1)
    h_data = nc.linear(w1_data, params["mask_head/conv1/b"],
                       nc.im2col3x3(Tensor(data)))                 # (K,GG,16)
    h = nc.relu(h_proj + h_data)
    # conv2 per tap: (9 taps, 16 channels) weights, one (G,G) plane per tap
    w2 = nc.swapaxes01(nc.reshape(params["mask_head/conv2/w"], (16, 9)))
    z = nc.reshape(nc.linear(w2, Tensor(np.zeros(9)), h), (k, grid, grid, 9))
    logits = nc.tap_sum3x3(z) + params["mask_head/conv2/b"]       # (K,G,G)
    stack = nc.concat([Tensor(np.zeros((1, grid, grid))), logits], axis=0)
    instance_map = np.argmax(stack.data, axis=0)
    return instance_map, stack


# ---------------------------------------------------------------------------
# the per-frame loop


def _advance(memory: TrackMemory, tau_tilde: Tensor, params: ParamStore,
             config: ModelConfig) -> rec.RecurrentState:
    """Next (y, c) rows of the existing tracks from their graph outputs."""
    if config.gate_mode == "lstm":
        return rec.gate_step(tau_tilde, rec.RecurrentState(y=memory.y, c=memory.c),
                             params)
    zeros = Tensor(np.zeros(tau_tilde.shape))
    if config.gate_mode == "simple":
        return rec.RecurrentState(y=rec.simple_gate_step(tau_tilde, params), c=zeros)
    if config.gate_mode == "none":
        # Experimental: no gating; known to destabilize training.
        return rec.RecurrentState(y=tau_tilde, c=zeros)
    raise NumericError(f"unknown gate mode {config.gate_mode!r}")


def step(memory: TrackMemory, detections, model: TrackModel,
         thresholds: Thresholds, mode: str, frame_index: int):
    """Process one frame; returns (memory, FrameOutput).  `memory` may be []
    for an empty memory.  The returned memory holds the existing tracks, in
    order and advanced one frame, followed by this frame's newborns."""
    config, params = model.config, model.params
    if not len(memory):
        memory = TrackMemory.empty(config)
    thr_init = thresholds.init_for(mode)
    dets = truncate_detections(detections, config.max_detections)
    m, n = len(memory), len(dets)
    det_apps = np.array([np.asarray(d.appearance, dtype=np.float64)
                         for d in dets]).reshape(n, config.appearance_dim)

    batch = ag.build_graph_batch(memory, dets, params, config)
    out_batch = ag.gnn_forward(batch, params, config)
    match_p = ag.match_probabilities(out_batch, params, config)
    init_p = ag.init_probabilities(out_batch, params, config)

    # -- assignment ---------------------------------------------------------
    if config.heuristic_association:
        assigned = _heuristic_association(memory, dets, HEURISTIC_ASSOC_WEIGHTS)
        matches = [assigned.get(i) for i in range(m)]
        match_data = np.zeros((m, n))
        match_data[list(assigned), list(assigned.values())] = 1.0
        init_data = np.ones(n)
        init_data[list(assigned.values())] = 0.0
        match_p, init_p = Tensor(match_data), Tensor(init_data)
        init_decisions = init_data >= 0.5
    else:
        matches = [None] * m
        if n:
            best = np.argmax(match_p.data, axis=1)
            matches = [int(j) if match_p.data[i, j] >= thresholds.match_active
                       else None for i, j in enumerate(best)]
        init_decisions = init_p.data >= thr_init

    # -- advance existing tracks through the gate; births (refused once the
    # memory holds max_tracks) ----------------------------------------------
    state = _advance(memory, nc.gather(out_batch.tracks, np.arange(1, m + 1)),
                     params, config)
    born_js = [int(j) for j in np.flatnonzero(init_decisions)[: config.max_tracks - m]]
    born_state = rec.new_track_state(nc.gather(out_batch.dets, born_js))
    next_id = max((t.id for t in memory), default=-1) + 1
    born = [TrackState(id=next_id + k, birth_frame=frame_index)
            for k in range(len(born_js))]

    # -- matched-track bookkeeping and appearance updates --------------------
    tracks = memory.tracks + born
    row_js = matches + born_js  # each next-memory row's detection, or None
    for track, j in zip(tracks, row_js):
        track.active = j is not None
        if track.active:
            det = dets[j]
            track.last_box = np.asarray(det.box, dtype=np.float64).copy()
            track.conf_votes.append(top_foreground_score(det))
            track.class_votes.append(int(np.argmax(np.asarray(det.scores)[:-1])))
    # active rows: matched existing tracks in memory order, then the newborns
    seg_rows = [row for row, j in enumerate(row_js) if j is not None]
    seg_js = [row_js[row] for row in seg_rows]
    u = len(seg_rows) - len(born)
    upd_rows, upd_js = seg_rows[:u], seg_js[:u]
    rates = ap.predict_rates(nc.gather(state.y, upd_rows), params)
    updated = ap.update(
        ap.GaussianAppearance(mu=nc.gather(memory.mu, upd_rows),
                              sigma=nc.gather(memory.sigma, upd_rows)),
        det_apps[upd_js], rates, freeze_sigma=config.const_variance)
    newborn = ap.init_model(det_apps[born_js], config.sigma0)

    # -- the next memory: one concat (and gather) per stacked tensor ----------
    app_rows = np.arange(m + len(born))
    app_rows[upd_rows] = m + np.arange(u)
    app_rows[m:] += u
    nxt = TrackMemory(
        tracks=tracks,
        y=nc.concat([state.y, born_state.y], axis=0),
        c=nc.concat([state.c, born_state.c], axis=0),
        mu=nc.gather(nc.concat([memory.mu, updated.mu, newborn.mu], axis=0), app_rows),
        sigma=nc.gather(nc.concat([memory.sigma, updated.sigma, newborn.sigma], axis=0),
                        app_rows))

    instance_map, seg_logits = reweight_masks(
        nc.gather(nxt.y, seg_rows), [dets[j].mask for j in seg_js],
        [dets[j].box for j in seg_js], params, config.mask_grid)

    # -- scoring and per-frame records -----------------------------------------
    if config.heuristic_scoring:
        scores = Tensor(np.array([_heuristic_distribution(t, config.num_classes)
                                  for t in tracks]).reshape(-1, config.num_classes + 1))
    else:
        scores = score_tracks(nxt.y, params)
    for row, track in enumerate(tracks):
        record = FrameRecord(t=frame_index, active=track.active,
                             scores=scores.data[row].copy())
        if track.active:
            k = seg_rows.index(row)
            record.matched_detection = seg_js[k]
            record.box = track.last_box.copy()
            record.mask = (instance_map == k + 1).astype(np.uint8)
        track.records.append(record)

    output = FrameOutput(
        frame=frame_index,
        num_tracks=m,
        num_dets=n,
        detections=dets,
        match_probs=match_p,
        init_probs=init_p,
        track_rows=memory.tracks,
        born=born,
        scores=scores,
        seg_logits=seg_logits,
        seg_tracks=[tracks[row] for row in seg_rows],
        instance_map=instance_map,
    )
    return nxt, output


def run_sequence(detection_frames, model: TrackModel,
                 thresholds: Thresholds | None = None, mode: str = "infer"):
    """Feed every frame through step(); returns (memory, outputs)."""
    thresholds = thresholds or Thresholds()
    memory = TrackMemory.empty(model.config)
    outputs = []
    for t, dets in enumerate(detection_frames):
        memory, out = step(memory, dets, model, thresholds, mode, t)
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
                entry["mask"] = base64.b64encode(
                    np.asarray(r.mask, dtype=np.uint8).tobytes()).decode("ascii")
            frames.append(entry)
        tracks.append({"id": t.id, "birth_frame": t.birth_frame, "frames": frames})
    return {"num_frames": num_frames, "tracks": tracks}
