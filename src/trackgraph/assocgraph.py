"""Bipartite association graph over the live tracks and one frame's detections.

Row 0 of the track side is the learned empty-track node whose edges carry
track-initialization evidence; it runs through the same block structure as
real tracks but with its own node-update weights.  Each block updates edges
from [edge, track, detection], then both node types from gated sums of the
updated edges; blocks are optionally interleaved with per-element residual
bottlenecks.  Logistic heads on the final edges give match probabilities
(real rows) and initialization probabilities (row 0).

The graph holds exactly the m live tracks (plus the empty-track row) and
the n detections of the frame, so the capacities in ModelConfig only bound
how many tracks may be born and how many detections a frame keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import appearance as ap
from . import numcore as nc
from .numcore import ParamStore, Tensor
from .synthworld import DetectionFrame, check_fields

EDGE_FEATURES = 2  # [appearance log-likelihood / A, IoU]  (row 0: [0, top score])
GATE_MODES = ("lstm", "simple")


@dataclass
class ModelConfig:
    """Architecture and ablation switches; one instance describes the whole
    model, so checkpoints and ablation runs are a single config apart."""

    num_classes: int = 5          # foreground classes; background is index C
    embed_dim: int = 32           # D
    appearance_dim: int = 8
    mask_grid: int = 24
    num_blocks: int = 2
    interleave_residuals: bool = True
    gated_aggregation: bool = True    # off: 2-layer MLP node updates, plain sums
    limited_gnn: bool = False         # pairwise logistic + best-match gather only
    use_appearance: bool = True       # off: appearance edge feature is zero
    const_variance: bool = False      # freeze track covariance at sigma0
    gate_mode: str = "lstm"           # lstm | simple
    heuristic_scoring: bool = False
    heuristic_association: bool = False
    max_tracks: int = 24              # births are refused once this many tracks exist
    max_detections: int = 16          # a frame keeps its highest-scoring detections
    sigma0: float = 1e-3

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"gate_mode must be one of {GATE_MODES}, got {self.gate_mode!r}")
        if self.sigma0 <= 0:
            raise ValueError(f"sigma0 must be a number > 0, got {self.sigma0!r}")

    @property
    def det_input_dim(self) -> int:
        return self.num_classes + 5  # C+1 scores plus 4 box coordinates

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class GraphBatch:
    """Graph state for m live tracks and n detections.  tracks: (m+1, D) with
    row 0 the empty-track node; dets: (n, *); edges: (m+1, n, *); edge_feats
    keeps the initial two-feature edges for the limited-mode heads;
    block_edges is set by gnn_forward."""

    tracks: Tensor
    dets: Tensor
    edges: Tensor
    edge_feats: Tensor
    block_edges: Tensor | None = None


# ---------------------------------------------------------------------------
# geometry


def _corners(cx, cy, w, h):
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """(len(boxes_a), len(boxes_b)) intersection over union of (cx, cy, w, h)
    boxes; 0 where the union is empty.  The one box IoU of the package."""
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4).T[:, None, :]
    ax0, ay0, ax1, ay1 = _corners(*a)
    bx0, by0, bx1, by1 = _corners(*b)
    iw = np.maximum(0.0, np.minimum(ax1, bx1) - np.maximum(ax0, bx0))
    ih = np.maximum(0.0, np.minimum(ay1, by1) - np.maximum(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    out = np.zeros(union.shape)
    np.divide(inter, union, out=out, where=~(union <= 0.0))
    return out


# ---------------------------------------------------------------------------
# parameters


def _add_gate_mlp(params: ParamStore, name: str, dim: int, rng):
    hidden = max(dim // 4, 1)
    nc.add_linear(params, f"{name}/l1", dim, hidden, rng)
    nc.add_linear(params, f"{name}/l2", hidden, dim, rng)


def _add_residual(params: ParamStore, name: str, dim: int, rng):
    hidden = max(dim // 4, 1)
    nc.add_linear(params, f"{name}/l1", dim, hidden, rng)
    nc.add_linear(params, f"{name}/l2", hidden, hidden, rng)
    nc.add_linear(params, f"{name}/l3", hidden, dim, rng)


def init_gnn_params(params: ParamStore, config: ModelConfig, rng: np.random.Generator):
    """All graph-side parameters.  Every config gets the same parameter set in
    the same draw order, so ablation runs with a shared seed start from
    identical weights."""
    d = config.embed_dim
    din = config.det_input_dim
    params.add("tau0", nc.uniform_init(rng, (d,), d))
    for k in range(config.num_blocks):
        e_in = EDGE_FEATURES + d + din if k == 0 else 3 * d
        d_in = din + d if k == 0 else 2 * d
        nc.add_linear(params, f"block{k}/f_e", e_in, d, rng)
        nc.add_linear(params, f"block{k}/f_e2", d, d, rng)
        for node in ("tau", "tau0"):
            _add_gate_mlp(params, f"block{k}/g_{node}", d, rng)
            nc.add_linear(params, f"block{k}/f_{node}", 2 * d, d, rng)
            nc.add_linear(params, f"block{k}/f_{node}2", d, d, rng)
        _add_gate_mlp(params, f"block{k}/g_delta", d, rng)
        nc.add_linear(params, f"block{k}/f_delta", d_in, d, rng)
        nc.add_linear(params, f"block{k}/f_delta2", d, d, rng)
        for elem in ("edges", "tracks", "dets"):
            _add_residual(params, f"res{k}/{elem}", d, rng)
    nc.add_linear(params, "match_head", d, 1, rng)
    nc.add_linear(params, "init_head", d, 1, rng)
    nc.add_linear(params, "match_feat_head", EDGE_FEATURES, 1, rng)
    nc.add_linear(params, "init_feat_head", EDGE_FEATURES, 1, rng)


# ---------------------------------------------------------------------------
# forward pieces


def _gate_mlp(params, name, x):
    h = nc.relu(nc.apply_linear(params, f"{name}/l1", x))
    return nc.sigmoid(nc.apply_linear(params, f"{name}/l2", h))


def _residual(params, name, x):
    h = nc.relu(nc.apply_linear(params, f"{name}/l1", x))
    h = nc.relu(nc.apply_linear(params, f"{name}/l2", h))
    h = nc.apply_linear(params, f"{name}/l3", h)
    return nc.relu(x + h)


def _node_update(params, block, node, x, agg, gated):
    h = nc.relu(nc.apply_linear(params, f"{block}/f_{node}",
                                nc.concat([x, agg], axis=-1)))
    if not gated:
        h = nc.relu(nc.apply_linear(params, f"{block}/f_{node}2", h))
    return h


def _aggregate(params, gate_name, edges, axis, gated, weight=None):
    """Sum of (optionally gated) edge messages over `axis`, each message
    scaled by its entry of `weight` when one is given."""
    msg = _gate_mlp(params, gate_name, edges) * edges if gated else edges
    if weight is not None:
        msg = msg * Tensor(weight)
    return nc.slot_sum(msg, axis=axis)


def _check_finite(tensors, label: str):
    for t in tensors:
        if not np.all(np.isfinite(t.data)):
            raise nc.NumericOverflowError(f"non-finite values after {label}")


def gnn_forward(batch: GraphBatch, params: ParamStore, config: ModelConfig) -> GraphBatch:
    """Run the block stack and return the batch with updated track and edge
    embeddings.  The last block's detection update feeds only newborn rows,
    and no edge depends on it, so the stack stops before it: dets are the
    rows that enter it and block_edges the block's edges before their
    residual, from which detection_embeddings runs it."""
    tr, de, ed = batch.tracks, batch.dets, batch.edges
    ma, na = ed.shape[0], ed.shape[1]
    gated = config.gated_aggregation
    last = 0 if config.limited_gnn else config.num_blocks - 1

    # limited_gnn is one block in which each real track gathers only from
    # the detection its raw-feature match probability ranks first; row 0 and
    # the detections gather nothing.
    w_row0 = w_rest = None
    if config.limited_gnn:
        w_row0, w_rest = (np.zeros((rows, na, 1)) for rows in (1, ma - 1))
        if ma > 1 and na > 0:
            probs = _head_probs(params, "match_feat_head", batch.edge_feats).data[1:]
            w_rest[np.arange(ma - 1), np.argmax(probs, axis=1)] = 1.0
    for k in range(last + 1):
        ed = _edge_update(params, k, ed, tr, de, gated)
        # each track-side gate runs only on the edge rows it aggregates
        agg_t0 = _aggregate(params, f"block{k}/g_tau0", nc.gather(ed, [0]), 1, gated,
                            w_row0)
        agg_t = _aggregate(params, f"block{k}/g_tau", nc.gather(ed, np.arange(1, ma)),
                           1, gated, w_rest)
        tr = _split_track_update(params, k, tr, agg_t0, agg_t, gated)
        if k == last:
            break
        ed, tr, de = _finish_block(params, config, k, edges=ed, tracks=tr,
                                   dets=_detection_update(params, config, k, ed, de))
    block_edges = ed
    ed, tr = _finish_block(params, config, last, edges=ed, tracks=tr)
    return GraphBatch(tracks=tr, dets=de, edges=ed, edge_feats=batch.edge_feats,
                      block_edges=block_edges)


def detection_embeddings(batch: GraphBatch, params: ParamStore,
                         config: ModelConfig) -> Tensor:
    """(n, D) detection embeddings after the last block: that block's
    detection update and residual, run on a gnn_forward result."""
    last = 0 if config.limited_gnn else config.num_blocks - 1
    (de,) = _finish_block(params, config, last, dets=_detection_update(
        params, config, last, batch.block_edges, batch.dets))
    return de


def _detection_update(params, config, k, ed, de):
    """Block k's detection update from its updated edges (limited_gnn weighs
    every edge message 0)."""
    gated = config.gated_aggregation
    weight = np.zeros(ed.shape[:2] + (1,)) if config.limited_gnn else None
    agg_d = _aggregate(params, f"block{k}/g_delta", ed, 0, gated, weight)
    return _node_update(params, f"block{k}", "delta", de, agg_d, gated)


def _finish_block(params, config, k, **rows):
    """Check block k's updated rows, given by name (edges, tracks, dets), and
    run each through its residual when they are interleaved."""
    _check_finite(rows.values(), f"GNN block {k}")
    if config.interleave_residuals:
        rows = {name: _residual(params, f"res{k}/{name}", x) for name, x in rows.items()}
        _check_finite(rows.values(), f"residual block {k}")
    return tuple(rows.values())


def _edge_update(params, k, ed, tr, de, gated):
    ma, na = ed.shape[0], ed.shape[1]
    tr_b = nc.broadcast_to(nc.reshape(tr, (ma, 1, tr.shape[-1])), (ma, na, tr.shape[-1]))
    de_b = nc.broadcast_to(nc.reshape(de, (1, na, de.shape[-1])), (ma, na, de.shape[-1]))
    h = nc.relu(nc.apply_linear(params, f"block{k}/f_e",
                                nc.concat([ed, tr_b, de_b], axis=-1)))
    if not gated:
        h = nc.relu(nc.apply_linear(params, f"block{k}/f_e2", h))
    return h


def _split_track_update(params, k, tr, agg_row0, agg_rest, gated):
    """Row 0 runs through its own weights; remaining rows share one set."""
    row0 = _node_update(params, f"block{k}", "tau0", nc.gather(tr, [0]), agg_row0, gated)
    rest = _node_update(params, f"block{k}", "tau",
                        nc.gather(tr, np.arange(1, tr.shape[0])), agg_rest, gated)
    return nc.concat([row0, rest], axis=0)


def _head_probs(params, head, edges):
    return nc.reshape(nc.sigmoid(nc.apply_linear(params, head, edges)), edges.shape[:-1])


def match_probabilities(batch: GraphBatch, params: ParamStore,
                        config: ModelConfig) -> Tensor:
    """(m, n) match probabilities for the real track rows."""
    source = batch.edge_feats if config.limited_gnn else batch.edges
    head = "match_feat_head" if config.limited_gnn else "match_head"
    return _head_probs(params, head, nc.gather(source, np.arange(1, source.shape[0])))


def init_probabilities(batch: GraphBatch, params: ParamStore,
                       config: ModelConfig) -> Tensor:
    """(n,) new-track probabilities from the empty-track row's edges."""
    source = batch.edge_feats if config.limited_gnn else batch.edges
    head = "init_feat_head" if config.limited_gnn else "init_head"
    probs = _head_probs(params, head, nc.gather(source, [0]))
    return nc.reshape(probs, (source.shape[1],))


# ---------------------------------------------------------------------------
# batch construction


def build_graph_batch(memory, frame: DetectionFrame, params: ParamStore,
                      config: ModelConfig) -> GraphBatch:
    """Assemble the live graph from the track memory and one stacked
    detection frame.  `memory` has len() m and stacked rows: .y (m, D), .mu
    and .sigma (m, A) Tensors and .boxes (m, 4).  A detection node starts as
    [scores, box], and row 0's edges as [0, top foreground score]."""
    m, n = len(memory), len(frame)
    a_dim = config.appearance_dim
    tau0 = nc.reshape(params["tau0"], (1, config.embed_dim))
    tracks_t = nc.concat([tau0, memory.y], axis=0)
    det_arr = np.concatenate([frame.scores, frame.boxes], axis=1)
    row0 = np.stack([np.zeros(n), frame.top], axis=1).reshape(1, n, EDGE_FEATURES)

    if config.use_appearance:
        ll = ap.log_likelihood(nc.reshape(memory.mu, (m, 1, a_dim)),
                               nc.reshape(memory.sigma, (m, 1, a_dim)),
                               frame.appearance.reshape(1, n, a_dim)) * (1.0 / a_dim)
    else:
        ll = Tensor(np.zeros((m, n)))
    ious = Tensor(iou_matrix(memory.boxes, frame.boxes))
    real = nc.concat([nc.reshape(ll, (m, n, 1)), nc.reshape(ious, (m, n, 1))], axis=2)
    feats = nc.concat([Tensor(row0), real], axis=0)
    return GraphBatch(tracks=tracks_t, dets=Tensor(det_arr), edges=feats,
                      edge_feats=feats)
