import numpy as np
import pytest

from trackgraph import appearance as ap
from trackgraph import assocgraph as ag
from trackgraph import numcore as nc
from trackgraph import synthworld as sw
from trackgraph import trackman as tm
from trackgraph.numcore import NumericError, ParamStore, Tape, Tensor, backward, grad_check

from oracles import gnn_forward_all_rows, iou


def make_frame(config, rows):
    """Frame from per-detection (box, scores, appearance) rows, with empty
    masks; with no rows, the config's shapes."""
    g = config.mask_grid
    scores = np.shape(rows[0][1]) if rows else (config.num_classes + 1,)
    return sw.DetectionFrame.stack(
        zip(*[(box, s, app, np.zeros((g, g)), None) for box, s, app in rows]),
        ((4,), scores, (config.appearance_dim,), (g, g)))


def make_memory(rows, embed_dim, appearance_dim):
    """TrackMemory from per-track (mu, sigma, box, y) rows, without votes (the
    graph reads none)."""
    def stack(k, width):
        return Tensor(np.array([r[k] for r in rows], dtype=np.float64).reshape(-1, width))

    m = len(rows)
    return tm.TrackMemory(
        tracks=[tm.TrackState(id=i, birth_frame=0) for i in range(m)],
        y=stack(3, embed_dim), c=Tensor(np.zeros((m, embed_dim))),
        mu=stack(0, appearance_dim), sigma=stack(1, appearance_dim),
        boxes=stack(2, 4).data, class_votes=np.zeros((m, 1), dtype=int),
        conf_sum=np.zeros(m))


def permute(memory, perm):
    return tm.TrackMemory(tracks=[memory.tracks[i] for i in perm],
                          y=Tensor(memory.y.data[perm]), c=Tensor(memory.c.data[perm]),
                          mu=Tensor(memory.mu.data[perm]),
                          sigma=Tensor(memory.sigma.data[perm]), boxes=memory.boxes[perm],
                          class_votes=memory.class_votes[perm],
                          conf_sum=memory.conf_sum[perm])


def small_config(**kw):
    base = dict(num_classes=4, embed_dim=8, appearance_dim=3, num_blocks=2,
                max_tracks=6, max_detections=5)
    base.update(kw)
    return ag.ModelConfig(**base)


def random_inputs(rng, config, m, n):
    rows = [
        (rng.normal(size=config.appearance_dim),
         rng.uniform(0.2, 1.5, size=config.appearance_dim),
         [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.2, 0.3],
         rng.uniform(-0.9, 0.9, size=config.embed_dim))
        for _ in range(m)
    ]
    tracks = make_memory(rows, config.embed_dim, config.appearance_dim)
    dets = []
    for _ in range(n):
        raw = rng.uniform(0.05, 1.0, size=config.num_classes + 1)
        dets.append(([rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), 0.25, 0.2],
                     raw / raw.sum(), rng.normal(size=config.appearance_dim)))
    return tracks, make_frame(config, dets)


def det_inputs(frame):
    """Initial detection nodes by definition: class scores, then the box."""
    return [np.concatenate([s, b]) for s, b in zip(frame.scores, frame.boxes)]


def make_params(config, seed=0, generic_point=False):
    """generic_point randomizes biases too: with zero biases, ReLU chains put
    pre-activations exactly at the kink (relu emits exact zeros, and zero
    plus a zero bias is zero), which breaks finite-difference checks."""
    params = ParamStore()
    ag.init_gnn_params(params, config, np.random.default_rng(seed))
    if generic_point:
        jitter = np.random.default_rng(seed + 1)
        for name in params.names():
            if name.endswith("/b"):
                params[name].data[...] = jitter.uniform(-0.3, 0.3,
                                                        size=params[name].shape)
    return params


# ---------------------------------------------------------------------------
# straight-line re-implementation of the block equations (the oracle)


def relu(x):
    return np.maximum(x, 0.0)


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_gate(p, name, x):
    h = relu(p[f"{name}/l1/w"].data @ x + p[f"{name}/l1/b"].data)
    return sig(p[f"{name}/l2/w"].data @ h + p[f"{name}/l2/b"].data)


def oracle_residual(p, name, x):
    h = relu(p[f"{name}/l1/w"].data @ x + p[f"{name}/l1/b"].data)
    h = relu(p[f"{name}/l2/w"].data @ h + p[f"{name}/l2/b"].data)
    h = p[f"{name}/l3/w"].data @ h + p[f"{name}/l3/b"].data
    return relu(x + h)


def oracle_forward(p, config, tracks, dets, edges):
    """Loop-per-element evaluation of the stacked block equations."""
    tracks = [t.copy() for t in tracks]
    dets = [d.copy() for d in dets]
    edges = {k: v.copy() for k, v in edges.items()}
    ma, na = len(tracks), len(dets)
    for k in range(config.num_blocks):
        blk = f"block{k}"
        new_e = {}
        for m2 in range(ma):
            for n2 in range(na):
                z = np.concatenate([edges[(m2, n2)], tracks[m2], dets[n2]])
                new_e[(m2, n2)] = relu(p[f"{blk}/f_e/w"].data @ z + p[f"{blk}/f_e/b"].data)
        new_tracks = []
        for m2 in range(ma):
            node = "tau0" if m2 == 0 else "tau"
            agg = np.zeros(config.embed_dim)
            for n2 in range(na):
                e = new_e[(m2, n2)]
                agg = agg + oracle_gate(p, f"{blk}/g_{node}", e) * e
            z = np.concatenate([tracks[m2], agg])
            new_tracks.append(relu(p[f"{blk}/f_{node}/w"].data @ z
                                   + p[f"{blk}/f_{node}/b"].data))
        new_dets = []
        for n2 in range(na):
            agg = np.zeros(config.embed_dim)
            for m2 in range(ma):
                e = new_e[(m2, n2)]
                agg = agg + oracle_gate(p, f"{blk}/g_delta", e) * e
            z = np.concatenate([dets[n2], agg])
            new_dets.append(relu(p[f"{blk}/f_delta/w"].data @ z
                                 + p[f"{blk}/f_delta/b"].data))
        tracks, dets, edges = new_tracks, new_dets, new_e
        if config.interleave_residuals:
            edges = {key: oracle_residual(p, f"res{k}/edges", v)
                     for key, v in edges.items()}
            tracks = [oracle_residual(p, f"res{k}/tracks", t) for t in tracks]
            dets = [oracle_residual(p, f"res{k}/dets", d) for d in dets]
    return tracks, dets, edges


# ---------------------------------------------------------------------------


def test_iou_identical():
    assert ag.iou_matrix([0.5, 0.5, 0.2, 0.4], [0.5, 0.5, 0.2, 0.4])[0, 0] == 1.0


def test_iou_disjoint():
    assert ag.iou_matrix([0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1])[0, 0] == 0.0


def test_iou_empty_union():
    assert ag.iou_matrix([0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0])[0, 0] == 0.0


def test_iou_corner_boxes_matches_raster_oracle():
    # (0,0)-(2,2) and (1,1)-(3,3) in corner form; rasterize on a fine grid.
    a = [1.0, 1.0, 2.0, 2.0]
    b = [2.0, 2.0, 2.0, 2.0]
    res = 600
    xs = (np.arange(res) + 0.5) / res * 4.0
    grid_a = np.zeros((res, res), bool)
    grid_b = np.zeros((res, res), bool)
    for gi, g in ((grid_a, a), (grid_b, b)):
        x0, y0, x1, y1 = g[0] - g[2] / 2, g[1] - g[3] / 2, g[0] + g[2] / 2, g[1] + g[3] / 2
        gi[np.ix_((xs >= y0) & (xs <= y1), (xs >= x0) & (xs <= x1))] = True
    raster = (grid_a & grid_b).sum() / (grid_a | grid_b).sum()
    exact = ag.iou_matrix([a], [b])[0, 0]
    assert exact == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert exact == pytest.approx(raster, abs=2e-3)


def test_iou_matrix_equals_scalar_iou_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m, n = rng.integers(0, 6, size=2)
        boxes_a = np.column_stack([rng.uniform(0, 1, (m, 2)), rng.uniform(0, 0.5, (m, 2))])
        boxes_b = np.column_stack([rng.uniform(0, 1, (n, 2)), rng.uniform(0, 0.5, (n, 2))])
        if n:
            boxes_b[0, 2:] = 0.0  # an empty box: zero union against itself
        got = ag.iou_matrix(boxes_a, boxes_b)
        assert got.shape == (m, n)
        want = np.array([[iou(a, b) for b in boxes_b] for a in boxes_a]).reshape(m, n)
        np.testing.assert_array_equal(got, want)
    assert ag.iou_matrix([[0.5, 0.5, 0.0, 0.0]], [[0.5, 0.5, 0.0, 0.0]])[0, 0] == 0.0


def first_det_inputs(config, scores, box=(0.5, 0.5, 1.0, 1.0)):
    frame = make_frame(config, [(box, scores, np.zeros(config.appearance_dim))])
    batch = ag.build_graph_batch(make_memory([], config.embed_dim, config.appearance_dim),
                                 frame, make_params(config), config)
    return batch.dets.data[0], batch.edge_feats.data[0, 0]


def test_detection_embedding_dimensions():
    assert first_det_inputs(small_config(num_classes=40), np.full(41, 1 / 41))[0].shape == (45,)
    assert first_det_inputs(small_config(num_classes=4), np.full(5, 0.2))[0].shape == (9,)


def test_detection_embedding_uniform_scores_centered_box():
    np.testing.assert_array_equal(first_det_inputs(small_config(), np.full(5, 0.2))[0],
                                  np.array([0.2] * 5 + [0.5, 0.5, 1.0, 1.0]))


def test_detection_embedding_rejects_bad_score_count():
    config = small_config()
    frame = make_frame(config, [([0.5, 0.5, 1.0, 1.0], np.full(4, 0.25), np.zeros(3))])
    with pytest.raises(sw.DataError, match="frame 0: detection field 'scores'"):
        tm.step([], frame, tm.build_model(config), tm.Thresholds(), "infer", 0)


def test_edge_features_perfect_pair():
    config = small_config(num_classes=2)
    mu = np.array([0.1, -0.4, 0.8])
    memory = make_memory([(mu, np.ones(3), [0.5, 0.5, 0.2, 0.2], np.zeros(8))], 8, 3)
    frame = make_frame(config, [([0.5, 0.5, 0.2, 0.2], [0.7, 0.2, 0.1], mu)])
    batch = ag.build_graph_batch(memory, frame, make_params(config), config)
    feats = batch.edge_feats.data[1, 0]
    max_ll = ap.log_likelihood(ap.GaussianAppearance(mu=Tensor(mu), sigma=Tensor(np.ones(3))),
                               mu).item()
    assert feats[0] == pytest.approx(max_ll / 3)
    assert feats[1] == 1.0


def test_edge_features_disjoint_boxes():
    config = small_config(num_classes=1, appearance_dim=2)
    memory = make_memory([(np.zeros(2), np.ones(2), [0.1, 0.1, 0.1, 0.1], np.zeros(8))],
                         8, 2)
    frame = make_frame(config, [([0.9, 0.9, 0.1, 0.1], [1.0, 0.0], np.zeros(2))])
    batch = ag.build_graph_batch(memory, frame, make_params(config), config)
    assert batch.edge_feats.data[1, 0, 1] == 0.0


def test_empty_track_edge_features_top_score():
    config = small_config(num_classes=2)
    _, row0 = first_det_inputs(config, [0.2, 0.5, 0.3], box=(0.5, 0.5, 0.1, 0.1))
    np.testing.assert_array_equal(row0, [0.0, 0.5])


def test_paper_scale_layer_shapes():
    # D = 128, C = 40: block-1 edge input 2+128+45 = 175, detection input
    # 45+128 = 173, block-2 edge input 3*128 = 384.
    config = ag.ModelConfig(num_classes=40, embed_dim=128, appearance_dim=8)
    params = make_params(config)
    assert params["block0/f_e/w"].shape == (128, 175)
    assert params["block0/f_delta/w"].shape == (128, 173)
    assert params["block0/f_tau/w"].shape == (128, 256)
    assert params["block1/f_e/w"].shape == (128, 384)
    assert params["block0/g_tau/l1/w"].shape == (32, 128)
    assert params["block0/g_tau/l2/w"].shape == (128, 32)


def test_zero_params_give_zero_embeddings():
    config = small_config()
    params = make_params(config)
    for t in params.tensors():
        t.data[...] = 0.0
    rng = np.random.default_rng(0)
    tracks, dets = random_inputs(rng, config, 2, 3)
    batch = ag.build_graph_batch(tracks, dets, params, config)
    out = ag.gnn_forward(batch, params, config)
    np.testing.assert_array_equal(out.tracks.data, 0.0)
    np.testing.assert_array_equal(out.dets.data, 0.0)
    np.testing.assert_array_equal(out.edges.data, 0.0)


def test_zero_gate_weights_mean_half_gates():
    # sigma(0) = 0.5 everywhere, so aggregation must equal 0.5 * sum of edges.
    config = small_config(num_blocks=1, interleave_residuals=False)
    params = make_params(config, seed=3)
    for name in params.names():
        if "/g_" in name:
            params[name].data[...] = 0.0
    rng = np.random.default_rng(1)
    tracks, dets = random_inputs(rng, config, 2, 3)
    batch = ag.build_graph_batch(tracks, dets, params, config)
    out = ag.gnn_forward(batch, params, config)
    # oracle with the same zeroed gates reproduces the 0.5-gated sums
    tr0 = [params["tau0"].data] + list(tracks.y.data)
    de0 = det_inputs(dets)
    edges0 = {(m, n): batch.edge_feats.data[m, n] for m in range(3) for n in range(3)}
    otr, ode, _ = oracle_forward(params, config, tr0, de0, edges0)
    for m in range(3):
        np.testing.assert_allclose(out.tracks.data[m], otr[m], atol=1e-12)


def test_forward_matches_straight_line_oracle():
    config = small_config()
    params = make_params(config, seed=7)
    rng = np.random.default_rng(2)
    tracks, dets = random_inputs(rng, config, 2, 3)
    batch = ag.build_graph_batch(tracks, dets, params, config)
    out = ag.gnn_forward(batch, params, config)

    tr0 = [params["tau0"].data] + list(tracks.y.data)
    de0 = det_inputs(dets)
    edges0 = {(m, n): batch.edge_feats.data[m, n] for m in range(3) for n in range(3)}
    otr, ode, oed = oracle_forward(params, config, tr0, de0, edges0)
    for m in range(3):
        np.testing.assert_allclose(out.tracks.data[m], otr[m], atol=1e-12)
    for n in range(3):
        np.testing.assert_allclose(out.dets.data[n], ode[n], atol=1e-12)
    for (m, n), v in oed.items():
        np.testing.assert_allclose(out.edges.data[m, n], v, atol=1e-12)


@pytest.mark.parametrize("flags", [
    {}, {"gated_aggregation": False}, {"interleave_residuals": False},
    {"limited_gnn": True}, {"limited_gnn": True, "gated_aggregation": False},
])
@pytest.mark.parametrize("m,n", [(3, 4), (0, 3), (2, 0)])
def test_gate_rows_match_all_rows_aggregation(flags, m, n):
    # Each track-side gate runs only on the edge rows its aggregate reads;
    # the oracle runs it on every row and picks the rows afterwards.
    config = small_config(**flags)
    params = make_params(config, seed=11, generic_point=True)
    tracks, dets = random_inputs(np.random.default_rng(5), config, m, n)
    batch = ag.build_graph_batch(tracks, dets, params, config)

    def run(forward):
        params.zero_grads()
        with Tape() as tape:
            out = forward(batch, params, config)
            total = nc.tsum(out.tracks) + nc.tsum(out.dets) + nc.tsum(out.edges)
        return out, backward(tape, nc.reshape(total, ()), params)

    got, grads = run(ag.gnn_forward)
    want, want_grads = run(gnn_forward_all_rows)
    for name in ("tracks", "dets", "edges"):
        np.testing.assert_allclose(getattr(got, name).data, getattr(want, name).data,
                                   rtol=0, atol=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, want_grads[name], rtol=0, atol=1e-12)


def test_forward_oracle_mlp_mode():
    config = small_config(gated_aggregation=False, num_blocks=1)
    params = make_params(config, seed=9)
    rng = np.random.default_rng(3)
    tracks, dets = random_inputs(rng, config, 2, 2)
    batch = ag.build_graph_batch(tracks, dets, params, config)
    out = ag.gnn_forward(batch, params, config)

    # independent re-implementation of the ungated 2-layer MLP variant
    def mlp(prefix, z):
        h = relu(params[f"{prefix}/w"].data @ z + params[f"{prefix}/b"].data)
        return h

    tr = [params["tau0"].data] + list(tracks.y.data)
    de = det_inputs(dets)
    e0 = batch.edge_feats.data
    new_e = {}
    for m in range(3):
        for n in range(2):
            z = np.concatenate([e0[m, n], tr[m], de[n]])
            new_e[(m, n)] = mlp("block0/f_e2", mlp("block0/f_e", z))
    for m in range(3):
        node = "tau0" if m == 0 else "tau"
        agg = sum(new_e[(m, n)] for n in range(2))
        h = mlp(f"block0/f_{node}", np.concatenate([tr[m], agg]))
        h = mlp(f"block0/f_{node}2", h)
        h = oracle_residual(params, "res0/tracks", h)
        np.testing.assert_allclose(out.tracks.data[m], h, atol=1e-12)


def test_permutation_equivariance_randomized():
    rng = np.random.default_rng(11)
    config = small_config()
    params = make_params(config, seed=5)
    for trial in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        tracks, dets = random_inputs(rng, config, m, n)
        batch = ag.build_graph_batch(tracks, dets, params, config)
        out = ag.gnn_forward(batch, params, config)

        perm_d = rng.permutation(n)
        perm_t = rng.permutation(m)
        batch_p = ag.build_graph_batch(permute(tracks, perm_t), dets.rows(perm_d),
                                       params, config)
        out_p = ag.gnn_forward(batch_p, params, config)

        for new_pos, old_pos in enumerate(perm_d):
            np.testing.assert_allclose(out_p.dets.data[new_pos],
                                       out.dets.data[old_pos], rtol=1e-9, atol=1e-12)
        for new_pos, old_pos in enumerate(perm_t):
            np.testing.assert_allclose(out_p.tracks.data[new_pos + 1],
                                       out.tracks.data[old_pos + 1],
                                       rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(out_p.tracks.data[0], out.tracks.data[0],
                                   rtol=1e-9, atol=1e-12)
        for ti, to in enumerate(perm_t):
            for di, do in enumerate(perm_d):
                np.testing.assert_allclose(out_p.edges.data[ti + 1, di],
                                           out.edges.data[to + 1, do],
                                           rtol=1e-9, atol=1e-12)


def test_padding_independence_bit_exact():
    rng = np.random.default_rng(13)
    small = small_config()
    big = small_config(max_tracks=12, max_detections=9)
    params = make_params(small, seed=5)
    for _ in range(20):
        m = int(rng.integers(0, 5))
        n = int(rng.integers(0, 6))
        state = rng.bit_generator.state
        tracks, dets = random_inputs(rng, small, m, n)
        out_s = ag.gnn_forward(ag.build_graph_batch(tracks, dets, params, small),
                               params, small)
        rng.bit_generator.state = state
        tracks2, dets2 = random_inputs(rng, big, m, n)
        out_b = ag.gnn_forward(ag.build_graph_batch(tracks2, dets2, params, big),
                               params, big)
        np.testing.assert_array_equal(out_s.tracks.data[: m + 1],
                                      out_b.tracks.data[: m + 1])
        np.testing.assert_array_equal(out_s.dets.data[:n], out_b.dets.data[:n])
        np.testing.assert_array_equal(out_s.edges.data[: m + 1, :n],
                                      out_b.edges.data[: m + 1, :n])


def test_match_probabilities_zero_head():
    config = small_config()
    params = make_params(config, seed=1)
    params["match_head/w"].data[...] = 0.0
    params["match_head/b"].data[...] = 0.0
    rng = np.random.default_rng(4)
    tracks, dets = random_inputs(rng, config, 2, 3)
    batch = ag.gnn_forward(ag.build_graph_batch(tracks, dets, params, config),
                           params, config)
    probs = ag.match_probabilities(batch, params, config).data
    assert probs.shape == (2, 3)
    np.testing.assert_array_equal(probs, 0.5)


def test_init_probabilities_zero_head_and_masking():
    config = small_config()
    params = make_params(config, seed=1)
    params["init_head/w"].data[...] = 0.0
    params["init_head/b"].data[...] = 0.0
    rng = np.random.default_rng(4)
    tracks, dets = random_inputs(rng, config, 1, 2)
    batch = ag.gnn_forward(ag.build_graph_batch(tracks, dets, params, config),
                           params, config)
    probs = ag.init_probabilities(batch, params, config).data
    assert probs.shape == (2,)
    np.testing.assert_array_equal(probs, 0.5)


def test_match_probability_monotone_in_logit():
    config = small_config()
    params = make_params(config, seed=1)
    rng = np.random.default_rng(6)
    tracks, dets = random_inputs(rng, config, 1, 1)
    batch = ag.gnn_forward(ag.build_graph_batch(tracks, dets, params, config),
                           params, config)
    base = ag.match_probabilities(batch, params, config).data[0, 0]
    params["match_head/b"].data[...] += 2.0
    boosted = ag.match_probabilities(batch, params, config).data[0, 0]
    assert boosted > base


def test_limited_gnn_outputs_well_formed():
    config = small_config(limited_gnn=True)
    params = make_params(config, seed=8)
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(0, 4))
        n = int(rng.integers(0, 5))
        tracks, dets = random_inputs(rng, config, m, n)
        batch = ag.build_graph_batch(tracks, dets, params, config)
        out = ag.gnn_forward(batch, params, config)
        assert np.all(np.isfinite(out.tracks.data))
        assert out.tracks.shape == (m + 1, config.embed_dim)
        assert out.dets.shape == (n, config.embed_dim)
        probs = ag.match_probabilities(out, params, config).data
        assert probs.shape == (m, n)
        assert np.all((probs >= 0) & (probs <= 1))
        init_p = ag.init_probabilities(out, params, config).data
        assert init_p.shape == (n,)


def test_limited_gnn_permutation_equivariance():
    config = small_config(limited_gnn=True)
    params = make_params(config, seed=8)
    rng = np.random.default_rng(9)
    tracks, dets = random_inputs(rng, config, 3, 4)
    out = ag.gnn_forward(ag.build_graph_batch(tracks, dets, params, config),
                         params, config)
    perm = rng.permutation(4)
    out_p = ag.gnn_forward(
        ag.build_graph_batch(tracks, dets.rows(perm), params, config),
        params, config)
    for new_pos, old_pos in enumerate(perm):
        np.testing.assert_allclose(out_p.dets.data[new_pos], out.dets.data[old_pos],
                                   rtol=1e-9, atol=1e-12)
    for m in range(4):
        np.testing.assert_allclose(out_p.tracks.data[m], out.tracks.data[m],
                                   rtol=1e-9, atol=1e-12)


def test_gnn_gradients_match_finite_differences():
    config = small_config(embed_dim=6, num_blocks=2, max_tracks=3, max_detections=3)
    params = make_params(config, seed=15, generic_point=True)
    rng = np.random.default_rng(10)
    tracks, dets = random_inputs(rng, config, 2, 2)
    probe = rng.normal(size=(len(tracks) + 1, config.embed_dim))

    def fn(p):
        batch = ag.build_graph_batch(tracks, dets, p, config)
        out = ag.gnn_forward(batch, p, config)
        return nc.reshape(nc.tsum(out.tracks * Tensor(probe)), ())

    assert grad_check(fn, params) < 1e-4


def test_nonfinite_detection_raises_with_block_name():
    config = small_config()
    params = make_params(config, seed=1)
    for t in params.tensors():
        t.data *= 1e200
    rng = np.random.default_rng(12)
    tracks, dets = random_inputs(rng, config, 1, 1)
    batch = ag.build_graph_batch(tracks, dets, params, config)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="block"):
        ag.gnn_forward(batch, params, config)
