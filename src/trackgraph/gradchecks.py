"""Named gradient-check fixtures covering every parameterized operation.

Each target builds a small deterministic fixture at a generic parameter
point (biases randomized: at the zero-bias origin, ReLU chains sit exactly
on their kinks and central differences are meaningless) and returns the
worst relative error between reverse-mode and central finite differences.
"""

from __future__ import annotations

import numpy as np

from . import appearance as ap
from . import assocgraph as ag
from . import learn
from . import numcore as nc
from . import recurrence as rec
from . import synthworld as sw
from . import trackman as tm
from .numcore import ParamStore, Tensor, grad_check


def _generic_point(params: ParamStore, seed: int):
    jitter = np.random.default_rng(seed)
    for name in params.names():
        if name.endswith("/b"):
            params[name].data[...] = jitter.uniform(-0.3, 0.3,
                                                    size=params[name].shape)


def _tiny_config(**kw):
    base = dict(num_classes=3, embed_dim=6, appearance_dim=3, mask_grid=4,
                num_blocks=2, max_tracks=3, max_detections=3)
    base.update(kw)
    return ag.ModelConfig(**base)


def _tiny_model(seed=5, **kw):
    model = tm.build_model(_tiny_config(**kw), seed=seed)
    _generic_point(model.params, seed + 1)
    return model


def _tiny_world(seed=11, frames=3):
    cfg = sw.WorldConfig(num_classes=3, frames=frames, max_objects=2,
                         appearance_dim=3, mask_grid=4, exit_prob=0.0,
                         entry_window=1, seed=seed)
    gt = sw.crossing_sequence(cfg, num_pairs=1)
    det = sw.corrupt(gt, sw.NoiseConfig(class_temperature=0.3, box_jitter=0.01,
                                        appearance_noise=0.1), seed=seed + 1)
    return det, gt


def check_linear(epsilon=1e-4) -> float:
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("w", rng.normal(size=(4, 7)))
    store.add("b", rng.uniform(-0.5, 0.5, size=4))
    x = Tensor(rng.normal(size=(3, 7)))
    probe = Tensor(rng.normal(size=(3, 4)))

    def fn(p):
        return nc.reshape(nc.tsum(nc.linear(p["w"], p["b"], x) * probe), ())

    return grad_check(fn, store, epsilon)


def check_activations(epsilon=1e-4) -> float:
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("x", rng.normal(size=(2, 5)))
    probe = Tensor(rng.normal(size=(2, 5)))

    def fn(p):
        h = nc.tanh(p["x"]) + nc.sigmoid(p["x"])
        h = h + nc.softmax(p["x"])
        return nc.reshape(nc.tsum(h * probe), ())

    return grad_check(fn, store, epsilon)


def check_gnn(epsilon=1e-4) -> float:
    model = _tiny_model(seed=5)
    config, params = model.config, model.params
    rng = np.random.default_rng(2)
    det, gt = _tiny_world(seed=11, frames=1)
    frame = det.frames[0]
    rows = [(rng.uniform(-0.8, 0.8, size=config.embed_dim),
             rng.normal(size=config.embed_dim), rng.normal(size=3)) for _ in range(2)]
    y, c, mu = (Tensor(np.array(col)) for col in zip(*rows))
    memory = tm.TrackMemory(
        tracks=[tm.TrackState(id=i, birth_frame=0) for i in range(2)],
        y=y, c=c, mu=mu, sigma=Tensor(np.full(mu.shape, 0.05)),
        boxes=np.tile([0.4, 0.5, 0.2, 0.2], (2, 1)),
        class_votes=np.zeros((2, config.num_classes), dtype=np.int64),
        conf_sum=np.zeros(2))
    probe_t = Tensor(rng.normal(size=(len(memory) + 1, config.embed_dim)))
    probe_m = Tensor(rng.normal(size=(len(memory), len(frame))))

    def fn(p):
        batch = ag.build_graph_batch(memory, frame, params, config)
        out = ag.gnn_forward(batch, params, config)
        probs = ag.match_probabilities(out, params, config)
        init_p = ag.init_probabilities(out, params, config)
        return nc.reshape(nc.tsum(out.tracks * probe_t) + nc.tsum(probs * probe_m)
                          + nc.tsum(init_p), ())

    graph_only = params.subset(lambda n: n.split("/")[0] in
                               ("tau0", "match_head", "init_head")
                               or n.startswith(("block", "res")))
    return grad_check(fn, graph_only, epsilon)


def check_gate(epsilon=1e-4) -> float:
    rng = np.random.default_rng(3)
    params = ParamStore()
    rec.init_gate_params(params, 6, rng)
    _generic_point(params, 4)
    xs = [rng.normal(size=(1, 6)) for _ in range(4)]
    probe = Tensor(rng.normal(size=6))

    def fn(p):
        c = Tensor(np.zeros((1, 6)))
        for x in xs:
            y, c = rec.gate_step(Tensor(x), c, p)
        return nc.reshape(nc.tsum(y * probe), ())

    return grad_check(fn, params, epsilon)


def check_appearance(epsilon=1e-4) -> float:
    rng = np.random.default_rng(4)
    params = ParamStore()
    ap.init_rate_params(params, 6, rng)
    _generic_point(params, 5)
    emb = Tensor(rng.normal(size=(1, 6)))
    x1 = rng.normal(size=3)
    x2 = rng.normal(size=3)
    query = rng.normal(size=3)

    def fn(p):
        mu, sigma = ap.init_model(np.array([[0.2, -0.1, 0.4]]), 0.05)
        mu, sigma = ap.update(mu, sigma, x1, *ap.predict_rates(emb, p))
        mu, sigma = ap.update(mu, sigma, x2, *ap.predict_rates(emb * 0.5, p))
        return nc.reshape(ap.log_likelihood(mu, sigma, query), ())

    return grad_check(fn, params, epsilon)


# Fixture seeds are margin-selected: every ReLU pre-activation and every
# match/init decision sits far enough from its boundary that +-epsilon
# parameter probes cannot flip it (a pre-activation exactly at a kink makes
# central differences report half the one-sided slope).
FULL_STEP_SEED = 1116
LOSS_SEED = 1475


def _loss_fixture(seed, frames):
    model = _tiny_model(seed=seed)
    det, gt = _tiny_world(seed=seed + 10, frames=frames)
    return model, det.frames, gt


def _loss_target(component: str):
    """Per-loss check on a 2-frame fixture.  The mask-head conv parameters
    only reach the seg loss, so the other components skip probing them (the
    full-step target still probes every parameter jointly)."""

    def run(epsilon=1e-4) -> float:
        model, det_frames, gt = _loss_fixture(LOSS_SEED, frames=2)

        def fn(p):
            parts = learn.unroll_sequence(model, det_frames, gt, tm.Thresholds(),
                                          mode="train")
            return parts[component]

        if component == "seg":
            probed = model.params
        else:
            probed = model.params.subset(lambda n: not n.startswith("mask_head"))
        return grad_check(fn, probed, epsilon)

    return run


def check_full_step(epsilon=1e-4) -> float:
    model, det_frames, gt = _loss_fixture(FULL_STEP_SEED, frames=3)

    def fn(p):
        total, _ = learn.sequence_loss(model, det_frames, gt, learn.LossConfig(),
                                       tm.Thresholds(), mode="train")
        return total

    return grad_check(fn, model.params, epsilon)


TARGETS = {
    "linear": check_linear,
    "activations": check_activations,
    "gnn": check_gnn,
    "gate": check_gate,
    "appearance": check_appearance,
    "loss_score": _loss_target("score"),
    "loss_seg": _loss_target("seg"),
    "loss_match": _loss_target("match"),
    "loss_init": _loss_target("init"),
    "full_step": check_full_step,
}


def run_target(name: str, epsilon: float = 1e-4) -> float:
    try:
        fn = TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown gradcheck target {name!r}; choose from {sorted(TARGETS)}"
        ) from None
    return fn(epsilon)
