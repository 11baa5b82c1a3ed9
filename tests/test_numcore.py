import numpy as np
import pytest

from trackgraph import numcore as nc
from trackgraph.numcore import (
    AdamState,
    NumericError,
    ParamStore,
    Tape,
    Tensor,
    adam_step,
    backward,
    grad_check,
    linear,
)


def finite_diff(f, x0, eps=1e-6):
    """Independent central-difference oracle on a flat vector function."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    for i in range(x0.size):
        hi = x0.copy()
        hi[i] += eps
        lo = x0.copy()
        lo[i] -= eps
        out[i] = (f(hi) - f(lo)) / (2 * eps)
    return out


def test_linear_zero_weights():
    w = Tensor(np.zeros((2, 3)))
    b = Tensor([1.0, 2.0])
    out = linear(w, b, Tensor([5.0, -1.0, 0.5]))
    np.testing.assert_array_equal(out.data, [1.0, 2.0])


def test_linear_identity():
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    out = linear(w, b, Tensor([3.0, -1.0]))
    np.testing.assert_array_equal(out.data, [3.0, -1.0])


def test_linear_matrix_case():
    # Oracle: plain matrix multiply written out independently.
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([1.0, 1.0])
    expect = np.array([W[0] @ x, W[1] @ x])
    out = linear(Tensor(W), Tensor(np.zeros(2)), Tensor(x))
    np.testing.assert_array_equal(out.data, expect)
    np.testing.assert_array_equal(expect, [3.0, 7.0])


def test_linear_shape_mismatch_names_both_shapes():
    w = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros(2))
    with pytest.raises(NumericError, match=r"\(4,\).*\(2, 3\)"):
        linear(w, b, Tensor(np.zeros(4)))


def test_linear_leading_axes_one_node_same_bits_as_flat_chain():
    rng = np.random.default_rng(12)
    store = ParamStore()
    w = store.add("w", rng.normal(size=(4, 7)))
    b = store.add("b", rng.uniform(-0.5, 0.5, size=4))
    x = store.add("x", rng.normal(size=(2, 3, 7)))
    probe = Tensor(rng.normal(size=(2, 3, 4)))

    def run(affine):
        store.zero_grads()
        with Tape() as tape:
            y = affine(x)
            total = nc.reshape(nc.tsum(y * probe), ())
        backward(tape, total, store)
        return tape, y, (x.grad, w.grad, b.grad)

    tape, y, grads = run(lambda v: linear(w, b, v))
    assert y.shape == (2, 3, 4)
    assert [node.op for node in tape.nodes] == ["affine", "mul", "sum", "reshape"]
    tape.replay()
    # Oracle: the explicit flatten -> 2-D affine -> unflatten chain.
    _, y_chain, grads_chain = run(lambda v: nc.reshape(
        nc._run("affine", (nc.reshape(v, (6, 7)), w, b)), (2, 3, 4)))
    np.testing.assert_array_equal(y.data, y_chain.data)
    for got, want in zip(grads, grads_chain):
        np.testing.assert_array_equal(got, want)
    err = grad_check(lambda p: nc.reshape(nc.tsum(linear(p["w"], p["b"], x) * probe), ()),
                     store.subset(lambda name: name != "x"))
    assert err < 1e-6


def test_activations_fixed_points():
    assert nc.sigmoid(Tensor(0.0)).item() == 0.5
    assert nc.tanh(Tensor(0.0)).item() == 0.0
    sm = nc.softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(sm.data, [0.25] * 4, atol=1e-15)


def test_item_reads_any_size_one_tensor():
    # a (1, 1) Tensor is the rate pair predict_rates returns for one row
    assert Tensor(np.full((1, 1), 0.25)).item() == 0.25
    assert Tensor(np.array([3.0])).item() == 3.0
    with pytest.raises(ValueError):
        Tensor(np.ones(2)).item()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(50, 7)) * 30)
    y = nc.softmax(x)
    assert np.all(y.data >= 0)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def _sigmoid_two_branch(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(23)
    wide = rng.normal(size=100_000) * 10.0 ** rng.uniform(-6, 3, size=100_000)
    edges = np.array([0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan, -np.nan])
    for a in (wide, edges, wide.reshape(10, 100, 100)):
        got = nc.sigmoid(Tensor(a)).data
        assert got.shape == a.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      _sigmoid_two_branch(a).view(np.uint64))
    assert nc.sigmoid(Tensor(-745.0)).item() > 0.0
    assert nc.sigmoid(Tensor(np.inf)).item() == 1.0


def test_backward_square():
    store = ParamStore()
    x = store.add("x", 3.0)
    with Tape() as tape:
        y = x * x
    grads = backward(tape, y, store)
    assert grads["x"] is x.grad and x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    store = ParamStore()
    x = store.add("x", 0.0)
    with Tape() as tape:
        y = nc.sigmoid(x)
    backward(tape, y, store)
    assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    store = ParamStore()
    x = store.add("x", [1.0, 2.0])
    with Tape() as tape:
        y = x * x
    with pytest.raises(NumericError):
        backward(tape, y, store)


def test_backward_two_layer_net_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(4, 3))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=(1, 4))
    b2 = rng.normal(size=1)
    x = rng.normal(size=3)
    flat0 = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    def value(flat):
        v_w1 = flat[:12].reshape(4, 3)
        v_b1 = flat[12:16]
        v_w2 = flat[16:20].reshape(1, 4)
        v_b2 = flat[20:]
        h = np.tanh(v_w1 @ x + v_b1)
        return float((v_w2 @ h + v_b2)[0])

    numeric = finite_diff(value, flat0)

    store = ParamStore()
    store.add("w1", w1)
    store.add("b1", b1)
    store.add("w2", w2)
    store.add("b2", b2)
    with Tape() as tape:
        h = nc.tanh(linear(store["w1"], store["b1"], Tensor(x)))
        out = linear(store["w2"], store["b2"], h)
        out = nc.reshape(out, ())
    grads = backward(tape, out, store)
    analytic = np.concatenate([grads[n].ravel() for n in store.names()])
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    assert rel.max() < 1e-6


def test_params_off_tape_get_zero_gradient():
    store = ParamStore()
    used = store.add("used", np.array([2.0]))
    store.add("unused", np.array([5.0]))
    with Tape() as tape:
        out = nc.reshape(used * used, ())
    grads = backward(tape, out, store)
    np.testing.assert_array_equal(grads["unused"], [0.0])
    np.testing.assert_array_equal(grads["used"], [4.0])


def test_grad_check_linear_layer():
    rng = np.random.default_rng(3)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 5)))
    store.add("b", rng.normal(size=3))
    x = Tensor(rng.normal(size=5))
    probe = Tensor(rng.normal(size=3))

    def fn(p):
        return nc.reshape(nc.tsum(linear(p["w"], p["b"], x) * probe), ())

    assert grad_check(fn, store) < 1e-8


def test_grad_check_constant_function():
    store = ParamStore()
    store.add("w", np.ones(4))

    def fn(p):
        return Tensor(1.5)

    assert grad_check(fn, store) == 0.0


def test_grad_check_rejects_nan():
    store = ParamStore()
    store.add("w", np.zeros(1))

    def fn(p):
        return nc.reshape(nc.log(p["w"] * 1.0), ())

    with np.errstate(all="ignore"), pytest.raises(NumericError):
        grad_check(fn, store)


def test_tape_replay_bit_exact():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(6, 4)))
    w = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=3))
    with Tape() as tape:
        h = nc.relu(linear(w, b, a))
        s = nc.softmax(h)
        nc.tsum(s)
    tape.replay()


def test_forward_determinism_bit_exact():
    def run():
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(8, 6)))
        w = Tensor(rng.normal(size=(4, 6)))
        b = Tensor(rng.normal(size=4))
        h = nc.relu(linear(w, b, x))
        g = nc.sigmoid(linear(Tensor(rng.normal(size=(4, 4))), Tensor(np.zeros(4)), h))
        return nc.tsum(g * h).item()

    assert run() == run()


def test_slot_sum_padding_bit_exact():
    rng = np.random.default_rng(2)
    active = rng.normal(size=(5, 3, 7))
    padded = np.concatenate([active, np.zeros((5, 4, 7))], axis=1)
    small = nc.slot_sum(Tensor(active), axis=1)
    big = nc.slot_sum(Tensor(padded), axis=1)
    np.testing.assert_array_equal(small.data, big.data)


def test_slot_sum_gradient():
    rng = np.random.default_rng(4)
    store = ParamStore()
    x = store.add("x", rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=3))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.slot_sum(x, axis=1) * w), ())
    backward(tape, out, store)
    expect = np.repeat(w.data[:, None], 5, axis=1)
    np.testing.assert_allclose(x.grad, expect, atol=1e-15)


def test_gather_rows_and_grads():
    store = ParamStore()
    x = store.add("x", np.arange(12.0).reshape(4, 3))
    g = nc.gather(x, [2, 0])
    np.testing.assert_array_equal(g.data, [[6, 7, 8], [0, 1, 2]])
    assert nc.gather(x, []).shape == (0, 3)
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.gather(x, [1, 1, 3])), ())
    backward(tape, out, store)
    np.testing.assert_array_equal(x.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])


@pytest.mark.parametrize("idx", [
    [0, 2, 3], [3, 1, 1, 3], [[0, 1], [4, 6]], [[5, 0], [2, 1]], [], [-7, 0], [2]],
    ids=["unique", "repeated", "2d-increasing", "2d-unique", "empty", "negative", "one"])
def test_gather_backward_scatter_matches_add_at_bit_for_bit(idx):
    # strictly increasing indices take a plain scatter-add; the rest np.add.at
    rng = np.random.default_rng(12)
    a = rng.normal(size=(7, 3, 2))
    idx = np.asarray(idx, dtype=np.intp)
    g = rng.normal(size=idx.shape + a.shape[1:])
    g.reshape(-1)[::4] = -0.0
    want = np.zeros_like(a)
    np.add.at(want, idx, g)
    (got,) = nc._BACKWARD["gather"](idx, g, a[idx], [True], a)
    assert got.shape == a.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _shifted_sum_oracle(z):
    """out[b, i, j] = sum over taps (di, dj) of plane 3*di + dj read at
    (i + di - 1, j + dj - 1), zero outside the grid."""
    _, nb, g, _ = z.shape
    want = np.zeros((nb, g, g))
    for b in range(nb):
        for i in range(g):
            for j in range(g):
                for di in range(3):
                    for dj in range(3):
                        y, x = i + di - 1, j + dj - 1
                        if 0 <= y < g and 0 <= x < g:
                            want[b, i, j] += z[3 * di + dj, b, y, x]
    return want


# mask_convs test shapes: O = 2 hidden channels, P = 3 projection channels,
# C = 2 planes of K = 3 tracks
_CONV_SHAPES = dict(w1=(2, 45), b1=(2,), proj=(3, 3), w2=(1, 18), b2=(1,))


def _pass_through(planes, p=1):
    """mask_convs inputs whose conv1 hands conv2 the C planes themselves as h:
    hidden channel c reads plane c through its center tap alone, and the P
    projection channels and the bias are zero."""
    c, k = planes.shape[:2]
    w1 = np.zeros((c, 9 * (p + c)))
    w1[np.arange(c), 9 * (p + np.arange(c)) + 4] = 1.0
    return Tensor(w1), Tensor(np.zeros(c)), Tensor(np.zeros((k, p)))


def test_conv2_matches_direct_shifted_sum():
    rng = np.random.default_rng(17)
    for nb, g in ((2, 5), (1, 1), (3, 2)):
        z = rng.integers(0, 3, size=(9, nb, g, g), dtype=np.uint8)
        conv1 = _pass_through(z)
        # channel c read through tap c alone hands the oracle the planes themselves
        out = nc.mask_convs(*conv1, Tensor(np.eye(9).reshape(1, 81)), Tensor(np.zeros(1)),
                            z)
        np.testing.assert_allclose(out.data, _shifted_sum_oracle(z.astype(float)),
                                   atol=1e-12)
        # w2[0, 9c + t] weighs channel c through tap t
        w, b = rng.normal(size=(1, 81)), rng.normal(size=1)
        z_w = (w.reshape(9, 9).T @ z.reshape(9, -1)).reshape(9, nb, g, g)
        want = _shifted_sum_oracle(z_w)
        np.testing.assert_allclose(nc.mask_convs(*conv1, Tensor(w), Tensor(b), z).data,
                                   want + b, atol=1e-12)
    w1, b1, proj = (Tensor(np.zeros(s)) for s in list(_CONV_SHAPES.values())[:3])
    planes = np.zeros((2, 3, 4, 4), dtype=np.uint8)
    for w_shape, b_shape in (((2, 18), (1,)),       # more than one output
                             ((1, 27), (1,)),       # channels against w1's outputs
                             ((1, 2, 9), (1,)),     # w not 2-D
                             ((1, 18), (1, 1))):    # bias shape
        with pytest.raises(NumericError, match="conv2 expects"):
            nc.mask_convs(w1, b1, proj, Tensor(np.zeros(w_shape)),
                          Tensor(np.zeros(b_shape)), planes)


def test_conv2_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    store = ParamStore()
    for name in ("w2", "b2"):
        store.add(name, rng.normal(size=_CONV_SHAPES[name]))
    planes = rng.integers(0, 3, size=(2, 2, 4, 4), dtype=np.uint8)
    conv1 = _pass_through(planes)
    probe = Tensor(rng.normal(size=(2, 4, 4)))

    def fn(p):
        logits = nc.mask_convs(*conv1, p["w2"], p["b2"], planes)
        return nc.reshape(nc.tsum(logits * probe), ())

    assert grad_check(fn, store) < 1e-8
    # with h the planes, w2's gradient is the transpose of the oracle's
    # linear map: entry 9c + t sums plane c shifted through tap t times g
    store.zero_grads()
    with Tape() as tape:
        out = fn(store)
    backward(tape, out, store)
    want = np.zeros((2, 9))
    for c in range(2):
        for t in range(9):
            z = np.zeros((9,) + planes.shape[1:])
            z[t] = planes[c]
            want[c, t] = np.sum(_shifted_sum_oracle(z) * probe.data)
    np.testing.assert_allclose(store["w2"].grad, want.reshape(1, 18), atol=1e-12)


def _tap_sum_node(a):
    """The former `tap_sum3x3` primitive's forward, as it was."""
    g = a.shape[2]
    out = np.zeros(a.shape[1:], dtype=a.dtype)
    for di in range(3):
        i0, i1 = max(0, 1 - di), min(g, g + 1 - di)
        for dj in range(3):
            j0, j1 = max(0, 1 - dj), min(g, g + 1 - dj)
            out[:, i0:i1, j0:j1] += a[3 * di + dj, :, i0 + di - 1 : i1 + di - 1,
                                      j0 + dj - 1 : j1 + dj - 1]
    return out


def _tap_columns(planes, grid):
    """The float64 tap columns the head built before conv1 took planes:
    row c*9 + 3*di + dj holds plane stack c read at (i + di - 1, j + dj - 1),
    zero outside the grid."""
    padded = np.zeros((len(planes), len(planes[0]), grid + 2, grid + 2))
    for c, plane in enumerate(planes):
        padded[c, :, 1:-1, 1:-1] = plane
    return np.stack([padded[:, :, di : di + grid, dj : dj + grid] for di in range(3)
                     for dj in range(3)], axis=1).reshape(9 * len(planes), -1)


def _proj_taps(w, p):
    return w[:, : 9 * p].reshape(len(w), p, 9).swapaxes(0, 1).reshape(p, -1)


# The former `conv1` and `conv2` primitives, each one node, as they were.
def _conv1_node(planes, w, b, proj):
    (k, p), o, grid = proj.shape, w.shape[0], planes.shape[-1]
    per_tap = (proj @ _proj_taps(w, p)).reshape(k, o, 9).swapaxes(0, 1).reshape(o * k, 9)
    out = w[:, 9 * p :].copy() @ _tap_columns(planes, grid)
    out += b[:, None]
    out += (per_tap @ _tap_columns(np.ones((1, 1, grid, grid)), grid)).reshape(o, -1)
    return np.maximum(out, 0.0, out=out)


def _conv1_node_backward(planes, g, out, need, w, b, proj):
    (k, p), o, grid = proj.shape, w.shape[0], planes.shape[-1]
    g = g * (out > 0.0)
    g_tap = (g.reshape(o * k, -1) @ _tap_columns(np.ones((1, 1, grid, grid)), grid).T
             ).reshape(o, k, 9).swapaxes(0, 1).reshape(k, o * 9)
    gw = None
    if need[0]:
        gw = np.zeros_like(w)
        blocks = gw.reshape(o, -1, 9)
        blocks[:, :p] += (proj.T @ g_tap).reshape(p, o, 9).swapaxes(0, 1)
        blocks[:, p:] += (g @ _tap_columns(planes, grid).T).reshape(o, -1, 9)
    return (gw, g.sum(axis=1) if need[1] else None,
            g_tap @ _proj_taps(w, p).T if need[2] else None)


def _conv2_node(grid, w, b, h):
    out = _tap_sum_node((w.reshape(-1, 9).T.copy() @ h).reshape(9, -1, grid, grid))
    out += b
    return out


def _conv2_node_backward(grid, g, out, need, w, b, h):
    gz = _tap_columns(g[None], grid)[::-1].copy()
    taps = w.reshape(-1, 9).T.copy()
    return ((gz @ h.T).T.reshape(w.shape) if need[0] else None,
            g.sum(axis=(0, 1)).sum(axis=0, keepdims=True) if need[1] else None,
            taps.T @ gz if need[2] else None)


def _mask_convs(fused: bool, t: dict, planes, grid: int):
    """(h, logits) of the mask head's convolutions: the mask_convs node (h
    None: the node keeps none), or the conv1 -> conv2 two-node chain it
    replaces, which keeps h on the tape."""
    if fused:
        return None, nc.mask_convs(t["w1"], t["b1"], t["proj"], t["w2"], t["b2"], planes)
    h = nc._run("conv1", (t["w1"], t["b1"], t["proj"]), planes)
    return h, nc._run("conv2", (t["w2"], t["b2"], h), grid)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("grid", [4, 6, 24])
@pytest.mark.parametrize("k", [1, 3, 14])
def test_mask_convs_match_the_node_chain_bit_for_bit(monkeypatch, k, grid):
    for op, fwd, bwd in (("conv1", _conv1_node, _conv1_node_backward),
                         ("conv2", _conv2_node, _conv2_node_backward)):
        monkeypatch.setitem(nc._FORWARD, op, fwd)
        monkeypatch.setitem(nc._BACKWARD, op, bwd)
    rng = np.random.default_rng(100 * k + grid)
    shapes = dict(w1=(16, 162), b1=(16,), proj=(k, 16), w2=(1, 144), b2=(1,))
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    values["proj"][:, :4] = 0.0  # projection channels a relu closed, as in the head
    planes = (rng.random((2, k, grid, grid)) < 0.4).astype(np.uint8)  # 0/1 as in the head
    probe = rng.normal(size=(k, grid, grid))
    runs = []
    for fused in (True, False):
        store = ParamStore()
        t = {name: store.add(name, v.copy()) for name, v in values.items()}
        with Tape() as tape:
            h, logits = _mask_convs(fused, t, planes, grid)
            out = nc.reshape(nc.tsum(logits * Tensor(probe)), ())
        first = backward(tape, out, store)  # every leaf is a parameter
        second = backward(tape, out, store)  # adds onto the first sweep's
        runs.append([logits.data] + [g[name] for g in (first, second) for name in shapes])
        tape.replay()
    assert 0.0 < np.mean(h.data > 0.0) < 1.0  # the relu mask has both sides
    for i, (a, b) in enumerate(zip(*runs)):
        assert _same_bits(a, b), i


def test_conv1_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    store = ParamStore()
    for name, shape in _CONV_SHAPES.items():
        store.add(name, rng.normal(size=shape))
    planes = rng.integers(0, 2, size=(2, 3, 4, 4), dtype=np.uint8)
    probe = Tensor(rng.normal(size=(3, 4, 4)))

    def fn(p):
        logits = nc.mask_convs(p["w1"], p["b1"], p["proj"], p["w2"], p["b2"], planes)
        return nc.reshape(nc.tsum(logits * probe), ())

    assert grad_check(fn, store) < 1e-8
    w2, b2 = store["w2"], store["b2"]
    for shapes in (((2, 45, 1), (2,), (3, 3)),    # w not 2-D
                   ((2, 45), (2, 1), (3, 3)),     # bias shape
                   ((2, 45), (2,), (4, 3)),       # proj rows against the tracks
                   ((2, 45), (2,), (3, 4)),       # proj channels against w
                   ((2, 45), (2,), (9,))):        # proj not 2-D
        w, b, proj = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(NumericError, match="conv1 expects"):
            nc.mask_convs(w, b, proj, w2, b2, planes)


def test_conv1_keeps_its_planes_off_the_inputs():
    rng = np.random.default_rng(29)
    store = ParamStore()
    for name, shape in _CONV_SHAPES.items():
        store.add(name, rng.normal(size=shape))
    planes = rng.integers(0, 2, size=(2, 3, 3, 3), dtype=np.uint8)
    with Tape() as tape:
        logits = nc.mask_convs(*store.tensors(), planes)
        out = nc.reshape(nc.tsum(logits * Tensor(rng.normal(size=logits.shape))), ())
    [node] = [node for node in tape.nodes if node.op == "mask_convs"]
    assert node.aux is planes
    assert node.inputs == tuple(store.tensors())
    assert node.output is logits and logits.shape == (3, 3, 3)  # h is not kept
    assert not any(np.shares_memory(t.data, planes) for t in node.inputs)
    backward(tape, out, store)  # every input takes a gradient, the planes none
    assert all(t.grad.shape == t.shape for t in node.inputs)
    tape.replay()


def test_conv1_rejects_planes_that_do_not_fit():
    tensors = [Tensor(np.zeros(s)) for s in _CONV_SHAPES.values()]
    nc.mask_convs(*tensors, np.zeros((2, 3, 4, 4), dtype=np.uint8))
    for planes in (np.zeros((1, 3, 4, 4), dtype=np.uint8),    # channels against w
                   np.zeros((2, 2, 4, 4), dtype=np.uint8),    # tracks against proj
                   np.zeros((2, 3, 4, 5), dtype=np.uint8),    # not square
                   np.zeros((2, 3, 16), dtype=np.uint8),      # not 4-D
                   np.zeros((2, 3, 4, 4))):                   # float64, not uint8
        with pytest.raises(NumericError, match="conv1 expects"):
            nc.mask_convs(*tensors, planes)


def test_param_store_flat_roundtrip():
    rng = np.random.default_rng(1)
    store = ParamStore()
    store.add("a", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=5))
    flat = store.flat_values()
    store.set_flat(np.zeros_like(flat))
    assert np.all(store["a"].data == 0)
    store.set_flat(flat)
    np.testing.assert_array_equal(store.flat_values(), flat)


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("a", np.zeros(1))
    with pytest.raises(NumericError):
        store.add("a", np.zeros(1))


def reference_adam(x, grad_fn, lr, steps, betas=(0.9, 0.999), eps=1e-8):
    """Textbook Adam, written independently of the implementation."""
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        mh = m / (1 - betas[0] ** t)
        vh = v / (1 - betas[1] ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
    return x


def test_adam_zero_gradient_keeps_params():
    store = ParamStore()
    store.add("w", np.array([1.0, -2.0]))
    state = AdamState(store)
    adam_step(store, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(store["w"].data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    store = ParamStore()
    store.add("w", np.array([0.0, 0.0]))
    state = AdamState(store)
    adam_step(store, {"w": np.array([0.3, -8.0])}, state, lr=0.05)
    np.testing.assert_allclose(store["w"].data, [-0.05, 0.05], rtol=1e-6)


def test_adam_quadratic_descent_matches_reference():
    store = ParamStore()
    store.add("x", np.array([1.0]))
    state = AdamState(store)
    for _ in range(100):
        adam_step(store, {"x": 2.0 * store["x"].data}, state, lr=0.1)
    assert abs(store["x"].data[0]) < 0.05
    expect = reference_adam(np.array([1.0]), lambda x: 2.0 * x, 0.1, 100)
    np.testing.assert_allclose(store["x"].data, expect, atol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    store = ParamStore()
    store.add("w", np.zeros(1))
    state = AdamState(store)
    with pytest.raises(NumericError, match="w"):
        adam_step(store, {"w": np.array([np.nan])}, state, lr=0.1)


def test_adam_decoupled_weight_decay():
    store = ParamStore()
    store.add("w", np.array([2.0]))
    state = AdamState(store)
    adam_step(store, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(store["w"].data, [2.0 * (1 - 0.1 * 0.5)])


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_backward_hands_each_part_its_slice(axis):
    rng = np.random.default_rng(10)
    shapes = [[2, 3, 4] for _ in range(3)]
    for shape, size in zip(shapes, (1, 3, 2)):
        shape[axis] = size
    store = ParamStore()
    parts = [store.add(f"part{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    with Tape() as tape:
        joined = nc.concat(parts, axis=axis)
        probe = rng.normal(size=joined.shape)
        out = nc.reshape(nc.tsum(joined * Tensor(probe)), ())
    backward(tape, out, store)
    bounds = np.cumsum([0] + [p.shape[axis] for p in parts])
    for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
        np.testing.assert_array_equal(p.grad, np.take(probe, np.arange(lo, hi), axis=axis))


def test_backward_with_store_adds_onto_parameter_grads_and_keeps_no_other():
    rng = np.random.default_rng(9)
    store = ParamStore()
    w = store.add("w", rng.normal(size=(3, 2)))
    b = store.add("b", rng.normal(size=3))
    x = Tensor(rng.normal(size=(4, 2)))
    with Tape() as tape:
        h = nc.tanh(linear(w, b, x))
        out = nc.reshape(nc.tsum(h * h), ())
    first = backward(tape, out, store)
    assert x.grad is None
    assert all(node.output.grad is None for node in tape.nodes)
    assert first["w"] is w.grad and first["b"] is b.grad
    # no zero_grads(): the second sweep adds its (equal) contribution
    second = backward(tape, out, store)
    for name, t in store.items():
        np.testing.assert_array_equal(second[name], first[name] + first[name])
        assert t.grad is second[name]
    store.zero_grads()
    np.testing.assert_array_equal(backward(tape, out, store)["w"], first["w"])


def test_backward_skips_nodes_no_parameter_reaches(monkeypatch):
    rng = np.random.default_rng(7)
    full = ParamStore()  # every leaf: the unpruned reference sweep
    full.add("w", rng.normal(size=(3, 16)))
    full.add("b", rng.normal(size=3))
    store = full.subset(lambda name: name in ("w", "b"))
    planes = rng.integers(0, 3, size=(9, 2, 4, 4), dtype=np.uint8)
    calls = []
    real = nc._BACKWARD["mask_convs"]
    monkeypatch.setitem(nc._BACKWARD, "mask_convs",
                        lambda *args: calls.append(1) or real(*args))
    conv1 = [full.add(f"conv1/{i}", t.data) for i, t in enumerate(_pass_through(planes))]
    conv2 = full.add("conv2/w", np.eye(9).reshape(1, 81)), full.add("conv2/b", np.zeros(1))
    with Tape() as tape:
        conv = nc.mask_convs(*conv1, *conv2, planes)
        h = nc.tanh(linear(store["w"], store["b"], nc.reshape(conv, (2, 16))))
        out = nc.reshape(nc.tsum(h * Tensor(rng.normal(size=h.shape))), ())
    pruned = backward(tape, out, store)
    assert calls == [] and conv1[0].grad is None
    store.zero_grads()
    swept = backward(tape, out, full)
    assert calls == [1] and conv1[0].grad is not None
    for name in store.names():
        np.testing.assert_array_equal(pruned[name], swept[name])


def test_backward_forms_no_product_for_inputs_no_parameter_reaches(monkeypatch):
    rng = np.random.default_rng(8)
    full = ParamStore()  # every leaf: the unpruned reference sweep
    full.add("w", rng.normal(size=(2, 4)))
    full.add("bias", rng.normal(size=2))
    full.add("w2", rng.normal(size=(1, 18)))
    full.add("b2", rng.normal(size=1))
    store = full.subset(lambda name: name in ("w", "bias", "w2", "b2"))
    x = full.add("x", rng.normal(size=(6, 4)))
    w1, b1, proj = (full.add(name, rng.normal(size=s))
                    for name, s in (("w1", (2, 45)), ("b1", (2,)), ("proj", (3, 3))))
    planes = rng.integers(0, 2, size=(2, 3, 4, 4), dtype=np.uint8)
    formed = {}
    for op in ("mask_convs", "affine"):
        def record(*args, real=nc._BACKWARD[op], op=op):
            formed[op] = real(*args)
            return formed[op]

        monkeypatch.setitem(nc._BACKWARD, op, record)
    conv1_sweeps = []
    real_conv1 = nc._conv1_backward
    monkeypatch.setattr(nc, "_conv1_backward",
                        lambda *args: conv1_sweeps.append(1) or real_conv1(*args))
    with Tape() as tape:
        m = nc.tsum(nc.tanh(nc.mask_convs(w1, b1, proj, store["w2"], store["b2"], planes)))
        out = m * nc.tsum(nc.tanh(linear(store["w"], store["bias"], x)))
    pruned = backward(tape, out, store)
    assert formed["mask_convs"][:3] == (None, None, None)
    assert all(g is not None for g in formed["mask_convs"][3:])
    assert conv1_sweeps == []  # no gradient of h: conv1's backward is not run
    assert formed["affine"][0] is None
    assert w1.grad is None and proj.grad is None and x.grad is None
    formed.clear()
    store.zero_grads()
    swept = backward(tape, out, full)
    assert len(formed) == 2 and all(g is not None for op in formed for g in formed[op])
    assert conv1_sweeps == [1]
    assert w1.grad is not None and proj.grad is not None and x.grad is not None
    for name in store.names():
        np.testing.assert_array_equal(pruned[name], swept[name])


def test_broadcast_to_is_a_read_only_view_with_unchanged_gradients(monkeypatch):
    rng = np.random.default_rng(31)
    a_data, other = rng.normal(size=(3, 1, 4)), Tensor(rng.normal(size=(3, 2, 4)))
    probe = Tensor(rng.normal(size=(3, 7, 4)))
    runs = []
    for copy in (False, True):
        if copy:  # the former forward, which returned a copy
            monkeypatch.setitem(nc._FORWARD, "broadcast_to",
                                lambda shape, a: np.broadcast_to(a, shape).copy())
        store = ParamStore()
        a = store.add("a", a_data.copy())
        with Tape() as tape:
            b = nc.broadcast_to(a, (3, 5, 4))
            out = nc.tsum(nc.tanh(nc.concat([b, other], axis=1)) * probe)
        tape.replay()
        backward(tape, out, store)
        runs.append((a, b, out.data, a.grad))
    (a, view, *swept), (_, _, *copied) = runs
    assert not view.data.flags.writeable and np.shares_memory(view.data, a.data)
    for x, y in zip(swept, copied):
        assert _same_bits(x, y)


def test_heap_policy_is_quiet_without_mallopt(monkeypatch):
    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(nc.ctypes, "CDLL", no_libc)
    assert nc._keep_freed_heap() is None
    monkeypatch.setattr(nc.ctypes, "CDLL", lambda name: object())
    assert nc._keep_freed_heap() is None


def test_broadcast_add_gradients():
    store = ParamStore()
    a = store.add("a", np.ones((3, 4)))
    b = store.add("b", np.ones(4))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(a + b), ())
    backward(tape, out, store)
    np.testing.assert_array_equal(b.grad, [3.0] * 4)
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))


def test_clip_gradient_masks_saturated_entries():
    store = ParamStore()
    x = store.add("x", np.array([0.5, 2.0, -3.0]))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.clip(x, 0.0, 1.0)), ())
    backward(tape, out, store)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(NumericError):
            Tape().__enter__()
    with Tape():  # the outer tape's exit left no tape installed
        pass
