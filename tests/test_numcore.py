import math

import numpy as np
import pytest

from trackgraph import numcore as nc
from trackgraph.numcore import (
    AdamState,
    NumericError,
    ParamStore,
    Tape,
    Tensor,
    activate,
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


def test_activations_fixed_points():
    assert activate("sigmoid", Tensor(0.0)).item() == 0.5
    assert activate("tanh", Tensor(0.0)).item() == 0.0
    sm = activate("softmax", Tensor([1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(sm.data, [0.25] * 4, atol=1e-15)


def test_softplus_minus_one():
    # ln(1 + e^-1) evaluated independently; this is the 0.31 threshold value.
    expect = math.log(1.0 + math.exp(-1.0))
    got = activate("softplus", Tensor(-1.0)).item()
    assert abs(got - expect) < 1e-15
    assert abs(got - 0.31326168751822286) < 1e-15


def test_unknown_activation():
    with pytest.raises(NumericError):
        activate("gelu", Tensor(0.0))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(50, 7)) * 30)
    y = activate("softmax", x)
    assert np.all(y.data >= 0)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_backward_square():
    x = Tensor(3.0)
    with Tape() as tape:
        y = x * x
    backward(tape, y)
    assert x.grad == pytest.approx(6.0)


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0)
    with Tape() as tape:
        y = nc.sigmoid(x)
    backward(tape, y)
    assert x.grad == pytest.approx(0.25)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = x * x
    with pytest.raises(NumericError):
        backward(tape, y)


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
    x = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=3))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.slot_sum(x, axis=1) * w), ())
    backward(tape, out)
    expect = np.repeat(w.data[:, None], 5, axis=1)
    np.testing.assert_allclose(x.grad, expect, atol=1e-15)


def test_gather_rows_and_grads():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    g = nc.gather(x, [2, 0])
    np.testing.assert_array_equal(g.data, [[6, 7, 8], [0, 1, 2]])
    assert nc.gather(x, []).shape == (0, 3)
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.gather(x, [1, 1, 3])), ())
    backward(tape, out)
    np.testing.assert_array_equal(x.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])


def test_im2col3x3_matches_direct_convolution():
    # Oracle: direct nested-loop 3x3 convolution with zero padding.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 5, 5))
    k = rng.normal(size=(4, 3, 3, 3))

    def conv_direct(img, ker):
        g = img.shape[-1]
        out = np.zeros((img.shape[0], ker.shape[0], g, g))
        padded = np.pad(img, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for bi in range(img.shape[0]):
            for oc in range(ker.shape[0]):
                for i in range(g):
                    for j in range(g):
                        patch = padded[bi, :, i : i + 3, j : j + 3]
                        out[bi, oc, i, j] = np.sum(patch * ker[oc])
        return out

    cols = nc.im2col3x3(Tensor(x))
    kmat = k.reshape(4, -1)
    got = (cols.data @ kmat.T).transpose(0, 2, 1).reshape(2, 4, 5, 5)
    np.testing.assert_allclose(got, conv_direct(x, k), atol=1e-12)


def test_im2col3x3_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    store = ParamStore()
    store.add("img", rng.normal(size=(1, 2, 4, 4)))
    probe = Tensor(rng.normal(size=(1, 16, 18)))

    def fn(p):
        return nc.reshape(nc.tsum(nc.im2col3x3(p["img"]) * probe), ())

    assert grad_check(fn, store) < 1e-8


def test_tap_sum3x3_matches_direct_shifted_sum():
    # Oracle: out[i, j] = sum over taps (di, dj) of plane 3*di + dj read at
    # (i + di - 1, j + dj - 1), zero outside the grid.
    rng = np.random.default_rng(17)
    z = rng.normal(size=(2, 5, 5, 9))
    want = np.zeros((2, 5, 5))
    for b in range(2):
        for i in range(5):
            for j in range(5):
                for di in range(3):
                    for dj in range(3):
                        y, x = i + di - 1, j + dj - 1
                        if 0 <= y < 5 and 0 <= x < 5:
                            want[b, i, j] += z[b, y, x, 3 * di + dj]
    np.testing.assert_allclose(nc.tap_sum3x3(Tensor(z)).data, want, atol=1e-12)
    # tap-first equals im2col3x3 then the same weights
    img = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(27,))
    cols = nc.im2col3x3(Tensor(img)).data                   # (2, 25, 27)
    planes = np.transpose(img, (0, 2, 3, 1)) @ w.reshape(3, 9)
    np.testing.assert_allclose(nc.tap_sum3x3(Tensor(planes)).data.reshape(2, 25),
                               cols @ w, atol=1e-12)
    with pytest.raises(NumericError):
        nc.tap_sum3x3(Tensor(np.zeros((1, 4, 4, 8))))


def test_tap_sum3x3_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    store = ParamStore()
    store.add("planes", rng.normal(size=(2, 4, 4, 9)))
    probe = Tensor(rng.normal(size=(2, 4, 4)))

    def fn(p):
        return nc.reshape(nc.tsum(nc.tap_sum3x3(p["planes"]) * probe), ())

    assert grad_check(fn, store) < 1e-8


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
    sl = store.slices()
    assert sl["a"] == slice(0, 6) and sl["b"] == slice(6, 11)


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


def test_backward_skips_nodes_no_parameter_reaches(monkeypatch):
    rng = np.random.default_rng(7)
    store = ParamStore()
    store.add("w", rng.normal(size=(3, 18)))
    store.add("b", rng.normal(size=3))
    data = Tensor(rng.normal(size=(2, 2, 4, 4)))
    calls = []
    real = nc._BACKWARD["im2col3x3"]
    monkeypatch.setitem(nc._BACKWARD, "im2col3x3",
                        lambda *args: calls.append(1) or real(*args))
    with Tape() as tape:
        h = nc.tanh(linear(store["w"], store["b"], nc.im2col3x3(data)))
        out = nc.reshape(nc.tsum(h * Tensor(rng.normal(size=h.shape))), ())
    pruned = backward(tape, out, store)
    assert calls == [] and data.grad is None
    store.zero_grads()
    backward(tape, out)  # no store: every participating tensor is swept
    assert calls == [1] and data.grad is not None
    for name, t in store.items():
        np.testing.assert_array_equal(pruned[name], t.grad)


def test_broadcast_add_gradients():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones(4))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(a + b), ())
    backward(tape, out)
    np.testing.assert_array_equal(b.grad, [3.0] * 4)
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))


def test_clip_gradient_masks_saturated_entries():
    x = Tensor(np.array([0.5, 2.0, -3.0]))
    with Tape() as tape:
        out = nc.reshape(nc.tsum(nc.clip(x, 0.0, 1.0)), ())
    backward(tape, out)
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(NumericError):
            Tape().__enter__()
    assert nc.active_tape() is None
