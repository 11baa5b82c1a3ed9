import numpy as np
import pytest

from trackgraph import numcore as nc
from trackgraph import recurrence as rec
from trackgraph.numcore import ParamStore, Tape, Tensor, backward, grad_check


def zero_params(dim):
    params = ParamStore()
    for gate in rec.GATE_NAMES:
        params.add(f"gate/{gate}/w", np.zeros((dim, dim)))
        params.add(f"gate/{gate}/b", np.zeros(dim))
    return params


def lstm_oracle(x, c, weights):
    """Straight-line gate equations, independent of the implementation."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    wf, bf, wi, bi, wo, bo, wc, bc = weights
    a_f = sig(wf @ x + bf)
    a_i = sig(wi @ x + bi)
    a_o = sig(wo @ x + bo)
    c_t = np.tanh(wc @ x + bc)
    c_new = a_f * c + a_i * c_t
    return a_o * np.tanh(c_new), c_new


def test_gate_step_zero_everything():
    params = zero_params(3)
    y, c = rec.gate_step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))), params)
    np.testing.assert_array_equal(c.data, 0.0)
    np.testing.assert_array_equal(y.data, 0.0)


def test_gate_step_zero_params_nonzero_cell():
    # Hand-evaluated: gates all 0.5, candidate 0; c+ = 0.5*2 = 1,
    # y+ = 0.5*tanh(1) = 0.3807970779778824.
    params = zero_params(2)
    y, c = rec.gate_step(Tensor(np.zeros((1, 2))), Tensor([[2.0, 2.0]]), params)
    np.testing.assert_allclose(c.data, 1.0, atol=1e-15)
    np.testing.assert_allclose(y.data, 0.3807970779778824, atol=1e-15)


def test_gate_step_matches_straight_line_oracle():
    rng = np.random.default_rng(5)
    dim = 4
    params = ParamStore()
    weights = []
    for gate in rec.GATE_NAMES:
        w = rng.normal(size=(dim, dim))
        b = rng.normal(size=dim)
        params.add(f"gate/{gate}/w", w)
        params.add(f"gate/{gate}/b", b)
        weights.extend([w, b])
    x = rng.normal(size=dim)
    c = rng.normal(size=dim)
    y_new, c_new = rec.gate_step(Tensor(x[None]), Tensor(c[None]), params)
    y_ref, c_ref = lstm_oracle(x, c, weights)
    np.testing.assert_allclose(y_new.data[0], y_ref, atol=1e-12)
    np.testing.assert_allclose(c_new.data[0], c_ref, atol=1e-12)


def test_output_strictly_bounded():
    rng = np.random.default_rng(1)
    dim = 6
    params = ParamStore()
    rec.init_gate_params(params, dim, rng)
    for t in params.tensors():
        t.data *= 20.0
    c = Tensor(np.zeros((1, dim)))
    for _ in range(200):
        y, c = rec.gate_step(Tensor(rng.normal(size=(1, dim)) * 10), c, params)
        assert np.all(np.abs(y.data) < 1.0)


def test_cell_growth_bounded_by_step_count():
    rng = np.random.default_rng(2)
    dim = 4
    params = ParamStore()
    rec.init_gate_params(params, dim, rng)
    c0 = rng.normal(size=(1, dim))
    c = Tensor(c0)
    for t in range(1, 50):
        _, c = rec.gate_step(Tensor(rng.normal(size=(1, dim))), c, params)
        assert np.all(np.abs(c.data) <= np.abs(c0) + t + 1e-12)


def test_long_fuzz_no_nan():
    rng = np.random.default_rng(3)
    dim = 5
    params = ParamStore()
    rec.init_gate_params(params, dim, rng)
    _, c = rec.new_track_state(Tensor(rng.normal(size=(1, dim))))
    for _ in range(10_000):
        x = Tensor(rng.normal(size=(1, dim)) * rng.uniform(0, 30))
        y, c = rec.gate_step(x, c, params)
        assert np.all(np.isfinite(y.data))
        assert np.all(np.isfinite(c.data))
        assert np.all(np.abs(y.data) < 1.0)


def test_new_track_state_zero():
    y, c = rec.new_track_state(Tensor(np.zeros((1, 4))))
    np.testing.assert_array_equal(y.data, 0.0)
    np.testing.assert_array_equal(c.data, 0.0)


def test_new_track_state_bounded():
    # Stay below |x| ~ 19 where float64 tanh rounds to exactly 1.0; detection
    # embeddings are post-ReLU activations and live well inside that range.
    rng = np.random.default_rng(4)
    for _ in range(100):
        y, c = rec.new_track_state(Tensor(rng.normal(size=(2, 8)) * 3))
        assert np.all(np.abs(y.data) < 1.0)
        np.testing.assert_array_equal(c.data, 0.0)


def test_simple_gate_zero_params():
    params = ParamStore()
    params.add("simple_gate/w", np.zeros((3, 3)))
    params.add("simple_gate/b", np.zeros(3))
    x = np.array([1.0, -2.0, 0.0])
    out = rec.simple_gate_step(Tensor(x), params)
    np.testing.assert_allclose(out.data, 0.5 * np.tanh(x), atol=1e-15)


def test_simple_gate_zero_input():
    rng = np.random.default_rng(6)
    params = ParamStore()
    rec.init_simple_gate_params(params, 3, rng)
    out = rec.simple_gate_step(Tensor(np.zeros(3)), params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_simple_gate_matches_oracle():
    rng = np.random.default_rng(7)
    params = ParamStore()
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    params.add("simple_gate/w", w)
    params.add("simple_gate/b", b)
    x = rng.normal(size=4)
    expect = (1.0 / (1.0 + np.exp(-(w @ x + b)))) * np.tanh(x)
    out = rec.simple_gate_step(Tensor(x), params)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_unrolled_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    dim = 3
    params = ParamStore()
    rec.init_gate_params(params, dim, rng)
    inputs = [rng.normal(size=(1, dim)) for _ in range(10)]
    probe = rng.normal(size=(1, dim))

    def fn(p):
        c = Tensor(np.zeros((1, dim)))
        for x in inputs:
            y, c = rec.gate_step(Tensor(x), c, p)
        return nc.reshape(nc.tsum(y * Tensor(probe)), ())

    assert grad_check(fn, params, epsilon=1e-4) < 1e-4
