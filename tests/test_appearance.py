import math

import numpy as np
import pytest

from trackgraph import appearance as ap
from trackgraph import numcore as nc
from trackgraph.numcore import NumericError, ParamStore, Tape, Tensor, backward, grad_check


def density_oracle(mu, sigma, x):
    """Straight-line evaluation of the diagonal Gaussian log density."""
    total = 0.0
    for m, s, v in zip(mu, sigma, x):
        total += -0.5 * math.log(2 * math.pi * s) - (v - m) ** 2 / (2 * s)
    return total


def rates(kappa, nu):
    """One row's (1, 1) rate columns, as predict_rates gives them."""
    return Tensor([[kappa]]), Tensor([[nu]])


def rows(*values):
    """A (1, A) row Tensor per value."""
    return [Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1)) for v in values]


def test_init_model_paper_sigma():
    mu, sigma = ap.init_model(np.array([[1.0, 2.0]]), sigma0=0.001)
    np.testing.assert_array_equal(mu.data, [[1.0, 2.0]])
    np.testing.assert_array_equal(sigma.data, [[0.001, 0.001]])


def test_init_model_zero_mean():
    mu, _ = ap.init_model(np.zeros((1, 3)), sigma0=0.5)
    np.testing.assert_array_equal(mu.data, 0.0)


def test_init_model_rejects_nonpositive_sigma():
    with pytest.raises(NumericError):
        ap.init_model(np.zeros((1, 2)), sigma0=0.0)


def test_mode_is_maximum():
    rng = np.random.default_rng(0)
    mu, sigma = ap.init_model(rng.normal(size=(1, 4)), sigma0=0.3)
    at_mode = ap.log_likelihood(mu, sigma, mu.data).data[0]
    for _ in range(200):
        q = mu.data + rng.normal(size=4) * 0.5
        assert ap.log_likelihood(mu, sigma, q).data[0] <= at_mode


def test_log_likelihood_at_mode_two_dims():
    got = ap.log_likelihood(*rows([0.3, -0.7], [1.0, 1.0]), [0.3, -0.7]).data[0]
    assert got == pytest.approx(-math.log(2 * math.pi), abs=1e-12)
    assert got == pytest.approx(-1.837877, abs=1e-6)


def test_log_likelihood_standard_normal():
    got = ap.log_likelihood(*rows([0.0], [1.0]), [1.0]).data[0]
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)
    assert got == pytest.approx(-1.418939, abs=1e-6)


def test_log_likelihood_random_case_matches_oracle():
    rng = np.random.default_rng(42)
    mu = rng.normal(size=8)
    sigma = rng.uniform(0.1, 2.0, size=8)
    x = rng.normal(size=8)
    got = ap.log_likelihood(*rows(mu, sigma), x).data[0]
    assert abs(got - density_oracle(mu, sigma, x)) < 1e-10


def test_log_likelihood_dimension_mismatch():
    mu, sigma = ap.init_model(np.zeros((1, 3)), sigma0=1.0)
    with pytest.raises(NumericError):
        ap.log_likelihood(mu, sigma, np.zeros(4))


def test_log_likelihood_decreases_with_distance():
    mu, sigma = rows([0.0, 0.0], [0.5, 2.0])
    lls = [ap.log_likelihood(mu, sigma, [d, 0.0]).data[0] for d in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(lls, lls[1:]))


def test_update_identity_limit():
    # Iterated limit kappa -> 0 then nu -> 0: kappa must vanish faster than nu
    # or the spread term's kappa/(kappa+nu) factor stays finite.
    mu, sigma = rows([1.0, -1.0], [0.4, 0.2])
    mu_new, sigma_new = ap.update(mu, sigma, [5.0, 5.0], *rates(1e-300, 1e-13))
    np.testing.assert_allclose(mu_new.data, mu.data, atol=1e-12)
    np.testing.assert_allclose(sigma_new.data, sigma.data, atol=1e-12)


def test_update_full_posterior_limit():
    # kappa = 1, nu -> 0, sigma_tilde = 0: mu+ = x, sigma+ = sigma + (x - mu)^2.
    mu, sigma = ap.update(*rows([0.5], [0.3]), [2.5], *rates(1.0, 1e-300))
    np.testing.assert_allclose(mu.data, [[2.5]], atol=1e-12)
    np.testing.assert_allclose(sigma.data, [[0.3 + 2.0**2]], atol=1e-12)


def test_update_worked_numeric_case():
    # Hand-evaluated: kappa = nu = 0.5, mu = 0, sigma = 1, x = 2, s~ = 0
    # mu+ = 1, sigma+ = 0.5*1 + (0.5*0.5/1)*4 = 1.5
    mu, sigma = ap.update(*rows([0.0], [1.0]), [2.0], *rates(0.5, 0.5))
    np.testing.assert_allclose(mu.data, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(sigma.data, [[1.5]], atol=1e-12)


def test_update_rejects_zero_rates():
    mu, sigma = ap.init_model(np.zeros((1, 1)), sigma0=1.0)
    with pytest.raises(NumericError):
        ap.update(mu, sigma, [1.0], *rates(0.0, 0.0))


def test_update_variance_positive_randomized():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        dim = rng.integers(1, 6)
        mu, sigma = rows(rng.normal(size=dim), rng.uniform(ap.VAR_FLOOR, 3.0, size=dim))
        _, sigma_new = ap.update(
            mu, sigma,
            rng.normal(size=dim) * 3,
            *rates(rng.uniform(1e-9, 1 - 1e-9), rng.uniform(1e-9, 1 - 1e-9)),
        )
        assert np.all(sigma_new.data > 0)


def test_update_mean_on_segment():
    rng = np.random.default_rng(8)
    for _ in range(300):
        mu = rng.normal(size=3)
        x = rng.normal(size=3)
        mu_new, _ = ap.update(*rows(mu, np.ones(3)), x, *rates(rng.uniform(0.01, 0.99), 0.5))
        lo = np.minimum(mu, x) - 1e-12
        hi = np.maximum(mu, x) + 1e-12
        assert np.all(mu_new.data >= lo) and np.all(mu_new.data <= hi)


def test_frozen_covariance_keeps_sigma():
    mu, sigma = ap.init_model(np.array([[0.0, 0.0]]), sigma0=0.001)
    mu_new, sigma_new = ap.update(mu, sigma, [1.0, -1.0], *rates(0.7, 0.3),
                                  freeze_sigma=True)
    np.testing.assert_array_equal(sigma_new.data, sigma.data)
    # mean still blends and the positivity invariant trivially holds
    np.testing.assert_allclose(mu_new.data, [[0.7, -0.7]], atol=1e-12)
    assert np.all(sigma_new.data > 0)


def test_predict_rates_zero_params():
    params = ParamStore()
    params.add("rate_head/w", np.zeros((2, 4)))
    params.add("rate_head/b", np.zeros(2))
    kappa, nu = ap.predict_rates(Tensor(np.ones((1, 4))), params)
    assert kappa.shape == nu.shape == (1, 1)
    assert kappa.data[0, 0] == pytest.approx(0.5)
    assert nu.data[0, 0] == pytest.approx(0.5)


def test_predict_rates_strictly_inside_unit_interval():
    # Head output 30 is far into saturation but still below the float64
    # rounding point (~36.7) where sigmoid collapses to exactly 1.0.
    params = ParamStore()
    params.add("rate_head/w", np.full((2, 3), 10.0))
    params.add("rate_head/b", np.zeros(2))
    kappa, _ = ap.predict_rates(Tensor(np.ones((1, 3))), params)
    assert 0.0 < kappa.data[0, 0] < 1.0
    assert kappa.data[0, 0] > 0.999


def test_rate_head_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    params = ParamStore()
    ap.init_rate_params(params, 5, rng)
    emb = Tensor(rng.normal(size=(1, 5)))

    def fn(p):
        kappa, _ = ap.predict_rates(emb, p)
        return nc.reshape(kappa, ())

    assert grad_check(fn, params, epsilon=1e-5) < 1e-6


def test_full_update_chain_is_differentiable():
    rng = np.random.default_rng(21)
    params = ParamStore()
    ap.init_rate_params(params, 4, rng)
    emb = Tensor(rng.normal(size=(1, 4)))
    x_obs = rng.normal(size=3)
    q = rng.normal(size=3)

    def fn(p):
        kappa, nu = ap.predict_rates(emb, p)
        mu, sigma = ap.init_model(np.array([[0.1, -0.2, 0.5]]), sigma0=0.05)
        mu, sigma = ap.update(mu, sigma, x_obs, kappa, nu)
        return nc.reshape(ap.log_likelihood(mu, sigma, q), ())

    assert grad_check(fn, params) < 1e-6


def test_stacked_rows_match_single_rows():
    # One call over M rows gives what M one-row calls give.
    rng = np.random.default_rng(5)
    params = ParamStore()
    ap.init_rate_params(params, 4, rng)
    emb = rng.normal(size=(3, 4))
    mu = rng.normal(size=(3, 2))
    sigma = rng.uniform(0.2, 1.5, size=(3, 2))
    x = rng.normal(size=(3, 2))
    queries = rng.normal(size=(5, 2))
    kappa, nu = ap.predict_rates(Tensor(emb), params)
    assert kappa.shape == nu.shape == (3, 1)
    mu_all, sigma_all = ap.update(Tensor(mu), Tensor(sigma), x, kappa, nu)
    lls = ap.log_likelihood(nc.reshape(mu_all, (3, 1, 2)), nc.reshape(sigma_all, (3, 1, 2)),
                            queries[None])
    assert lls.shape == (3, 5)
    for i in range(3):
        k1, n1 = ap.predict_rates(Tensor(emb[i : i + 1]), params)
        assert k1.shape == (1, 1)
        mu1, sigma1 = ap.update(Tensor(mu[i : i + 1]), Tensor(sigma[i : i + 1]),
                                x[i : i + 1], k1, n1)
        np.testing.assert_allclose(mu_all.data[i], mu1.data[0], rtol=1e-13)
        np.testing.assert_allclose(sigma_all.data[i], sigma1.data[0], rtol=1e-13)
        one_row = ap.log_likelihood(nc.reshape(mu1, (1, 1, 2)), nc.reshape(sigma1, (1, 1, 2)),
                                    queries[None])
        np.testing.assert_allclose(lls.data[i], one_row.data[0], rtol=1e-12)
