"""Per-track Gaussian appearance model with a learnable conjugate-prior update.

Each track keeps a diagonal-covariance Gaussian over the appearance
descriptor space: a mean mu and a per-dimension variance sigma, one row each
of the track memory's (M, A) tensors.  The functions here take and return
such row tensors, and broadcast like numpy.  Edges of the association graph
are seeded with the log-likelihood of a detection's descriptor under the
track's Gaussian, and after each matched frame the Gaussian is blended
toward the new observation with predicted rates, following the
normal-inverse-chi-square posterior update

    mu+    = kappa x + (1 - kappa) mu
    sigma+ = nu s + (1 - nu) sigma + kappa (1 - nu) / (kappa + nu) * (x - mu)^2

where s is the sample variance, zero for the single-observation updates
performed here, so the nu s term drops out.  All quantities are Tensors so
the update chain is differentiable end to end, including the rate-prediction
head.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .numcore import NumericError, ParamStore, Tensor

VAR_FLOOR = 1e-6

LOG_2PI = float(np.log(2.0 * np.pi))


def init_model(x, sigma0: float) -> tuple[Tensor, Tensor]:
    """(mu, sigma) of new models centered on the initializing descriptors x,
    with isotropic variance sigma0 (> 0)."""
    if sigma0 <= 0:
        raise NumericError(f"sigma0 must be positive, got {sigma0}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    sigma = Tensor(np.full(x.shape, float(sigma0)))
    return x, sigma


def log_likelihood(mu: Tensor, sigma: Tensor, x) -> Tensor:
    """Log density of x under the Gaussians (mu, sigma), summed over the last
    axis: sum_i [ -1/2 ln(2 pi sigma_i) - (x_i - mu_i)^2 / (2 sigma_i) ].
    The rows and x broadcast against each other, so (M, 1, A) rows against
    (1, N, A) descriptors give the (M, N) matrix."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1:] != mu.shape[-1:]:
        raise NumericError(
            f"descriptor shape {x.shape} does not match model dim {mu.shape}"
        )
    diff = x - mu
    quad = diff * diff / (sigma * 2.0)
    logdet = (nc.log(sigma) + LOG_2PI) * 0.5
    return nc.tsum(-logdet - quad, axis=-1)


def update(mu: Tensor, sigma: Tensor, x, kappa: Tensor, nu: Tensor, *,
           freeze_sigma: bool = False) -> tuple[Tensor, Tensor]:
    """(mu, sigma) blended toward the observations x with rates kappa and nu
    (as predict_rates gives them, (M, 1) columns for M rows).

    With freeze_sigma the covariance stays put (constant-covariance
    ablation) and only the mean moves.  Otherwise the new variance is
    floored at VAR_FLOOR, so sigma >= VAR_FLOOR after every variance update.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if np.any(kappa.data + nu.data == 0.0):
        raise nc.NumericOverflowError(
            "kappa + nu must be nonzero in the appearance update")
    mu_new = kappa * x + (1.0 - kappa) * mu
    if freeze_sigma:
        return mu_new, sigma
    diff = x - mu
    spread = kappa * (1.0 - nu) / (kappa + nu) * (diff * diff)
    sigma_new = (1.0 - nu) * sigma + spread
    sigma_new = nc.clip(sigma_new, VAR_FLOOR, np.inf)
    return mu_new, sigma_new


def init_rate_params(params: ParamStore, embed_dim: int, rng: np.random.Generator):
    nc.add_linear(params, "rate_head", embed_dim, 2, rng)


def predict_rates(embeddings: Tensor, params: ParamStore) -> tuple[Tensor, Tensor]:
    """(kappa, nu) as (M, 1) columns for (M, D) track embeddings: sigmoid of
    a 2-output linear head, so both rates lie strictly inside (0, 1)."""
    rates = nc.sigmoid(nc.apply_linear(params, "rate_head", embeddings))
    rates = nc.swapaxes01(rates)  # (2, M)
    shape = (embeddings.shape[0], 1)
    kappa = nc.reshape(nc.gather(rates, [0]), shape)
    nu = nc.reshape(nc.gather(rates, [1]), shape)
    return kappa, nu
