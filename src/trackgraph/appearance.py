"""Per-track Gaussian appearance model with a learnable conjugate-prior update.

Each track keeps a diagonal-covariance Gaussian over the appearance
descriptor space; the track memory stacks them as (M, A) rows, and every
function here works on one Gaussian or on such a stack alike.  Edges of the
association graph are seeded with the log-likelihood of a detection's
descriptor under the track's Gaussian, and after each matched frame the
Gaussian is blended toward the new observation with predicted rates,
following the normal-inverse-chi-square posterior update

    mu+    = kappa x + (1 - kappa) mu
    sigma+ = nu s + (1 - nu) sigma + kappa (1 - nu) / (kappa + nu) * (x - mu)^2

where s is the sample variance, zero for the single-observation updates
performed here, so the nu s term drops out.  All quantities are Tensors so
the update chain is differentiable end to end, including the rate-prediction
head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import NumericError, ParamStore, Tensor

VAR_FLOOR = 1e-6

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianAppearance:
    """Diagonal Gaussian: mean and per-dimension variance, both (A,), or a
    stack of Gaussians with leading axes (e.g. (M, A))."""

    mu: Tensor
    sigma: Tensor

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


@dataclass
class UpdateRates:
    """Mean and covariance blending rates in (0, 1): scalar Tensors for one
    Gaussian, (M, 1) columns for a stack of M."""

    kappa: Tensor
    nu: Tensor


def init_model(x, sigma0: float) -> GaussianAppearance:
    """New model centered on the initializing descriptor with isotropic
    variance sigma0 (> 0)."""
    if sigma0 <= 0:
        raise NumericError(f"sigma0 must be positive, got {sigma0}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    sigma = Tensor(np.full(x.shape, float(sigma0)))
    return GaussianAppearance(mu=x, sigma=sigma)


def log_likelihood(model: GaussianAppearance, x) -> Tensor:
    """Log density of x under the model, summed over the last axis:
    sum_i [ -1/2 ln(2 pi sigma_i) - (x_i - mu_i)^2 / (2 sigma_i) ].
    Model and x broadcast against each other, so (M, 1, A) stacked rows
    against (1, N, A) descriptors give the (M, N) matrix."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.shape[-1:] != model.mu.shape[-1:]:
        raise NumericError(
            f"descriptor shape {x.shape} does not match model dim {model.mu.shape}"
        )
    diff = x - model.mu
    quad = diff * diff / (model.sigma * 2.0)
    logdet = (nc.log(model.sigma) + LOG_2PI) * 0.5
    return nc.tsum(-logdet - quad, axis=-1)


def update(model: GaussianAppearance, x, rates: UpdateRates, *,
           freeze_sigma: bool = False) -> GaussianAppearance:
    """Posterior blend of the Gaussian toward one observation x.

    With freeze_sigma the covariance stays put (constant-covariance
    ablation) and only the mean moves.  The result's variance is floored at
    VAR_FLOOR.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    kappa, nu = rates.kappa, rates.nu
    if np.any(kappa.data + nu.data == 0.0):
        raise nc.NumericOverflowError(
            "kappa + nu must be nonzero in the appearance update")
    mu_new = kappa * x + (1.0 - kappa) * model.mu
    if freeze_sigma:
        return GaussianAppearance(mu=mu_new, sigma=model.sigma)
    diff = x - model.mu
    spread = kappa * (1.0 - nu) / (kappa + nu) * (diff * diff)
    sigma_new = (1.0 - nu) * model.sigma + spread
    sigma_new = nc.clip(sigma_new, VAR_FLOOR, np.inf)
    return GaussianAppearance(mu=mu_new, sigma=sigma_new)


def init_rate_params(params: ParamStore, embed_dim: int, rng: np.random.Generator):
    params.add("rate_head/w", nc.uniform_init(rng, (2, embed_dim), embed_dim))
    params.add("rate_head/b", np.zeros(2))


def predict_rates(track_embedding: Tensor, params: ParamStore) -> UpdateRates:
    """(kappa, nu) = sigmoid of a 2-output linear head on the track embedding,
    so both rates live strictly inside (0, 1).  A (D,) embedding gives scalar
    rates; stacked (M, D) embeddings give (M, 1) columns."""
    head = nc.linear(params["rate_head/w"], params["rate_head/b"], track_embedding)
    rates = nc.sigmoid(head)
    lead = track_embedding.shape[:-1]
    if lead:
        rates = nc.swapaxes01(rates)  # (2, M)
    shape = lead + (1,) if lead else ()
    kappa = nc.reshape(nc.gather(rates, [0]), shape)
    nu = nc.reshape(nc.gather(rates, [1]), shape)
    return UpdateRates(kappa=kappa, nu=nu)
