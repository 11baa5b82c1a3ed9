"""The per-track Gaussian appearance model: likelihood as a matching cue and
the learnable conjugate update that blends in each matched observation.

Run:  python demos/04_appearance_model.py
"""

import numpy as np

from trackgraph import appearance as ap
from trackgraph.numcore import ParamStore, Tensor

rng = np.random.default_rng(1)

# Two same-class objects with different latent appearances: the likelihood
# separates them even when their boxes overlap.
# A track's model is one row of mean and variance: (1, A) Tensors.
latent_a = rng.normal(size=(1, 8))
latent_b = rng.normal(size=(1, 8))
mu, sigma = ap.init_model(latent_a, sigma0=0.001)
obs_a = latent_a + rng.normal(0, 0.1, size=8)
obs_b = latent_b + rng.normal(0, 0.1, size=8)
print("log-likelihood under track A's model:")
print(f"  observation of A: {ap.log_likelihood(mu, sigma, obs_a).data[0]:9.2f}")
print(f"  observation of B: {ap.log_likelihood(mu, sigma, obs_b).data[0]:9.2f}")

# The update blends mean and variance; rates control how fast.
print("\nconjugate updates with fixed rates (kappa=nu=0.3):")
rate = Tensor([[0.3]])
mu, sigma = ap.init_model(latent_a, sigma0=0.001)
for k in range(5):
    obs = latent_a + rng.normal(0, 0.1, size=8)
    mu, sigma = ap.update(mu, sigma, obs, rate, rate)
    err = np.linalg.norm(mu.data - latent_a)
    print(f"  after {k + 1} updates: |mu - latent| = {err:.4f}, "
          f"mean sigma = {sigma.data.mean():.5f}")

# Rates are predicted from the track embedding by a learned head.
params = ParamStore()
ap.init_rate_params(params, embed_dim=16, rng=rng)
for label, scale in (("weak evidence", 0.1), ("strong evidence", 2.0)):
    emb = Tensor(rng.normal(size=(1, 16)) * scale)
    kappa, nu = ap.predict_rates(emb, params)
    print(f"\npredicted rates ({label} embedding): "
          f"kappa={kappa.data[0, 0]:.3f} nu={nu.data[0, 0]:.3f}")

# Limit behavior: kappa -> 1 trusts the observation completely.
mu, sigma = ap.init_model(np.zeros((1, 2)), sigma0=0.5)
mu, sigma = ap.update(mu, sigma, np.array([3.0, -3.0]), Tensor([[1.0]]), Tensor([[1e-12]]))
print(f"\nkappa=1 limit: mu jumps to the observation -> {mu.data[0]}")
print(f"variance absorbs the surprise -> {sigma.data[0]}")
