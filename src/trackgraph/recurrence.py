"""LSTM-like gating over the graph-network track outputs.

The graph network replaces the linear input path of a standard LSTM cell:
its per-track output feeds four D->D gate layers, the cell state is blended
with forget/input gates, and the emitted embedding is the output gate times
tanh of the cell.  Outputs therefore stay strictly inside (-1, 1) per
coordinate no matter how many steps run, which is what keeps the recurrent
training stable.  The state is the track memory's (M, D) rows y and c; the
functions here take and return them.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .numcore import ParamStore, Tensor

GATE_NAMES = ("forget", "input", "output", "cell")


def init_gate_params(params: ParamStore, embed_dim: int, rng: np.random.Generator):
    for gate in GATE_NAMES:
        nc.add_linear(params, f"gate/{gate}", embed_dim, embed_dim, rng)


def init_simple_gate_params(params: ParamStore, embed_dim: int,
                            rng: np.random.Generator):
    nc.add_linear(params, "simple_gate", embed_dim, embed_dim, rng)


def gate_step(tau_tilde: Tensor, c: Tensor,
              params: ParamStore) -> tuple[Tensor, Tensor]:
    """Next (y, c) rows after one gated update from the graph-network track
    outputs tau_tilde and the cell rows c.  y, the output gate times tanh of
    the new c, lies in (-1, 1) elementwise."""

    def head(gate):
        return nc.apply_linear(params, f"gate/{gate}", tau_tilde)

    a_forget = nc.sigmoid(head("forget"))
    a_input = nc.sigmoid(head("input"))
    a_output = nc.sigmoid(head("output"))
    c_cand = nc.tanh(head("cell"))
    c_new = a_forget * c + a_input * c_cand
    y_new = a_output * nc.tanh(c_new)
    return y_new, c_new


def new_track_state(delta_out: Tensor) -> tuple[Tensor, Tensor]:
    """(y, c) rows of tracks born from detection embeddings (one per row):
    tanh keeps y inside (-1, 1), and a newborn's c starts at 0."""
    y = nc.tanh(delta_out)
    c = Tensor(np.zeros(delta_out.shape))
    return y, c


def simple_gate_step(tau_tilde: Tensor, params: ParamStore) -> Tensor:
    """Stateless single-gate variant: sigmoid(h(x)) * tanh(x)."""
    gate = nc.sigmoid(nc.apply_linear(params, "simple_gate", tau_tilde))
    return gate * nc.tanh(tau_tilde)
