"""Single-head scaled dot-product attention over LSTM states.

The context vector is the mean over query positions of the attention-weighted
values: context = (1/k) * sum_i sum_j A[i, j] * V[j].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericError
from .ops import softmax_rows


@dataclass
class AttentionParams:
    """Query/key/value projections, each (h, h_a)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    @property
    def h(self) -> int:
        return self.w_q.shape[0]

    @property
    def h_a(self) -> int:
        return self.w_q.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v}


def init_attention_params(
    h: int, h_a: int, rng: np.random.Generator
) -> AttentionParams:
    bound = 1.0 / np.sqrt(h)
    return AttentionParams(
        w_q=rng.uniform(-bound, bound, size=(h, h_a)),
        w_k=rng.uniform(-bound, bound, size=(h, h_a)),
        w_v=rng.uniform(-bound, bound, size=(h, h_a)),
    )


def attention_forward(
    states: np.ndarray, params: AttentionParams
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Attend over (B, k, h) batches of states.

    Returns (context (B, h_a), weights (B, k, k), cache). The batch axis is
    only broadcast over, so a single (k, h) sequence gives (h_a,) and (k, k).
    """
    states = np.asarray(states, dtype=float)
    if states.ndim < 2 or states.shape[-1] != params.h:
        raise ContractError(
            f"states shape {states.shape} does not match projection rows {params.h}"
        )
    k = states.shape[-2]
    if k < 1:
        raise ContractError("attention needs at least one state")

    q = states @ params.w_q
    key = states @ params.w_k
    v = states @ params.w_v
    logits = q @ key.swapaxes(-1, -2) / np.sqrt(params.h_a)
    if not np.isfinite(logits).all():
        raise NumericError("non-finite attention logits")
    weights = softmax_rows(logits)
    context = (weights @ v).sum(axis=-2) / k

    cache = {"states": states, "q": q, "k": key, "v": v, "weights": weights}
    return context, weights, cache


def attention_backward(
    params: AttentionParams, cache: dict, d_context: np.ndarray,
    out: AttentionParams,
) -> np.ndarray:
    """Projection gradients summed over the batch, written into `out`'s
    arrays; returns the upstream state gradient, shaped like the states."""
    states, q, key, v, weights = (
        cache["states"], cache["q"], cache["k"], cache["v"], cache["weights"]
    )
    k = states.shape[-2]
    scale = 1.0 / np.sqrt(params.h_a)

    # context = mean over query rows of (weights @ v), so every row of its
    # upstream gradient is d = d_context / k. Hence each row of d_weights is
    # the same v @ d, and d_v is the outer product of weights' column sums
    # with d.
    d = np.asarray(d_context, dtype=float)[..., None, :] / k          # (B, 1, h_a)
    d_weights = d @ v.swapaxes(-1, -2)                                # (B, 1, k)
    d_v = weights.sum(axis=-2)[..., :, None] * d                      # (B, k, h_a)

    # softmax backward, row-wise
    d_logits = weights * (d_weights - (weights * d_weights).sum(axis=-1, keepdims=True))
    d_q = d_logits @ key * scale
    d_k = d_logits.swapaxes(-1, -2) @ q * scale

    rows = states.reshape(-1, params.h).T
    for d_proj, grad in ((d_q, out.w_q), (d_k, out.w_k), (d_v, out.w_v)):
        np.matmul(rows, d_proj.reshape(-1, params.h_a), out=grad)
    return d_q @ params.w_q.T + d_k @ params.w_k.T + d_v @ params.w_v.T
