"""Dense -> ReLU -> dropout -> sigmoid classification head."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ContractError
from .ops import relu, sigmoid


@dataclass
class HeadParams:
    """Fused-vector classifier: one hidden dense layer plus a sigmoid output."""

    w1: np.ndarray      # (n_in, n_hidden)
    b1: np.ndarray      # (n_hidden,)
    w2: np.ndarray      # (n_hidden,)
    b2: np.ndarray      # (1,)

    @property
    def input_size(self) -> int:
        return self.w1.shape[-2]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_head_params(n_in: int, n_hidden: int, rng: np.random.Generator) -> HeadParams:
    b_in = 1.0 / np.sqrt(n_in)
    b_hid = 1.0 / np.sqrt(n_hidden)
    return HeadParams(
        w1=rng.uniform(-b_in, b_in, size=(n_in, n_hidden)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-b_hid, b_hid, size=n_hidden),
        b2=np.zeros(1),
    )


def head_forward(
    fused: np.ndarray,
    params: HeadParams,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Spike probabilities (B,) for a (B, n_in) batch of fused vectors.

    `dropout` is the rate p of the hidden units; training passes the model's
    rate and inference 0, which is deterministic. Dropout uses inverted
    scaling (kept units divided by 1 - p). The mask is drawn as one
    (B, n_hidden) block, the same draws as one row per vector in turn.

    A stack of F models, whose arrays have a leading model axis, classifies
    (F, B, n_in) batches into (F, B); `rng` is then a sequence of F
    generators, and model f's mask block is drawn from the f-th.
    """
    fused = np.asarray(fused, dtype=float)
    lead = params.b2.shape[:-1]  # () for one model, (F,) for a stack
    if fused.shape[:-2] != lead or fused.shape[len(lead) + 1:] != (params.input_size,):
        raise ContractError(f"fused batch shape {fused.shape}, "
                            f"head expects {(*lead, 'B', params.input_size)}")
    w1, b1, w2 = _per_row(params)
    # One vector product per row, so a row's result does not depend on the
    # size of its batch.
    pre = np.vecmat(fused, w1) + b1
    act = relu(pre)
    if dropout > 0.0:
        if rng is None:
            raise ConfigError("train-mode dropout requires an rng")
        keep = (np.stack([gen.random(act.shape[1:]) for gen in rng]) if lead
                else rng.random(act.shape))
        mask = (keep >= dropout) / (1.0 - dropout)
    else:
        mask = np.ones_like(act)
    dropped = act * mask
    logit = np.vecdot(dropped, w2) + params.b2
    prob = sigmoid(logit)
    cache = {
        "fused": fused, "pre": pre, "mask": mask,
        "dropped": dropped, "prob": prob,
    }
    return prob, cache


def _per_row(params: HeadParams) -> tuple[np.ndarray, ...]:
    """w1, b1 and w2; a stack's viewed to broadcast over the batch axis."""
    arrays = params.w1, params.b1, params.w2
    return arrays if params.b2.ndim == 1 else tuple(a[:, None] for a in arrays)


def head_backward(
    params: HeadParams, cache: dict, d_prob: np.ndarray, out: HeadParams
) -> np.ndarray:
    """Gradients summed over the batch given dLoss/dprobability (B,), written
    into `out`'s arrays; returns dLoss/dfused (B, n_in)."""
    prob = cache["prob"]
    d_logit = d_prob * prob * (1.0 - prob)
    d_dropped = d_logit[..., None] * _per_row(params)[2]
    d_act = d_dropped * cache["mask"]
    d_pre = d_act * (cache["pre"] > 0.0)
    np.matmul(cache["fused"].mT, d_pre, out=out.w1)
    np.add.reduce(d_pre, axis=-2, out=out.b1)
    np.vecmat(d_logit, cache["dropped"], out=out.w2)
    np.add.reduce(d_logit, axis=-1, keepdims=True, out=out.b2)
    return d_pre @ params.w1.mT
