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
    dropout: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def input_size(self) -> int:
        return self.w1.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_head_params(
    n_in: int, n_hidden: int, dropout: float, rng: np.random.Generator
) -> HeadParams:
    b_in = 1.0 / np.sqrt(n_in)
    b_hid = 1.0 / np.sqrt(n_hidden)
    return HeadParams(
        w1=rng.uniform(-b_in, b_in, size=(n_in, n_hidden)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-b_hid, b_hid, size=n_hidden),
        b2=np.zeros(1),
        dropout=dropout,
    )


def head_forward(
    fused: np.ndarray,
    params: HeadParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Spike probabilities (B,) for a (B, n_in) batch of fused vectors.

    Dropout uses inverted scaling (kept units divided by 1 - p) and is active
    only in train mode; inference is deterministic. The mask is drawn as one
    (B, n_hidden) block, the same draws as one row per vector in turn.
    """
    fused = np.asarray(fused, dtype=float)
    if fused.ndim != 2 or fused.shape[1] != params.input_size:
        raise ContractError(
            f"fused batch shape {fused.shape}, head expects (B, {params.input_size})"
        )
    # One vector product per row, so a row's result does not depend on the
    # size of its batch.
    pre = np.vecmat(fused, params.w1) + params.b1
    act = relu(pre)
    if train and params.dropout > 0.0:
        if rng is None:
            raise ConfigError("train-mode dropout requires an rng")
        keep = rng.random(act.shape) >= params.dropout
        mask = keep / (1.0 - params.dropout)
    else:
        mask = np.ones_like(act)
    dropped = act * mask
    logit = np.vecdot(dropped, params.w2) + params.b2[0]
    prob = sigmoid(logit)
    cache = {
        "fused": fused, "pre": pre, "mask": mask,
        "dropped": dropped, "prob": prob,
    }
    return prob, cache


def head_backward(
    params: HeadParams, cache: dict, d_prob: np.ndarray, out: HeadParams
) -> np.ndarray:
    """Gradients summed over the batch given dLoss/dprobability (B,), written
    into `out`'s arrays; returns dLoss/dfused (B, n_in)."""
    prob = cache["prob"]
    d_logit = d_prob * prob * (1.0 - prob)
    d_dropped = d_logit[:, None] * params.w2
    d_act = d_dropped * cache["mask"]
    d_pre = d_act * (cache["pre"] > 0.0)
    np.matmul(cache["fused"].T, d_pre, out=out.w1)
    np.add.reduce(d_pre, axis=0, out=out.b1)
    np.matmul(d_logit, cache["dropped"], out=out.w2)
    np.add.reduce(d_logit, keepdims=True, out=out.b2)
    return d_pre @ params.w1.T
