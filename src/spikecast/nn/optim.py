"""Adam with bias correction and selective L2 weight decay, on one flat
parameter vector."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment accumulators plus hyperparameters.

    `decay_mask` marks the entries of theta that receive L2 decay (the
    dense-layer weights); decay is added to their gradients as
    weight_decay * theta.
    """

    m: np.ndarray
    v: np.ndarray
    decay_mask: np.ndarray
    scratch: np.ndarray  # (2, n): a step's temporaries; row 0 may also be its grad
    alpha: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0


def init_adam(
    theta: np.ndarray,
    alpha: float = 1e-3,
    weight_decay: float = 0.0,
    decay_mask: np.ndarray | None = None,
) -> AdamState:
    if decay_mask is None:
        decay_mask = np.zeros(theta.shape, dtype=bool)
    return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta),
                     decay_mask=decay_mask, scratch=np.empty((2,) + theta.shape),
                     alpha=alpha, weight_decay=weight_decay)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to `theta` in place.

    The decay term is added to `grad` in place. `grad` may be
    `state.scratch[0]`, which the step overwrites only once `grad` is read.
    Refuses the whole step (no mutation) if the shapes differ or any
    gradient is non-finite.
    """
    if not theta.shape == grad.shape == state.m.shape:
        raise ContractError(f"gradient shape {grad.shape}, parameters "
                            f"{theta.shape}, optimizer state {state.m.shape}")
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; step refused")

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v, (denom, tmp) = state.m, state.v, state.scratch
    # theta -= alpha * (m / bc1) / (sqrt(v / bc2) + EPS), op by op, in scratch.
    if state.weight_decay:
        np.add(grad, np.multiply(state.weight_decay, theta, out=tmp), out=grad,
               where=state.decay_mask)
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grad, out=tmp)
    v *= BETA2
    v += np.multiply(np.multiply(1.0 - BETA2, grad, out=tmp), grad, out=tmp)
    np.multiply(state.alpha, np.divide(m, bc1, out=tmp), out=tmp)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += EPS
    theta -= np.divide(tmp, denom, out=tmp)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale `grad` in place so its L2 norm is <= max_norm; returns the norm
    before scaling."""
    total = float(np.sqrt(grad @ grad))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return total
