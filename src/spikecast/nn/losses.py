"""Binary cross-entropy with clamped probabilities."""
from __future__ import annotations

import numpy as np

from ..errors import ContractError

CLAMP_EPS = 1e-7


def bce_loss(
    preds, targets, pos_weight: float | None = None
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. each prediction.

    Predictions are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before the logs;
    the gradient is taken at the clamped value. `pos_weight` scales the
    positive-class term to counter class imbalance (None = unweighted).
    For (F, B) predictions of a stack of F models the loss is each row's,
    an (F,) array.
    """
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape or preds.ndim not in (1, 2):
        raise ContractError(
            f"preds shape {preds.shape} vs targets shape {targets.shape}"
        )
    if preds.size == 0:
        raise ContractError("empty batch")
    if not ((targets == 0.0) | (targets == 1.0)).all():
        raise ContractError("targets must be 0 or 1")

    # Each temporary is computed once and reused, and the mean is add.reduce
    # / n, the sum np.mean takes: same values, fewer numpy calls.
    n = preds.shape[-1]
    p = np.maximum(preds, CLAMP_EPS)
    np.minimum(p, 1.0 - CLAMP_EPS, out=p)
    q = 1.0 - p
    pos = targets if pos_weight is None else float(pos_weight) * targets
    neg = 1.0 - targets
    loss = -(np.add.reduce(pos * np.log(p) + neg * np.log(q), axis=-1) / n)
    d_preds = -(pos / p - neg / q) / n
    return (loss if loss.ndim else float(loss)), d_preds
