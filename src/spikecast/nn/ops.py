"""Elementwise activations shared by the kernels."""
from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function.

    exp is only taken of non-positive values, so it never overflows:
    exp(min(x, 0)) / (1 + exp(-|x|)), which is 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, with e = exp(-|x|). Both exponents come from one
    minimum of x against [0; -x] and one exp; a NaN keeps its sign bit.
    """
    x = np.asarray(x, dtype=float)
    e = np.zeros((2,) + x.shape)
    num, denom = e[0, ...], e[1, ...]  # `...` keeps 0-d rows arrays
    np.negative(x, out=denom)
    np.exp(np.minimum(x, e, out=e), out=e)
    denom += 1.0
    return num / denom


def relu(x):
    return np.maximum(x, 0.0)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
