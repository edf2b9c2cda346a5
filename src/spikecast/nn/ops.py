"""Elementwise activations shared by the kernels."""
from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function.

    exp is only taken of -|x|, so it never overflows: 1 / (1 + e) for
    x >= 0 and e / (1 + e) below, with e = exp(-|x|).
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))  # -|x|; a NaN keeps its sign bit
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def relu(x):
    return np.maximum(x, 0.0)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction for stability."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
