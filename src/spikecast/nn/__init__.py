"""Hand-rolled differentiable kernels for the dual-stream spike forecaster.

Everything here is plain numpy with manual reverse-mode gradients; the
architecture is small and fixed, so a general autodiff engine would be
dead weight. `gradcheck` is the safety net that keeps the hand math honest.
"""
from .ops import relu, sigmoid, softmax_rows
from .lstm import LstmParams, LstmStreams, init_lstm_params, lstm_forward, lstm_backward
from .attention import (
    AttentionParams,
    init_attention_params,
    attention_forward,
    attention_backward,
)
from .head import HeadParams, init_head_params, head_forward, head_backward
from .losses import bce_loss
from .optim import AdamState, init_adam, adam_step
from .gradcheck import grad_check

__all__ = [
    "relu",
    "sigmoid",
    "softmax_rows",
    "LstmParams",
    "LstmStreams",
    "init_lstm_params",
    "lstm_forward",
    "lstm_backward",
    "AttentionParams",
    "init_attention_params",
    "attention_forward",
    "attention_backward",
    "HeadParams",
    "init_head_params",
    "head_forward",
    "head_backward",
    "bce_loss",
    "AdamState",
    "init_adam",
    "adam_step",
    "grad_check",
]
