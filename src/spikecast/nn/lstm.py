"""Unidirectional LSTM with manual backpropagation through time.

Gate convention: i = input, f = forget, g = candidate cell, o = output.
Per step, with x the input row and h/c the previous hidden and cell state:

    i = sigmoid(x W_i + h U_i + b_i)     f = sigmoid(x W_f + h U_f + b_f)
    g = tanh   (x W_g + h U_g + b_g)     o = sigmoid(x W_o + h U_o + b_o)
    c' = f * c + i * g                   h' = o * tanh(c')

Initial hidden and cell state are zero.

The parameters are stored fused: W (m, 4h), U (h, 4h) and b (4h,) hold the
four gates' blocks side by side in GATE_ORDER, so each step costs one matrix
product and one sigmoid call instead of four of each. The kernels are
batch-first: they run B sequences of one length together, and the backward
pass returns the gradients summed over the batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericError
from .ops import sigmoid


# Column order of the gate blocks. It keeps the three sigmoid gates (o, i, f)
# contiguous for the forward pass, and the three gates that the cell-state
# gradient reaches (i, f, g) contiguous for the backward pass.
GATE_ORDER = ("o", "i", "f", "g")


@dataclass
class LstmParams:
    """Weights for one LSTM: input->gate, hidden->gate, and gate biases, each
    with the four gate blocks side by side in GATE_ORDER."""

    w: np.ndarray  # (m, 4h)
    u: np.ndarray  # (h, 4h)
    b: np.ndarray  # (4h,)

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.u.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "u": self.u, "b": self.b}


def init_lstm_params(
    input_size: int, hidden_size: int, rng: np.random.Generator
) -> LstmParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; forget-gate bias +1.

    The blocks are drawn gate by gate in i, f, g, o order, all of W first,
    then all of U, so a seed gives the same weights whatever GATE_ORDER is.
    """
    def draw(fan_in, rows):
        bound = 1.0 / np.sqrt(fan_in)
        blocks = {gate: rng.uniform(-bound, bound, size=(rows, h))
                  for gate in "ifgo"}
        return np.concatenate([blocks[gate] for gate in GATE_ORDER], axis=1)

    m, h = input_size, hidden_size
    w = draw(m, m)
    u = draw(h, h)
    b = np.zeros(4 * h)
    b.reshape(4, h)[GATE_ORDER.index("f")] = 1.0
    return LstmParams(w=w, u=u, b=b)


def lstm_forward(
    sequence: np.ndarray, params: LstmParams
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the recurrence over a (B, k, m) batch of sequences.

    Returns (all hidden states (B, k, h), final hidden states (B, h), cache
    for backprop).
    """
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim != 3 or sequence.shape[2] != params.input_size:
        raise ContractError(
            f"sequence batch shape {sequence.shape} does not match "
            f"(B, k, {params.input_size})"
        )
    if not np.isfinite(sequence).all():
        raise NumericError("non-finite value in LSTM input sequence")
    n, k, _ = sequence.shape
    h = params.hidden_size
    w, u, b = params.w, params.u, params.b

    # Input projections of every step at once, in the buffer where each step
    # then writes its activations (o | i | f | g). The loop adds h_prev @ U,
    # then b: the order in which the docstring's recurrence sums them.
    gates = (sequence @ w).swapaxes(0, 1)    # (k, B, 4h): step t is one view
    hs, cs = np.zeros((2, k + 1, n, h))      # step 0: the initial state
    tanh_cs = np.empty((k, n, h))
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    steps = zip(gates, o, i, f, g, hs, hs[1:], cs, cs[1:], tanh_cs)
    for gate, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tc_t in steps:
        # One vector-matrix product per sequence, so a sequence's result
        # does not depend on the size of its batch.
        a = np.vecmat(h_prev, u)
        a += gate
        a += b
        gate[:, : 3 * h] = sigmoid(a[:, : 3 * h])
        np.tanh(a[:, 3 * h :], out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)

    cache = {
        "sequence": sequence, "gates": gates,
        "hs": hs, "cs": cs, "tanh_cs": tanh_cs,
    }
    return hs[1:].swapaxes(0, 1), hs[-1].copy(), cache


def lstm_backward(
    params: LstmParams, cache: dict, d_hs: np.ndarray
) -> dict[str, np.ndarray]:
    """BPTT given upstream gradients for every hidden state.

    `d_hs` is (B, k, h); for a final-state-only consumer all steps but the
    last are zero. Returns gradients summed over the batch, keyed like
    LstmParams.arrays().
    """
    seq, gates = cache["sequence"], cache["gates"]
    hs, cs, tanh_cs = cache["hs"], cache["cs"], cache["tanh_cs"]
    k, n, h = tanh_cs.shape
    d_hs = np.asarray(d_hs, dtype=float)
    if d_hs.shape != (n, k, h):
        raise ContractError(f"d_hs shape {d_hs.shape}, expected {(n, k, h)}")

    # Everything but the recurrence is elementwise over steps, so it is done
    # for all steps at once: each gate's pre-activation gradient is dh (gate
    # o) or dc (gates i, f, g) times a factor known from the forward pass.
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    sig = gates.reshape(k, n, 4, h)[:, :, :3]  # the o, i, f blocks
    factor = np.empty((k, n, 4, h))
    np.multiply(sig, 1.0 - sig, out=factor[:, :, :3])
    factor[:, :, 0] *= tanh_cs
    factor[:, :, 1] *= g
    factor[:, :, 2] *= cs[:-1]
    np.multiply(i, 1.0 - g**2, out=factor[:, :, 3])
    d_tanh_c = o * (1.0 - tanh_cs**2)        # dc contribution of dh
    u_t = params.u.T

    da = np.empty((k, n, 4 * h))             # pre-activation grads o | i | f | g
    da_o = da[..., :h]
    da_ifg = da[..., h:].reshape(k, n, 3, h)
    dh_next = np.zeros((n, h))
    dc_next = np.zeros((n, h))
    steps = list(zip(d_hs.swapaxes(0, 1), d_tanh_c, factor[:, :, 0],
                     factor[:, :, 1:], da, da_o, da_ifg, f))
    for d_hs_t, d_tanh_c_t, fo_t, fifg_t, da_t, da_o_t, da_ifg_t, f_t in steps[::-1]:
        dh = d_hs_t + dh_next
        dc = dc_next + dh * d_tanh_c_t
        np.multiply(dh, fo_t, out=da_o_t)
        np.multiply(dc[:, None], fifg_t, out=da_ifg_t)
        dh_next = da_t @ u_t
        dc_next = dc * f_t

    # Sum over the batch and the steps in one product per array.
    da = da.reshape(k * n, 4 * h)
    return {
        "w": seq.swapaxes(0, 1).reshape(k * n, -1).T @ da,
        "u": hs[:-1].reshape(k * n, h).T @ da,
        "b": da.sum(axis=0),
    }
