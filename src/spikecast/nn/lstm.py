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
batch-first and run S streams, each with its own LSTM and input width, as one
recurrence over B sequences of one length; the backward pass returns each
stream's gradients summed over the batch.
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
    sequences: tuple[np.ndarray, ...], params: tuple[LstmParams, ...]
) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """Run S LSTMs, one per stream, over their (B, k, m_s) sequence batches.

    The streams share B, k and h; each has its own input width m_s. Returns
    per-stream lists of all hidden states (B, k, h) and final hidden states
    (B, h), and one cache for backprop.
    """
    if len(sequences) != len(params) or not params:
        raise ContractError(f"{len(sequences)} sequence batches, {len(params)} LSTMs")
    sequences = tuple(np.asarray(seq, dtype=float) for seq in sequences)
    lead, h = sequences[0].shape[:2], params[0].hidden_size  # shared (B, k) and h
    for seq, p in zip(sequences, params):
        if seq.shape != (*lead, p.input_size) or p.hidden_size != h:
            raise ContractError(
                f"sequence batch shape {seq.shape}, hidden size {p.hidden_size}; "
                f"expected {(*lead, p.input_size)}, {h}")
        if not np.isfinite(seq).all():
            raise NumericError("non-finite value in LSTM input sequence")
    s, (n, k) = len(params), lead
    u = np.stack([p.u for p in params])[:, None]  # (S, 1, h, 4h)
    b = np.stack([p.b for p in params])[:, None]  # (S, 1, 4h)

    # Input projections of every step at once, one product per stream, in
    # the buffer where each step then writes its activations (o | i | f | g).
    # The loop adds h_prev @ U, then b: the order in which the docstring's
    # recurrence sums them.
    gates = np.empty((k, s, n, 4 * h))         # step t is one (S, B, 4h) view
    for j, (seq, p) in enumerate(zip(sequences, params)):
        np.matmul(seq, p.w, out=gates[:, j].swapaxes(0, 1))
    hs, cs = np.zeros((2, k + 1, s, n, h))     # step 0: the initial state
    tanh_cs = np.empty((k, s, n, h))
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    steps = zip(gates, o, i, f, g, hs, hs[1:], cs, cs[1:], tanh_cs)
    for gate, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tc_t in steps:
        # One vector-matrix product per sequence of every stream, so a
        # sequence's result depends neither on its batch nor on the others.
        a = np.vecmat(h_prev, u)
        a += gate
        a += b
        gate[..., : 3 * h] = sigmoid(a[..., : 3 * h])
        np.tanh(a[..., 3 * h :], out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)

    cache = dict(sequences=sequences, gates=gates, hs=hs, cs=cs, tanh_cs=tanh_cs)
    return list(hs[1:].transpose(1, 2, 0, 3)), list(hs[-1].copy()), cache


def lstm_backward(
    params: tuple[LstmParams, ...], cache: dict, d_hs: tuple[np.ndarray, ...]
) -> list[dict[str, np.ndarray]]:
    """BPTT given upstream gradients for every hidden state of every stream.

    `d_hs` holds one (B, k, h) array per stream; for a final-state-only
    consumer all steps but the last are zero. Returns one dict per stream of
    gradients summed over the batch, keyed like LstmParams.arrays().
    """
    gates, hs, cs, tanh_cs = (cache[key] for key in ("gates", "hs", "cs", "tanh_cs"))
    k, s, n, h = tanh_cs.shape
    shapes = [np.shape(d) for d in d_hs]
    if len(params) != s or shapes != [(n, k, h)] * s:
        raise ContractError(f"d_hs shapes {shapes} for {len(params)} LSTMs; "
                            f"expected {s} of {(n, k, h)}")

    # Everything but the recurrence is elementwise over steps, so it is done
    # for all steps at once: each gate's pre-activation gradient is dh (gate
    # o) or dc (gates i, f, g) times a factor known from the forward pass.
    # The factors fill `da`, which the loop then scales in place; `da` is
    # stream-major, so each stream's gradients are read from one block.
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    sig = gates.reshape(k, s, n, 4, h)[..., :3, :]  # the o, i, f blocks
    da = np.empty((s, k, n, 4 * h))          # pre-activation grads o | i | f | g
    factor = da.reshape(s, k, n, 4, h).swapaxes(0, 1)
    np.subtract(1.0, sig, out=factor[..., :3, :])
    factor[..., :3, :] *= sig
    factor[..., 0, :] *= tanh_cs
    factor[..., 1, :] *= g
    factor[..., 2, :] *= cs[:-1]
    np.multiply(i, 1.0 - g**2, out=factor[..., 3, :])
    d_tanh_c = o * (1.0 - tanh_cs**2)        # dc contribution of dh
    u_t = np.stack([p.u for p in params]).swapaxes(1, 2)  # u.T views; a copy moves bits

    dh_next, dc_next = np.zeros((2, s, n, h))
    d_hs = np.stack([np.swapaxes(d, 0, 1) for d in d_hs], axis=1, dtype=float)
    steps = list(zip(d_hs, d_tanh_c, da.swapaxes(0, 1), factor[..., 0, :],
                     factor[..., 1:, :], f))
    for d_hs_t, d_tanh_c_t, da_t, da_o_t, da_ifg_t, f_t in steps[::-1]:
        dh = d_hs_t + dh_next
        dc = dc_next + dh * d_tanh_c_t
        da_o_t *= dh
        da_ifg_t *= dc[..., None, :]
        dh_next = da_t @ u_t
        dc_next = dc * f_t

    # Sum over the batch and the steps in one product per array and stream.
    da_s = da.reshape(s, k * n, 4 * h)
    hs_s = hs[:-1].swapaxes(0, 1).reshape(s, k * n, h)
    return [{"w": seq.swapaxes(0, 1).reshape(k * n, -1).T @ da_j,
             "u": hs_j.T @ da_j, "b": da_j.sum(axis=0)}
            for seq, hs_j, da_j in zip(cache["sequences"], hs_s, da_s)]
