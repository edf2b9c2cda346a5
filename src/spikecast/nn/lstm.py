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
recurrence over B sequences of one length. They take the streams as one
LstmStreams, whose U and b are (S, h, 4h) and (S, 4h) arrays, so a step reads
every stream's recurrent weights without copying them together. The backward
pass writes each stream's gradients, summed over the batch, into arrays of
that same layout.
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


@dataclass
class LstmStreams:
    """S LSTMs that share a hidden size h, laid out to run as one recurrence:
    each stream's input weights, and all streams' recurrent weights and
    biases stacked into one array each."""

    w: tuple[np.ndarray, ...]  # S arrays (m_s, 4h)
    u: np.ndarray              # (S, h, 4h)
    b: np.ndarray              # (S, 4h)

    def stream(self, j: int) -> LstmParams:
        """Stream j's LSTM, as views of these arrays."""
        return LstmParams(w=self.w[j], u=self.u[j], b=self.b[j])


def lstm_forward(
    sequences: tuple[np.ndarray, ...], params: LstmStreams
) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """Run S LSTMs, one per stream, over their (B, k, m_s) sequence batches.

    The streams share B, k and h; each has its own input width m_s. Returns
    per-stream lists of all hidden states (B, k, h) and final hidden states
    (B, h), and one cache for backprop.
    """
    s, h = len(params.w), params.u.shape[-1] // 4
    if len(sequences) != s or not s:
        raise ContractError(f"{len(sequences)} sequence batches, {s} LSTMs")
    if params.u.shape != (s, h, 4 * h) or params.b.shape != (s, 4 * h):
        raise ContractError(f"stacked u {params.u.shape} and b {params.b.shape} "
                            f"for {s} LSTMs")
    sequences = tuple(np.asarray(seq, dtype=float) for seq in sequences)
    lead = sequences[0].shape[:2]  # the shared (B, k)
    for seq, w in zip(sequences, params.w):
        if w.ndim != 2 or w.shape[1] != 4 * h or seq.shape != (*lead, w.shape[0]):
            raise ContractError(f"sequence batch shape {seq.shape} for input "
                                f"weights {w.shape}, hidden size {h}")
        if not np.isfinite(seq).all():
            raise NumericError("non-finite value in LSTM input sequence")
    n, k = lead
    u, b = params.u[:, None], params.b[:, None]  # (S, 1, h, 4h), (S, 1, 4h)

    # Input projections of every step at once, one product per stream, in
    # the buffer where each step then writes its activations (o | i | f | g).
    # The loop adds h_prev @ U, then b: the order in which the docstring's
    # recurrence sums them. Each step's intermediates go to buffers
    # allocated once here.
    gates = np.empty((k, s, n, 4 * h))         # step t is one (S, B, 4h) view
    for j, (seq, w) in enumerate(zip(sequences, params.w)):
        np.matmul(seq, w, out=gates[:, j].swapaxes(0, 1))
    hs, cs = np.zeros((2, k + 1, s, n, h))     # step 0: the initial state
    tanh_cs = np.empty((k, s, n, h))
    a, ig = np.empty((s, n, 4 * h)), np.empty((s, n, h))
    a_sig, a_g = a[..., : 3 * h], a[..., 3 * h :]
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    steps = zip(gates, gates[..., : 3 * h], o, i, f, g, hs, hs[1:], cs, cs[1:],
                tanh_cs)
    for gate, sig_t, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tc_t in steps:
        # One vector-matrix product per sequence of every stream, so a
        # sequence's result depends neither on its batch nor on the others.
        np.vecmat(h_prev, u, out=a)
        a += gate
        a += b
        sigmoid(a_sig, out=sig_t)
        np.tanh(a_g, out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=ig)
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)

    cache = dict(sequences=sequences, gates=gates, hs=hs, cs=cs, tanh_cs=tanh_cs)
    return list(hs[1:].transpose(1, 2, 0, 3)), list(hs[-1].copy()), cache


def lstm_backward(
    params: LstmStreams, cache: dict, d_hs: tuple[np.ndarray, ...],
    out: LstmStreams,
) -> None:
    """BPTT given upstream gradients for every hidden state of every stream.

    `d_hs` holds one (B, k, h) array per stream; for a final-state-only
    consumer all steps but the last are zero. The gradients, summed over the
    batch, are written into `out`, an LstmStreams of params' shapes.
    """
    gates, hs, cs, tanh_cs = (cache[key] for key in ("gates", "hs", "cs", "tanh_cs"))
    k, s, n, h = tanh_cs.shape
    shapes = [np.shape(d) for d in d_hs]
    if len(params.w) != s or shapes != [(n, k, h)] * s:
        raise ContractError(f"d_hs shapes {shapes} for {len(params.w)} LSTMs; "
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
    u_t = params.u.swapaxes(1, 2)            # u.T views; a copy moves bits

    # Step t's dh is accumulated in place into a copy of its upstream
    # gradients; dc and the carries to the step before go to buffers
    # allocated once.
    d_hs = np.array(d_hs, dtype=float).transpose(2, 0, 1, 3)  # (k, S, B, h)
    dh_next, dc_next, dc = np.zeros((3, s, n, h))
    dc_gates = dc[..., None, :]
    steps = list(zip(d_hs, d_tanh_c, da.swapaxes(0, 1), factor[..., 0, :],
                     factor[..., 1:, :], f))
    for dh, d_tanh_c_t, da_t, da_o_t, da_ifg_t, f_t in steps[::-1]:
        dh += dh_next
        np.multiply(dh, d_tanh_c_t, out=dc)
        dc += dc_next
        da_o_t *= dh
        da_ifg_t *= dc_gates
        np.matmul(da_t, u_t, out=dh_next)
        np.multiply(dc, f_t, out=dc_next)

    # Sum over the batch and the steps in one product per array: the input
    # weights stream by stream, u and b for all streams at once.
    da_s = da.reshape(s, k * n, 4 * h)
    for seq, da_j, w_grad in zip(cache["sequences"], da_s, out.w):
        np.matmul(seq.swapaxes(0, 1).reshape(k * n, -1).T, da_j, out=w_grad)
    hs_s = hs[:-1].swapaxes(0, 1).reshape(s, k * n, h)
    np.matmul(hs_s.swapaxes(1, 2), da_s, out=out.u)
    np.add.reduce(da_s, axis=1, out=out.b)
