"""Unidirectional LSTM with manual backpropagation through time.

Gate convention: i = input, f = forget, g = candidate cell, o = output.
Per step, with x the input row and h/c the previous hidden and cell state:

    i = sigmoid(x W_i + h U_i + b_i)     f = sigmoid(x W_f + h U_f + b_f)
    g = tanh   (x W_g + h U_g + b_g)     o = sigmoid(x W_o + h U_o + b_o)
    c' = f * c + i * g                   h' = o * tanh(c')

Initial hidden and cell state are zero.

The parameters are stored fused: W (m, 4h), U (h, 4h) and b (4h,) hold the
four gates' blocks side by side in GATE_ORDER, so with sigmoid(x) taken as
(1 + tanh(x / 2)) / 2 a step costs one matrix product and one tanh call for
all four gates. The kernels are batch-first and run S streams, each with its
own LSTM and input width, as one recurrence over B sequences of one length.
They take the streams as one LstmStreams, whose U and b are (S, h, 4h) and
(S, 4h) arrays, so one product per step reads every stream's U. The
backward pass writes the gradients, summed over the batch, in that layout.

A stack of F models of one layout runs as one recurrence too: every array
then has a leading model axis, weights (F, ...) and batches (F, B, k, m_s).
Each model's sequences meet only its own weights, through the same
per-model products, so its results are those of running it alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericError
from .ops import sigmoid  # noqa: F401  (unused here; perfbench/tracing.py wraps this name)


# Column order of the gate blocks. It keeps the three sigmoid gates (o, i, f)
# contiguous, for the forward pass's scale and the backward pass's factors,
# and the three gates that the cell-state gradient reaches (i, f, g) too.
GATE_ORDER = ("o", "i", "f", "g")


@dataclass
class LstmStreams:
    """S LSTMs that share a hidden size h, laid out to run as one recurrence:
    each stream's input weights, and all streams' recurrent weights and
    biases stacked into one array each. Each array holds the four gate blocks
    side by side in GATE_ORDER."""

    w: tuple[np.ndarray, ...]  # S arrays (m_s, 4h)
    u: np.ndarray              # (S, h, 4h)
    b: np.ndarray              # (S, 4h)


def init_lstm_streams(
    input_sizes: tuple[int, ...], hidden_size: int, rng: np.random.Generator
) -> LstmStreams:
    """One LSTM per input size m_s, all of hidden size h, drawn stream by
    stream: Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init; forget-gate bias +1.

    A stream's blocks are drawn gate by gate in i, f, g, o order, all of W
    first, then all of U, so a seed gives the same weights whatever
    GATE_ORDER is.
    """
    h = hidden_size

    def draw(fan_in, rows):
        bound = 1.0 / np.sqrt(fan_in)
        blocks = {gate: rng.uniform(-bound, bound, size=(rows, h))
                  for gate in "ifgo"}
        return np.concatenate([blocks[gate] for gate in GATE_ORDER], axis=1)

    w, u = zip(*((draw(m, m), draw(h, h)) for m in input_sizes))
    b = np.zeros((len(w), 4, h))
    b[:, GATE_ORDER.index("f")] = 1.0
    return LstmStreams(w, np.stack(u), b.reshape(len(w), 4 * h))


def lstm_forward(
    sequences: tuple[np.ndarray, ...], params: LstmStreams
) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """Run S LSTMs, one per stream, over their (B, k, m_s) sequence batches.

    The streams share B, k and h; each has its own input width m_s. Returns
    per-stream lists of all hidden states (B, k, h) and final hidden states
    (B, h), and one cache for backprop. For a stack of F models, whose
    weights have a leading model axis, the batches and states have it too.
    """
    s, h = len(params.w), params.u.shape[-1] // 4
    lead = params.u.shape[:-3]  # () for one model, (F,) for a stack of F
    nl = len(lead)
    if len(sequences) != s or not s:
        raise ContractError(f"{len(sequences)} sequence batches, {s} LSTMs")
    if params.u.shape != (*lead, s, h, 4 * h) or params.b.shape != (*lead, s, 4 * h):
        raise ContractError(f"stacked u {params.u.shape} and b {params.b.shape} "
                            f"for {s} LSTMs")
    sequences = tuple(np.asarray(seq, dtype=float) for seq in sequences)
    batch = sequences[0].shape[: nl + 2]  # the shared (*lead, B, k)
    for seq, w in zip(sequences, params.w):
        if (w.shape[:-2] != lead or w.shape[-1] != 4 * h
                or seq.shape != (*batch, w.shape[-2])):
            raise ContractError(f"sequence batch shape {seq.shape} for input "
                                f"weights {w.shape}, hidden size {h}")
        if not np.isfinite(seq).all():
            raise NumericError("non-finite value in LSTM input sequence")
    n, k = batch[nl:]
    per_row = (slice(None),) * (nl + 1) + (None,)  # a B axis after the S axis
    step_last = (*range(1, nl + 2), 0, nl + 2)     # (k, *lead, B, x) to (*lead, B, k, x)
    # sigmoid(x) = (1 + tanh(x / 2)) / 2. So with the o, i, f columns of W,
    # U and b halved, which is exact, one tanh, a scale and an offset (1 and
    # -0.0 on g, exact identities) leave all four gates in the buffer, which
    # holds each step's x W + b until the step adds h_prev @ U. Each step's
    # intermediates go to buffers allocated once here.
    scale = np.full((2, 4 * h), 0.5)
    scale[:, 3 * h :] = [[1.0], [-0.0]]
    half, offset = scale
    u = params.u[per_row] * half                   # (*lead, S, 1, h, 4h)
    gates = np.empty((k, *lead, s, n, 4 * h))  # step t is one (*lead, S, B, 4h) view
    for j, (seq, w) in enumerate(zip(sequences, params.w)):
        np.matmul(seq, (w[per_row[1:]] if nl else w) * half,
                  out=gates[per_row[:-1] + (j,)].transpose(step_last))
    gates += params.b[per_row] * half
    hs, cs = np.zeros((2, k + 1, *lead, s, n, h))  # step 0: the initial state
    tanh_cs = np.empty((k, *lead, s, n, h))
    a, ig = np.empty((*lead, s, n, 4 * h)), np.empty((*lead, s, n, h))
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    steps = zip(gates, o, i, f, g, hs, hs[1:], cs, cs[1:], tanh_cs)
    for gate, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tc_t in steps:
        # One vector-matrix product per sequence of every stream, so a
        # sequence's result depends neither on its batch nor on the others.
        np.vecmat(h_prev, u, out=a)
        gate += a
        np.tanh(gate, out=gate)
        gate *= half
        gate += offset
        np.multiply(f_t, c_prev, out=c_t)
        c_t += np.multiply(i_t, g_t, out=ig)
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)

    cache = dict(sequences=sequences, gates=gates, hs=hs, cs=cs, tanh_cs=tanh_cs)
    stream_first = (nl + 1, *range(1, nl + 1), nl + 2, 0, nl + 3)
    return (list(hs[1:].transpose(stream_first)),
            list(hs[-1].transpose(nl, *range(nl), nl + 1, nl + 2).copy()), cache)


def lstm_backward(
    params: LstmStreams, cache: dict, d_hs: tuple[np.ndarray, ...],
    out: LstmStreams,
) -> None:
    """BPTT given upstream gradients for every hidden state of every stream.

    `d_hs` holds one (B, k, h) array per stream, with params' model axis if
    it has one; for a final-state-only consumer all steps but the last are
    zero. The gradients, summed over the batch, are written into `out`, an
    LstmStreams of params' shapes.
    """
    gates, hs, cs, tanh_cs = (cache[key] for key in ("gates", "hs", "cs", "tanh_cs"))
    k, *lead, s, n, h = tanh_cs.shape
    nl = len(lead)
    shapes = [np.shape(d) for d in d_hs]
    if len(params.w) != s or shapes != [(*lead, n, k, h)] * s:
        raise ContractError(f"d_hs shapes {shapes} for {len(params.w)} LSTMs; "
                            f"expected {s} of {(*lead, n, k, h)}")

    # Everything but the recurrence is elementwise over steps, so it is done
    # for all steps at once: each gate's pre-activation gradient is dh (gate
    # o) or dc (gates i, f, g) times a factor known from the forward pass.
    # The factors fill `da`, which the loop then scales in place; `da` is
    # stream-major, so each stream's gradients are read from one block.
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    sig = gates.reshape(k, *lead, s, n, 4, h)[..., :3, :]  # the o, i, f blocks
    da = np.empty((*lead, s, k, n, 4 * h))   # pre-activation grads o | i | f | g
    step_first = (nl + 1, *range(nl + 1), nl + 2, nl + 3)  # da's axes as gates has them
    factor = da.reshape(*lead, s, k, n, 4, h).transpose(*step_first, nl + 4)
    np.subtract(1.0, sig, out=factor[..., :3, :])
    factor[..., :3, :] *= sig
    factor[..., 0, :] *= tanh_cs
    factor[..., 1, :] *= g
    factor[..., 2, :] *= cs[:-1]
    np.multiply(i, 1.0 - g**2, out=factor[..., 3, :])
    d_tanh_c = o * (1.0 - tanh_cs**2)        # dc contribution of dh
    u_t = params.u.mT                        # u.T views; a copy moves bits

    # Step t's dh is accumulated in place into a copy of its upstream
    # gradients; dc and the carries to the step before go to buffers
    # allocated once.
    d_hs = np.array(d_hs, dtype=float).transpose(  # (k, *lead, S, B, h)
        nl + 2, *range(1, nl + 1), 0, nl + 1, nl + 3)
    dh_next, dc_next, dc = np.zeros((3, *lead, s, n, h))
    dc_gates = dc[..., None, :]
    steps = list(zip(d_hs, d_tanh_c, da.transpose(step_first), factor[..., 0, :],
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
    da_s = da.reshape(*lead, s, k * n, 4 * h)
    for seq, da_j, w_grad in zip(cache["sequences"],
                                 da_s.transpose(nl, *range(nl), nl + 1, nl + 2), out.w):
        rows = seq.swapaxes(-3, -2).reshape(*lead, k * n, -1)
        np.matmul(rows.mT, da_j, out=w_grad)
    hs_s = hs[:-1].transpose(*range(1, nl + 2), 0, nl + 2, nl + 3)
    np.matmul(hs_s.reshape(*lead, s, k * n, h).mT, da_s, out=out.u)
    np.add.reduce(da_s, axis=-2, out=out.b)
