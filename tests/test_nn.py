"""Neural kernels against finite-difference and closed-form oracles."""
import tracemalloc

import numpy as np
import pytest

from spikecast.errors import ConfigError, ContractError, NumericError, ValidationError
from spikecast.nn import (
    LstmStreams,
    attention_backward,
    attention_forward,
    bce_loss,
    grad_check,
    head_backward,
    head_forward,
    init_attention_params,
    init_head_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    relu,
    sigmoid,
    softmax_rows,
)
from spikecast.nn.optim import adam_step, clip_global_norm, init_adam

from conftest import (
    assert_same_bits,
    reference_lstm_backward,
    reference_lstm_forward,
    run_backward,
    stack_streams,
)


class TestOps:
    def test_sigmoid_stable_extremes(self):
        assert sigmoid(np.array([1000.0]))[0] == 1.0
        assert sigmoid(np.array([-1000.0]))[0] == 0.0
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_bitwise_equals_masked_form(self):
        # Reference: the masked gather/scatter form of the stable sigmoid.
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        grid = np.array([0.0, 1e-300, 1.0, 30.0, 709.0, 745.0, np.inf])
        grid = np.concatenate([grid, -grid, [np.nan]])
        grid = np.concatenate([grid, np.linspace(-40.0, 40.0, 801)])
        assert sigmoid(grid).tobytes() == masked(grid).tobytes()
        assert np.signbit(grid[7]) and sigmoid(grid[7:8])[0] == 0.5  # -0.0

        # The LSTM's path: out= a strided view, the first 3h columns of each
        # row of a (..., 4h) gate buffer, from a strided view of the same
        # shape; the last h columns stay untouched.
        h = grid.size
        a = np.full((2, 3, 4 * h), 7.0)
        a[..., : 3 * h] = np.concatenate([grid, grid[::-1], -grid])
        gates = np.full((2, 3, 4 * h), -3.0)
        got = sigmoid(a[..., : 3 * h], out=gates[..., : 3 * h])
        assert got is not None and np.shares_memory(got, gates)
        want = masked(np.ascontiguousarray(a[..., : 3 * h]))
        assert np.ascontiguousarray(gates[..., : 3 * h]).tobytes() == want.tobytes()
        assert (gates[..., 3 * h :] == -3.0).all()

    def test_relu(self):
        got = relu(np.array([-2.0, 0.0, 3.0]))
        assert list(got) == [0.0, 0.0, 3.0]

    def test_softmax_rows_sum_and_stability(self):
        logits = np.array([[1e4, 1e4 + 1.0], [-1e4, -1e4 + 2.0]])
        w = softmax_rows(logits)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(w).all()

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6))
        shifted = logits.copy()
        shifted[2] += 123.456
        assert np.allclose(softmax_rows(logits), softmax_rows(shifted), atol=1e-12)


class TestLstm:
    def test_shapes_and_cache(self):
        rng = np.random.default_rng(1)
        params = init_lstm_params(3, 5, rng)
        seq = rng.normal(size=(2, 7, 3))
        (hs,), (last,), cache = lstm_forward((seq,), stack_streams((params,)))
        assert hs.shape == (2, 7, 5)
        assert last.shape == (2, 5)
        assert np.array_equal(last, hs[:, -1])

    def test_forget_bias_ones(self):
        params = init_lstm_params(2, 4, np.random.default_rng(2))
        b_o, b_i, b_f, b_g = params.b.reshape(4, 4)  # stored order o | i | f | g
        assert np.all(b_f == 1.0)
        assert not np.any([b_o, b_i, b_g])

    def test_init_matches_per_gate_draw_order(self):
        # The reference draw: W blocks gate by gate in i, f, g, o order, then
        # the U blocks, then constant biases; stored side by side as o | i | f | g.
        m, h = 3, 5
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = init_lstm_params(m, h, rng)
            ref = np.random.default_rng(seed)
            bw, bu = 1.0 / np.sqrt(m), 1.0 / np.sqrt(h)
            w = {g: ref.uniform(-bw, bw, size=(m, h)) for g in "ifgo"}
            u = {g: ref.uniform(-bu, bu, size=(h, h)) for g in "ifgo"}
            b = {"o": np.zeros(h), "i": np.zeros(h), "f": np.ones(h), "g": np.zeros(h)}
            for got, blocks in ((params.w, w), (params.u, u), (params.b, b)):
                want = np.concatenate([blocks[g] for g in "oifg"], axis=-1)
                assert got.tobytes() == want.tobytes()
            assert rng.random() == ref.random()  # later draws are unchanged too

    def test_zero_params_zero_output(self):
        params = init_lstm_params(2, 3, np.random.default_rng(3))
        for arr in params.arrays().values():
            arr[:] = 0.0
        (hs,), (last,), _ = lstm_forward((np.ones((1, 4, 2)),), stack_streams((params,)))
        assert np.all(hs == 0.0)

    def test_rejects_bad_input(self):
        params = stack_streams((init_lstm_params(2, 3, np.random.default_rng(4)),))
        with pytest.raises(ContractError):
            lstm_forward((np.ones((1, 4, 5)),), params)
        with pytest.raises(ContractError):
            lstm_forward((np.ones((4, 2)),), params)  # no batch axis
        with pytest.raises(NumericError):
            lstm_forward((np.array([[[1.0, np.nan]]]),), params)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_lstm_params(2, 4, rng)
        seq = rng.normal(size=(3, 5, 2))
        d_hs = rng.normal(size=(3, 5, 4))

        def closure():  # stacks the perturbed arrays afresh each call
            stacked = stack_streams((params,))
            (hs,), _, cache = lstm_forward((seq,), stacked)
            loss = float((hs * d_hs).sum())
            grads, _ = run_backward(lstm_backward, stacked, cache, (d_hs,))
            return loss, grads.stream(0).arrays()

        worst = grad_check(closure, params.arrays(), rng=np.random.default_rng(0))
        assert worst < 1e-4

    def test_matches_per_gate_recurrence(self):
        # A kernel that swapped gate blocks consistently would still pass the
        # finite-difference check; this pins each column block to its gate.
        rng = np.random.default_rng(6)
        p = init_lstm_params(3, 5, rng)
        for arr in p.arrays().values():
            arr[...] = rng.normal(size=arr.shape)
        seq = rng.normal(size=(2, 6, 3))

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        def gate(arr, name):  # stored column order o | i | f | g
            j = "oifg".index(name)
            return arr[..., j * 5 : (j + 1) * 5]

        w_i, w_f, w_g, w_o = (gate(p.w, n) for n in "ifgo")
        u_i, u_f, u_g, u_o = (gate(p.u, n) for n in "ifgo")
        b_i, b_f, b_g, b_o = (gate(p.b, n) for n in "ifgo")
        expected = []
        for one in seq:
            h, c, states = np.zeros(5), np.zeros(5), []
            for x in one:
                i = sig(x @ w_i + h @ u_i + b_i)
                f = sig(x @ w_f + h @ u_f + b_f)
                g = np.tanh(x @ w_g + h @ u_g + b_g)
                o = sig(x @ w_o + h @ u_o + b_o)
                c = f * c + i * g
                h = o * np.tanh(c)
                states.append(h)
            expected.append(states)
        expected = np.array(expected)
        stacked = stack_streams((p,))
        (hs,), (last,), cache = lstm_forward((seq,), stacked)
        assert np.abs(hs - expected).max() < 1e-12
        assert np.abs(last - expected[:, -1]).max() < 1e-12

        out, _ = run_backward(lstm_backward, stacked, cache, (rng.normal(size=hs.shape),))
        grads = out.stream(0).arrays()
        assert list(grads) == list(p.arrays()) == ["w", "u", "b"]
        for name, arr in p.arrays().items():
            assert grads[name].shape == arr.shape, name


class TestLstmStreams:
    """S streams in one recurrence equal S single-stream runs, bit for bit."""

    H = 32

    @staticmethod
    def _run(seqs, params, d_hs):
        stacked = stack_streams(params)
        hs, last, cache = lstm_forward(seqs, stacked)
        grads, _ = run_backward(lstm_backward, stacked, cache, d_hs)
        return hs, last, [grads.stream(j).arrays() for j in range(len(params))]

    @pytest.mark.parametrize("m", [1, 16, 128])
    @pytest.mark.parametrize("k", [1, 5, 16])
    @pytest.mark.parametrize("batch", [1, 3, 8, 16])
    def test_fused_equals_reference(self, batch, k, m):
        rng = np.random.default_rng(batch * 10_000 + k * 1_000 + m)
        widths = (1, m)  # the model's price and news streams
        params = tuple(init_lstm_params(w, self.H, rng) for w in widths)
        for p in params:
            p.b[...] = rng.normal(scale=0.5, size=p.b.shape)
        seqs = tuple(rng.normal(size=(batch, k, w)) for w in widths)
        d_hs = tuple(rng.normal(size=(batch, k, self.H)) for _ in widths)

        want = []
        for seq, p, d in zip(seqs, params, d_hs):
            hs, last, cache = reference_lstm_forward(seq, p)
            want.append((hs, last, reference_lstm_backward(p, cache, d)))
        for streams in ((0, 1), (1,), (0,)):
            got = self._run(tuple(seqs[j] for j in streams),
                            tuple(params[j] for j in streams),
                            tuple(d_hs[j] for j in streams))
            for pos, j in enumerate(streams):
                hs, last, grads = want[j]
                assert_same_bits(got[0][pos], hs)
                assert_same_bits(got[1][pos], last)
                assert list(got[2][pos]) == ["w", "u", "b"]
                for name in ("w", "u", "b"):
                    assert_same_bits(got[2][pos][name], grads[name])

    def _pair(self, rng, batch=(2, 2), k=(4, 4), h=(3, 3)):
        params = (init_lstm_params(1, h[0], rng), init_lstm_params(2, h[1], rng))
        seqs = (rng.normal(size=(batch[0], k[0], 1)),
                rng.normal(size=(batch[1], k[1], 2)))
        return seqs, params

    def test_streams_must_share_batch_steps_and_hidden(self):
        rng = np.random.default_rng(9)
        for bad in ({"batch": (2, 3)}, {"k": (4, 5)}):
            seqs, params = self._pair(rng, **bad)
            with pytest.raises(ContractError):
                lstm_forward(seqs, stack_streams(params))
        seqs, params = self._pair(rng, h=(3, 4))
        with pytest.raises(ContractError):
            stack_streams(params)
        seqs, params = self._pair(rng)
        stacked = stack_streams(params)
        with pytest.raises(ContractError):
            lstm_forward(seqs, stack_streams(params[:1]))  # one LSTM for two streams
        with pytest.raises(ContractError):
            lstm_forward((), LstmStreams((), np.empty((0, 3, 12)), np.empty((0, 12))))
        for u, b in ((stacked.u[:1], stacked.b), (stacked.u, stacked.b[:, :-1]),
                     (stacked.u[:, :, :-4], stacked.b)):
            with pytest.raises(ContractError):
                lstm_forward(seqs, LstmStreams(stacked.w, u, b))
        with pytest.raises(ContractError):  # input weights of another width
            lstm_forward(seqs, LstmStreams(stacked.w[::-1], stacked.u, stacked.b))

    def test_d_hs_must_match_stream_count(self):
        rng = np.random.default_rng(10)
        seqs, params = self._pair(rng)
        params = stack_streams(params)
        hs, _, cache = lstm_forward(seqs, params)
        for d_hs in ((hs[0],), (hs[0], hs[1], hs[1])):
            with pytest.raises(ContractError):
                run_backward(lstm_backward, params, cache, d_hs)
        with pytest.raises(ContractError):
            run_backward(lstm_backward, params, cache, (hs[0], hs[1][:, :-1]))
        grads, _ = run_backward(lstm_backward, params, cache, tuple(hs))
        assert len(grads.w) == 2 and np.isfinite(grads.u).all()

    @pytest.mark.parametrize("stream", [0, 1])
    def test_non_finite_in_either_stream(self, stream):
        rng = np.random.default_rng(11)
        seqs, params = self._pair(rng)
        seqs[stream][1, 2, 0] = np.inf
        with pytest.raises(NumericError):
            lstm_forward(seqs, stack_streams(params))


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        params = init_attention_params(4, 3, rng)
        states = rng.normal(size=(2, 5, 4))
        _, weights, _ = attention_forward(states, params)
        assert weights.shape == (2, 5, 5)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_zero_query_key_uniform(self):
        rng = np.random.default_rng(7)
        params = init_attention_params(4, 3, rng)
        params.w_q[:] = 0.0
        params.w_k[:] = 0.0
        states = rng.normal(size=(2, 6, 4))
        context, weights, _ = attention_forward(states, params)
        assert np.all(weights == 1.0 / 6.0)
        v = states @ params.w_v
        assert np.allclose(context, v.mean(axis=1), atol=1e-12)

    def test_context_is_mean_over_positions(self):
        rng = np.random.default_rng(8)
        params = init_attention_params(3, 2, rng)
        states = rng.normal(size=(3, 4, 3))
        context, weights, _ = attention_forward(states, params)
        v = states @ params.w_v
        assert np.allclose(context, (weights @ v).mean(axis=1), atol=1e-12)
        # the batch axis is only broadcast over: one (k, h) sequence at a time
        # gives the same rows
        for b in range(3):
            one, one_weights, _ = attention_forward(states[b], params)
            assert one.shape == (2,) and one_weights.shape == (4, 4)
            assert np.array_equal(one, context[b])
            assert np.array_equal(one_weights, weights[b])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        params = init_attention_params(4, 3, rng)
        states = rng.normal(size=(2, 5, 4))
        probe = rng.normal(size=(2, 3))
        bundle = dict(params.arrays())
        bundle["states"] = states

        def closure():
            context, _, cache = attention_forward(states, params)
            loss = float((context * probe).sum())
            out, d_states = run_backward(attention_backward, params, cache, probe)
            grads = dict(out.arrays())
            grads["states"] = d_states
            return loss, grads

        worst = grad_check(closure, bundle, rng=np.random.default_rng(0))
        assert worst < 1e-4


class TestHead:
    def test_inference_deterministic(self):
        rng = np.random.default_rng(10)
        params = init_head_params(6, 4, 0.5, rng)
        x = rng.normal(size=(3, 6))
        p1, _ = head_forward(x, params)
        p2, _ = head_forward(x, params)
        assert p1.shape == (3,)
        assert np.array_equal(p1, p2)
        assert np.all((0.0 < p1) & (p1 < 1.0))

    def test_train_mode_requires_rng(self):
        params = init_head_params(4, 3, 0.5, np.random.default_rng(11))
        with pytest.raises(ConfigError):
            head_forward(np.zeros((1, 4)), params, train=True, rng=None)

    def test_invalid_dropout(self):
        with pytest.raises(ConfigError):
            init_head_params(4, 3, 1.0, np.random.default_rng(12))
        with pytest.raises(ConfigError):
            init_head_params(4, 3, -0.1, np.random.default_rng(12))

    def test_inverted_dropout_preserves_expectation(self):
        rng = np.random.default_rng(13)
        params = init_head_params(5, 16, 0.3, rng)
        x = rng.normal(size=(1, 5))
        _, cache = head_forward(x, params)
        reference = cache["dropped"][0]  # inference: mask of ones
        draws = np.random.default_rng(99)
        total = np.zeros(16)
        trials = 20000
        for _ in range(trials):
            _, c = head_forward(x, params, train=True, rng=draws)
            total += c["dropped"][0]
        mean_activation = total / trials
        # E[mask * h / (1-p)] = h
        tol = 0.05 * np.abs(reference).max() + 0.02
        assert np.allclose(mean_activation, reference, atol=tol)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        params = init_head_params(5, 4, 0.0, rng)
        x = rng.normal(size=(3, 5))
        bundle = dict(params.arrays())
        bundle["x"] = x

        def closure():
            prob, cache = head_forward(x, params)
            loss, d_preds = bce_loss(prob, np.array([1.0, 0.0, 1.0]))
            out, d_x = run_backward(head_backward, params, cache, d_preds)
            grads = dict(out.arrays())
            grads["x"] = d_x
            return loss, grads

        worst = grad_check(closure, bundle, rng=np.random.default_rng(0))
        assert worst < 1e-4


class TestBce:
    def test_matches_formula(self):
        preds = np.array([0.9, 0.2, 0.7])
        targets = np.array([1.0, 0.0, 1.0])
        loss, _ = bce_loss(preds, targets)
        want = -np.mean(np.log([0.9, 0.8, 0.7]))
        assert loss == pytest.approx(want, rel=1e-12)

    def test_clamp_prevents_infinities(self):
        loss, grads = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert np.isfinite(grads).all()

    def test_pos_weight(self):
        preds = np.array([0.5, 0.5])
        targets = np.array([1.0, 0.0])
        base, _ = bce_loss(preds, targets)
        weighted, _ = bce_loss(preds, targets, pos_weight=3.0)
        # positive term tripled: (3*l + l)/2 vs (l + l)/2
        assert weighted == pytest.approx(2.0 * base, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        preds = rng.uniform(0.05, 0.95, size=6)
        targets = (rng.random(6) < 0.5).astype(float)
        _, grads = bce_loss(preds, targets, pos_weight=2.0)
        eps = 1e-7
        for i in range(6):
            up, dn = preds.copy(), preds.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (bce_loss(up, targets, 2.0)[0] - bce_loss(dn, targets, 2.0)[0]) / (2 * eps)
            assert grads[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_rejects_bad_targets(self):
        with pytest.raises(ContractError):
            bce_loss(np.array([0.5]), np.array([0.3]))
        with pytest.raises(ContractError):
            bce_loss(np.array([]), np.array([]))


def _parent_adam_step(params, grads, state, decay_keys):
    """The per-array Adam loop the flat update replaced, kept as its reference."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    for name, theta in params.items():
        g = grads[name]
        if state["weight_decay"] and name in decay_keys:
            g = g + state["weight_decay"] * theta
        m = state["m"][name]
        v = state["v"][name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        theta -= state["alpha"] * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def _allocating_adam_step(theta, grad, state):
    """The flat update as array expressions, one temporary each: the
    reference for the scratch-buffer adam_step."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    if state.weight_decay:
        np.add(grad, state.weight_decay * theta, out=grad, where=state.decay_mask)
    m, v = state.m, state.v
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * grad * grad
    theta -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


class TestAdam:
    def test_first_step_size_is_alpha(self):
        # with bias correction the first update is alpha * sign(g) (up to eps)
        theta = np.array([1.0, 1.0])
        state = init_adam(theta, alpha=0.1)
        adam_step(theta, np.array([0.3, -700.0]), state)
        assert np.allclose(theta, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_converges_on_quadratic_bowl(self):
        theta = np.array([5.0, -3.0])
        state = init_adam(theta, alpha=0.05)
        for _ in range(2000):
            adam_step(theta, 2.0 * theta, state)
        assert np.abs(theta).max() < 1e-3

    def test_weight_decay_only_on_selected(self):
        theta = np.array([2.0, 2.0])
        state = init_adam(theta, alpha=0.0, weight_decay=0.5,
                          decay_mask=np.array([True, False]))
        adam_step(theta, np.array([0.0, 0.0]), state)
        # alpha=0 freezes values, but moments must see decay only for entry 0
        assert state.m[0] != 0.0
        assert state.m[1] == 0.0
        assert np.array_equal(theta, [2.0, 2.0])

    def test_refuses_nonfinite_gradients(self):
        theta = np.array([1.0, 2.0])
        state = init_adam(theta, weight_decay=0.5, decay_mask=np.array([True, True]))
        grad = np.array([0.1, np.nan])
        with pytest.raises(NumericError, match="refused"):
            adam_step(theta, grad, state)
        assert np.array_equal(theta, [1.0, 2.0])
        assert np.array_equal(grad, [0.1, np.nan], equal_nan=True)
        assert not state.m.any() and not state.v.any()
        assert state.step == 0

    def test_refuses_shape_mismatch(self):
        theta = np.array([1.0, 2.0])
        state = init_adam(theta)
        with pytest.raises(ContractError, match="shape"):
            adam_step(theta, np.array([0.1]), state)
        assert np.array_equal(theta, [1.0, 2.0])
        assert state.step == 0

    def test_step_counter(self):
        theta = np.array([1.0])
        state = init_adam(theta)
        adam_step(theta, np.array([0.1]), state)
        adam_step(theta, np.array([0.1]), state)
        assert state.step == 2

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_bitwise_equal_to_per_array_loop(self, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {"a.w": (3, 8), "a.b": (8,), "head.w1": (5, 4), "head.b1": (4,),
                  "head.w2": (4,)}
        decay_keys = {"head.w1", "head.w2"}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        ref = {"step": 0, "alpha": 0.01, "weight_decay": weight_decay,
               "m": {n: np.zeros_like(a) for n, a in params.items()},
               "v": {n: np.zeros_like(a) for n, a in params.items()}}
        theta = np.concatenate(list(params.values()), axis=None)
        mask = np.concatenate([np.full(a.size, n in decay_keys)
                               for n, a in params.items()])
        state = init_adam(theta, alpha=0.01, weight_decay=weight_decay,
                          decay_mask=mask)
        for _ in range(25):
            grads = {n: rng.normal(scale=3.0, size=a.shape) for n, a in params.items()}
            _parent_adam_step(params, grads, ref, decay_keys)
            adam_step(theta, np.concatenate(list(grads.values()), axis=None), state)
            expected = np.concatenate(list(params.values()), axis=None)
            assert np.array_equal(theta.view(np.int64), expected.view(np.int64))
        assert np.array_equal(state.m, np.concatenate(list(ref["m"].values()), axis=None))
        assert np.array_equal(state.v, np.concatenate(list(ref["v"].values()), axis=None))


    def test_scratch_step_equals_allocating_step(self):
        rng = np.random.default_rng(22)
        n = 300
        theta = rng.normal(size=n)
        ref_theta = theta.copy()
        mask = rng.random(n) < 0.3
        state = init_adam(theta, alpha=0.01, weight_decay=1e-2, decay_mask=mask)
        ref = init_adam(ref_theta, alpha=0.01, weight_decay=1e-2, decay_mask=mask)
        for _ in range(50):
            grad = rng.normal(scale=3.0, size=n)
            ref_grad = grad.copy()
            adam_step(theta, grad, state)
            _allocating_adam_step(ref_theta, ref_grad, ref)
            assert_same_bits(theta, ref_theta)
            assert_same_bits(grad, ref_grad)  # decay lands in grad as before
        assert_same_bits(state.m, ref.m)
        assert_same_bits(state.v, ref.v)

    def test_gradient_in_scratch_row(self):
        # train gathers each gradient into state.scratch[0]; the step must
        # read it before reusing the row.
        rng = np.random.default_rng(24)
        n = 300
        theta = rng.normal(size=n)
        ref_theta = theta.copy()
        mask = rng.random(n) < 0.3
        state = init_adam(theta, alpha=0.01, weight_decay=1e-2, decay_mask=mask)
        ref = init_adam(ref_theta, alpha=0.01, weight_decay=1e-2, decay_mask=mask)
        for _ in range(20):
            grad = rng.normal(scale=3.0, size=n)
            state.scratch[0] = grad
            adam_step(theta, state.scratch[0], state)
            adam_step(ref_theta, grad, ref)
            assert_same_bits(theta, ref_theta)
        assert_same_bits(state.m, ref.m)
        assert_same_bits(state.v, ref.v)

    def test_step_allocates_less_than_one_vector(self):
        n = 50_000
        rng = np.random.default_rng(23)
        theta = rng.normal(size=n)
        state = init_adam(theta, weight_decay=1e-4, decay_mask=rng.random(n) < 0.5)
        grad = rng.normal(size=n)
        adam_step(theta, grad, state)
        tracemalloc.start()
        try:
            adam_step(theta, grad, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes


class TestClip:
    def test_noop_below_threshold(self):
        grad = np.array([0.3, 0.4])  # norm 0.5
        norm = clip_global_norm(grad, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(grad, [0.3, 0.4])

    def test_scales_to_max_norm(self):
        grad = np.array([3.0, 4.0])  # norm 5
        norm = clip_global_norm(grad, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.sqrt(grad @ grad) == pytest.approx(1.0)
        assert np.allclose(grad, [0.6, 0.8])

    def test_nonpositive_max_norm_disables(self):
        grad = np.array([3.0, 4.0])
        assert clip_global_norm(grad, 0.0) == pytest.approx(5.0)
        assert np.array_equal(grad, [3.0, 4.0])


class TestGradCheck:
    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=4)
        params = {"w": w}

        def closure():
            loss = float((w ** 2).sum())
            return loss, {"w": 3.0 * w}  # 50% too large

        worst = grad_check(closure, params, rng=np.random.default_rng(0))
        assert worst > 0.1

    def test_accepts_correct_gradient(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=4)
        params = {"w": w}

        def closure():
            return float((w ** 2).sum()), {"w": 2.0 * w}

        assert grad_check(closure, params, rng=np.random.default_rng(0)) < 1e-6

    def test_subsamples_large_bundles(self):
        rng = np.random.default_rng(18)
        # small magnitudes keep the total loss small, so the central
        # difference does not lose the per-coordinate signal to cancellation
        w = rng.normal(size=5000) * 0.01
        params = {"w": w}
        calls = {"n": 0}

        def closure():
            calls["n"] += 1
            return float((w ** 2).sum()), {"w": 2.0 * w}

        worst = grad_check(closure, params, rng=np.random.default_rng(0))
        assert worst < 1e-4
        # a full sweep would need 10001 evaluations
        assert calls["n"] < 2000
