"""Neural kernels against finite-difference and closed-form oracles."""
import numpy as np
import pytest

from spikecast.errors import ConfigError, ContractError, NumericError, ValidationError
from spikecast.nn import (
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
        hs, last, cache = lstm_forward(seq, params)
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
        hs, last, _ = lstm_forward(np.ones((1, 4, 2)), params)
        assert np.all(hs == 0.0)

    def test_rejects_bad_input(self):
        params = init_lstm_params(2, 3, np.random.default_rng(4))
        with pytest.raises(ContractError):
            lstm_forward(np.ones((1, 4, 5)), params)
        with pytest.raises(ContractError):
            lstm_forward(np.ones((4, 2)), params)  # no batch axis
        with pytest.raises(NumericError):
            lstm_forward(np.array([[[1.0, np.nan]]]), params)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_lstm_params(2, 4, rng)
        seq = rng.normal(size=(3, 5, 2))
        d_hs = rng.normal(size=(3, 5, 4))

        def closure():
            hs, _, cache = lstm_forward(seq, params)
            loss = float((hs * d_hs).sum())
            return loss, lstm_backward(params, cache, d_hs)

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
        hs, last, cache = lstm_forward(seq, p)
        assert np.abs(hs - expected).max() < 1e-12
        assert np.abs(last - expected[:, -1]).max() < 1e-12

        grads = lstm_backward(p, cache, rng.normal(size=hs.shape))
        assert list(grads) == list(p.arrays()) == ["w", "u", "b"]
        for name, arr in p.arrays().items():
            assert grads[name].shape == arr.shape, name


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
            grads, d_states = attention_backward(params, cache, probe)
            grads = dict(grads)
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
            grads, d_x = head_backward(params, cache, d_preds)
            grads = dict(grads)
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


class TestAdam:
    def test_first_step_size_is_alpha(self):
        # with bias correction the first update is alpha * sign(g) (up to eps)
        params = {"w": np.array([1.0, 1.0])}
        grads = {"w": np.array([0.3, -700.0])}
        state = init_adam(params, alpha=0.1)
        adam_step(params, grads, state)
        assert np.allclose(params["w"], [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_converges_on_quadratic_bowl(self):
        params = {"w": np.array([5.0, -3.0])}
        state = init_adam(params, alpha=0.05)
        for _ in range(2000):
            grads = {"w": 2.0 * params["w"]}
            adam_step(params, grads, state)
        assert np.abs(params["w"]).max() < 1e-3

    def test_weight_decay_only_on_selected(self):
        params = {"a": np.array([2.0]), "b": np.array([2.0])}
        state = init_adam(params, alpha=0.0, weight_decay=0.5, decay_keys={"a"})
        before_a, before_b = params["a"].copy(), params["b"].copy()
        adam_step(params, {"a": np.array([0.0]), "b": np.array([0.0])}, state)
        # alpha=0 freezes values, but moments must see decay only for "a"
        assert state.m["a"][0] != 0.0
        assert state.m["b"][0] == 0.0
        assert np.array_equal(params["a"], before_a)
        assert np.array_equal(params["b"], before_b)

    def test_refuses_nonfinite_gradients(self):
        params = {"w": np.array([1.0])}
        state = init_adam(params)
        before = params["w"].copy()
        with pytest.raises(NumericError, match="refused"):
            adam_step(params, {"w": np.array([np.nan])}, state)
        assert np.array_equal(params["w"], before)
        assert state.step == 0

    def test_step_counter(self):
        params = {"w": np.array([1.0])}
        state = init_adam(params)
        adam_step(params, {"w": np.array([0.1])}, state)
        adam_step(params, {"w": np.array([0.1])}, state)
        assert state.step == 2


class TestClip:
    def test_noop_below_threshold(self):
        grads = {"w": np.array([0.3, 0.4])}  # norm 0.5
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.allclose(grads["w"], [0.3, 0.4])

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}  # norm 5
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)


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
