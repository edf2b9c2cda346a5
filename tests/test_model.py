"""Windowing, the dual-stream classifier, training loop, and checkpoints."""
import base64
import copy
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikecast.model as model_module
from spikecast.errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    InsufficientDataError,
)
from spikecast.evaluation import fit_fold_pca
from spikecast.model import (
    CHECKPOINT_FORMAT,
    PCA_VARIANTS,
    PREDICT_STEPS,
    VARIANTS,
    ModelHyper,
    TrainConfig,
    Windows,
    backward_batch,
    evaluate_loss,
    flat_params,
    forward_batch,
    init_model,
    load_checkpoint,
    make_windows,
    predict,
    reduce_samples,
    save_checkpoint,
    train,
    write_history_csv,
)
from spikecast.nn import bce_loss
from spikecast.pca import fit_pca

from conftest import (
    assert_same_bits,
    flat_order_clip,
    grad_check,
    gradient_params,
    planted_dataset,
    reference_reduce,
    reference_train,
    reference_windows,
    train_one,
    window_years,
    with_targets,
    zero_params,
)

HYPER_SMALL = ModelHyper(k=3, d_prime=2, h=4, h_a=4, dropout=0.0, seed=7)


def tiny_samples(n=12, k=3, d=2, seed=0):
    ds = planted_dataset(n=n, d=d, seed=seed)
    return make_windows(ds, k)


class TestMakeWindows:
    def test_count_and_shapes(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        assert len(samples) == 7
        prices, news, _ = samples.batch()
        assert prices.shape[1:] == (3, 1)
        assert news.shape[1:] == (3, 4)

    def test_alignment(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        prices, news, _ = samples.batch()
        assert tuple(window_years(samples)[0]) == (1960, 1961, 1962)
        assert samples.anchor_years[0] == 1962
        assert samples.targets[0] == int(ds.labels[3])
        np.testing.assert_array_equal(prices[0, :, 0], ds.prices[:3])
        np.testing.assert_array_equal(news[0], ds.embeddings[:3])
        assert samples.anchor_years[-1] == 1968
        assert samples.targets[-1] == int(ds.labels[9])

    def test_batch_arrays_are_copies(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        assert samples.data is ds  # each year held once, in the dataset
        prices, news, targets = samples.batch()
        prices[0, 0, 0] = 999.0
        news[0, 0, 0] = 999.0
        targets[0] = 7
        assert ds.prices[0] != 999.0
        assert ds.embeddings[0, 0] != 999.0
        assert ds.labels[3] != 7
        assert prices.flags.c_contiguous
        assert news.flags.c_contiguous

    def test_errors(self):
        ds = planted_dataset(n=5, d=2)
        with pytest.raises(ConfigError):
            make_windows(ds, k=0)
        with pytest.raises(InsufficientDataError):
            make_windows(ds, k=5)
        assert len(make_windows(ds, k=4)) == 1

    def test_windows_never_span_a_missing_year(self):
        # Aligned years 1960-1962 and 1964-1966, k = 2: each run of three
        # consecutive years gives one window, and no window crosses 1963.
        ds = replace(planted_dataset(n=6, d=3), years=(1960, 1961, 1962, 1964, 1965, 1966))
        samples = make_windows(ds, k=2)
        prices, news, _ = samples.batch()
        assert window_years(samples).tolist() == [[1960, 1961], [1964, 1965]]
        np.testing.assert_array_equal(samples.targets, ds.labels[[2, 5]])
        np.testing.assert_array_equal(prices[..., 0], ds.prices[[[0, 1], [3, 4]]])
        np.testing.assert_array_equal(news, ds.embeddings[[[0, 1], [3, 4]]])

    def test_no_run_of_k_plus_one_years(self):
        ds = replace(planted_dataset(n=4, d=2), years=(1960, 1961, 1963, 1964))
        with pytest.raises(InsufficientDataError, match="no 3 consecutive years"):
            make_windows(ds, k=2)
        assert len(make_windows(ds, k=1)) == 2

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gapped_years_match_per_window_reference(self, k):
        ds = planted_dataset(n=40, d=5, seed=k)
        years = np.arange(1960, 2000) + np.cumsum(np.isin(np.arange(40), [7, 9, 20, 21]))
        ds = replace(ds, years=tuple(years.tolist()))
        windows = make_windows(ds, k)
        want = reference_windows(ds, k)
        assert 0 < len(windows) == len(want) < 40 - k
        for field, got in enumerate((*windows.batch(), windows.anchor_years,
                                     window_years(windows))):
            assert_same_bits(got, [w[field] for w in want])

    def test_reduce_samples_projects_news(self):
        ds = planted_dataset(n=20, d=6)
        basis = fit_pca(ds.embeddings, 3)
        samples = make_windows(ds, k=4)
        reduced = reduce_samples(samples, basis)
        assert reduced.batch()[1].shape[1:] == (4, 3)
        np.testing.assert_array_equal(reduced.targets, samples.targets)
        assert samples.batch()[1].shape[1:] == (4, 6)  # originals untouched
        assert reduced.pca is basis and samples.pca is None
        assert reduced[2:5].pca is basis and reduced[np.array([0, 3])].pca is basis

    def test_reduce_samples_refuses_projected_windows(self):
        ds = planted_dataset(n=20, d=6)
        basis = fit_pca(ds.embeddings, 6)  # d' = d: the shapes alone would not tell
        reduced = reduce_samples(make_windows(ds, k=4), basis)
        with pytest.raises(ContractError, match="already projected"):
            reduce_samples(reduced, basis)
        with pytest.raises(ContractError, match="already projected"):
            reduce_samples(reduced[1:3], fit_pca(ds.embeddings, 2))

    @pytest.mark.parametrize("n,d,k", [(10, 4, 3), (5, 2, 4), (64, 16, 5),
                                       (40, 128, 16), (12, 3, 1)])
    def test_matches_per_window_reference(self, n, d, k):
        ds = planted_dataset(n=n, d=d, seed=n)
        windows = make_windows(ds, k)
        want = reference_windows(ds, k)
        assert len(windows) == len(want)
        for field, got in enumerate((*windows.batch(), windows.anchor_years,
                                     window_years(windows))):
            assert_same_bits(got, [w[field] for w in want])

    def test_reduce_samples_projects_each_year_once(self, monkeypatch):
        ds = planted_dataset(n=20, d=6)
        basis = fit_pca(ds.embeddings, 3)
        shapes, transform_rows = [], model_module.transform_rows
        monkeypatch.setattr(model_module, "transform_rows", lambda basis, rows:
                            shapes.append(rows.shape) or transform_rows(basis, rows))
        reduced = reduce_samples(make_windows(ds, k=4), basis)
        assert shapes == [(20, 6)]  # the dataset's years, not (16, 4, 6) window rows
        assert reduced.data.embeddings.shape == (20, 3)

    @pytest.mark.parametrize("n,d,k,d_prime", [(20, 6, 4, 3), (64, 16, 5, 8),
                                               (64, 128, 5, 16), (40, 32, 16, 16)])
    def test_reduce_matches_per_window_reference(self, n, d, k, d_prime):
        ds = planted_dataset(n=n, d=d, seed=k)
        basis = fit_pca(ds.embeddings, d_prime)
        reduced = reduce_samples(make_windows(ds, k), basis)
        want = reference_reduce(reference_windows(ds, k), basis)
        assert_same_bits(reduced.batch()[1], [w[1] for w in want])


class TestWindows:
    def test_slice_and_index_array_select_windows(self):
        samples = make_windows(planted_dataset(n=12, d=3), k=3)
        assert samples.k == 3
        for idx in (slice(2, 6), np.array([5, 0, 7])):
            part = samples[idx]
            assert isinstance(part, Windows)
            for got, want in zip(part.batch(), samples.batch()):
                np.testing.assert_array_equal(got, want[idx])
            np.testing.assert_array_equal(part.targets, samples.targets[idx])
            np.testing.assert_array_equal(part.anchor_years,
                                          window_years(samples)[idx][:, -1])
        assert len(samples[2:6]) == 4 and len(samples[np.array([1])]) == 1

    def test_iteration_refused(self):
        # An int index would yield windows without their batch axis.
        samples = make_windows(planted_dataset(n=12, d=3), k=3)
        with pytest.raises(TypeError):
            list(samples)


class TestInitModel:
    def test_fused_width_per_variant(self):
        hyper = ModelHyper(k=3, d_prime=5, h=8, h_a=6, dropout=0.3, seed=0)
        widths = {"full": 14, "no_attention": 16, "no_pca": 14, "no_news": 8}
        for variant, fused in widths.items():
            params = init_model(hyper, variant)
            assert params.head.w1.shape == (fused, 8), variant

    def test_branch_presence(self):
        hyper = ModelHyper(k=3, d_prime=5, h=8, h_a=6, dropout=0.3, seed=0)
        full = init_model(hyper, "full")  # LSTM streams: price, then news
        assert len(full.lstm.w) == 2 and full.attention is not None
        no_att = init_model(hyper, "no_attention")
        assert len(no_att.lstm.w) == 2 and no_att.attention is None
        no_news = init_model(hyper, "no_news")
        assert len(no_news.lstm.w) == 1 and no_news.attention is None

    def test_seeded_determinism(self):
        a = init_model(HYPER_SMALL, "full")
        b = init_model(HYPER_SMALL, "full")
        for name, arr in flat_params(a).items():
            np.testing.assert_array_equal(arr, flat_params(b)[name])

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            init_model(HYPER_SMALL, "bigger")

    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("d_prime", 0), ("h", 0), ("h", -1), ("h_a", 0),
        ("dropout", 1.0), ("dropout", -0.1), ("dropout", math.nan), ("seed", -1),
    ])
    def test_hyper_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            replace(HYPER_SMALL, **{field: value})

    def test_hyper_edges_accepted(self):
        hyper = ModelHyper(k=1, d_prime=1, h=1, h_a=1, dropout=0.0, seed=0)
        assert init_model(hyper, "full").head.w1.shape == (2, 1)
        assert replace(hyper, k=np.int64(2), seed=np.uint8(3), dropout=0).k == 2

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_flat_params_are_views_of_theta(self, variant):
        params = init_model(HYPER_SMALL, variant)
        flat = flat_params(params)
        theta = params.theta
        # Adding 1 through every view once leaves theta all ones only if the
        # views cover each of its elements exactly once.
        theta[...] = 0.0
        for name, arr in flat.items():
            assert np.shares_memory(arr, theta), name
            arr += 1.0
        assert theta.size == sum(arr.size for arr in flat.values())
        assert (theta == 1.0).all()
        # Each stream's flat_params arrays are its slices of the stacked LSTM
        # arrays, in stream order: with distinct values in theta, equal
        # values are the same elements.
        theta[...] = np.arange(theta.size)
        streams = [c for c in ("price_lstm", "news_lstm") if f"{c}.w" in flat]
        assert len(params.lstm.w) == len(streams) == (1 if variant == "no_news" else 2)
        assert params.lstm.u.shape == (len(streams), HYPER_SMALL.h, 4 * HYPER_SMALL.h)
        for j, component in enumerate(streams):
            for attr, stacked in (("w", params.lstm.w[j]), ("u", params.lstm.u[j]),
                                  ("b", params.lstm.b[j])):
                view = flat[f"{component}.{attr}"]
                assert np.shares_memory(stacked, theta)
                np.testing.assert_array_equal(stacked, view, f"{component}.{attr}")


class TestForward:
    def test_zero_params_give_half(self):
        samples = tiny_samples()
        for variant in VARIANTS:
            params = zero_params(init_model(HYPER_SMALL, variant))
            probs, _ = forward_batch(*samples[0:1].batch()[:2], params)
            assert probs.tolist() == [0.5], variant

    def test_probability_range(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        for i in range(len(samples)):
            (prob,), _ = forward_batch(*samples[i : i + 1].batch()[:2], params)
            assert 0.0 < prob < 1.0

    def test_no_news_ignores_news_stream(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "no_news")
        s = samples[0:1]
        (base,), _ = forward_batch(*s.batch()[:2], params)
        scrambled = replace(s, data=replace(s.data, embeddings=s.data.embeddings * -3.0 + 1.0))
        assert forward_batch(*scrambled.batch()[:2], params)[0][0] == base

    def test_full_variant_reads_news(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        s = samples[0:1]
        (base,), _ = forward_batch(*s.batch()[:2], params)
        scrambled = replace(s, data=replace(s.data, embeddings=s.data.embeddings * -3.0 + 1.0))
        assert forward_batch(*scrambled.batch()[:2], params)[0][0] != base

    def test_shape_contract(self):
        samples = tiny_samples(k=3, d=2)
        params = init_model(ModelHyper(k=4, d_prime=2, h=4, h_a=4, dropout=0.3, seed=0), "full")
        with pytest.raises(ContractError):
            forward_batch(*samples[0:1].batch()[:2], params)
        params = init_model(ModelHyper(k=3, d_prime=5, h=4, h_a=4, dropout=0.3, seed=0), "full")
        with pytest.raises(ContractError):
            forward_batch(*samples[0:1].batch()[:2], params)

    def test_inference_is_deterministic_despite_dropout_rate(self):
        hyper = ModelHyper(k=3, d_prime=2, h=4, h_a=4, dropout=0.5, seed=7)
        params = init_model(hyper, "full")
        s = tiny_samples()[0:1]
        first, _ = forward_batch(*s.batch()[:2], params)
        again, _ = forward_batch(*s.batch()[:2], params)
        assert first[0] == again[0]


class TestBackward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        samples = tiny_samples(n=8)
        params = init_model(HYPER_SMALL, variant)
        flat = flat_params(params)
        batch = samples[:4]
        targets = np.array(batch.targets, dtype=float)

        def loss_and_grads():
            probs = []
            caches = []
            for i in range(len(batch)):
                (p,), c = forward_batch(*batch[i : i + 1].batch()[:2], params)
                probs.append(p)
                caches.append(c)
            loss, d_preds = bce_loss(np.array(probs), targets)
            total = None
            for c, d in zip(caches, d_preds):
                out = gradient_params(params)
                backward_batch(params, c, np.array([d]), out=out)
                g = flat_params(out)
                if total is None:
                    total = g
                else:
                    for name in total:
                        total[name] += g[name]
            return loss, total

        assert grad_check(loss_and_grads, flat) < 1e-5

    def test_gradient_keys_cover_all_params(self):
        samples = tiny_samples()
        for variant in VARIANTS:
            params = init_model(HYPER_SMALL, variant)
            _, cache = forward_batch(*samples[0:1].batch()[:2], params)
            out = gradient_params(params)
            backward_batch(params, cache, np.array([1.0]), out=out)
            assert set(flat_params(out)) == set(flat_params(params)), variant


class TestBatch:
    """forward_batch/backward_batch on a batch against one window at a time."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_train_mode_probs_match_wrapper(self, variant):
        samples = tiny_samples(n=14)[:8]
        params = init_model(replace(HYPER_SMALL, dropout=0.5), variant)
        prices, news, _ = samples.batch()
        probs, _ = forward_batch(prices, news, params, train=True,
                                 rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        singles = [forward_batch(*samples[i : i + 1].batch()[:2], params, train=True,
                                 rng=rng)[0][0]
                   for i in range(len(samples))]
        np.testing.assert_array_equal(probs, singles)
        assert not np.array_equal(probs, predict(params, samples))  # dropout drew

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_are_sum_of_per_sample(self, variant):
        samples = tiny_samples(n=14)[:8]
        params = init_model(replace(HYPER_SMALL, dropout=0.5), variant)
        prices, news, targets = samples.batch()
        targets = np.array(targets, dtype=float)
        probs, cache = forward_batch(prices, news, params, train=True,
                                     rng=np.random.default_rng(4))
        _, d_preds = bce_loss(probs, targets)
        out = gradient_params(params)
        backward_batch(params, cache, d_preds, out=out)
        grads = flat_params(out)

        rng = np.random.default_rng(4)
        total = {name: np.zeros_like(arr) for name, arr in flat_params(params).items()}
        for i, d in enumerate(d_preds):
            _, c = forward_batch(*samples[i : i + 1].batch()[:2], params, train=True, rng=rng)
            one = gradient_params(params)
            backward_batch(params, c, np.array([d]), out=one)
            for name, g in flat_params(one).items():
                total[name] += g
        assert set(grads) == set(total)
        for name, want in total.items():
            assert np.abs(grads[name] - want).max() <= 1e-12, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_independent_of_chunking(self, variant):
        samples = tiny_samples(n=30)
        assert len(samples) > PREDICT_STEPS // samples.k
        params = init_model(HYPER_SMALL, variant)
        whole = predict(params, samples)
        np.testing.assert_array_equal(
            whole, forward_batch(*samples.batch()[:2], params)[0])
        for size in (1, 3, 8):
            chunked = np.concatenate([predict(params, samples[i : i + size])
                                      for i in range(0, len(samples), size)])
            np.testing.assert_array_equal(chunked, whole)

    def test_predict_peak_memory_is_bounded(self):
        ds = planted_dataset(n=160, d=16, seed=3)
        samples = make_windows(ds, k=16)  # 144 windows
        params = init_model(ModelHyper(k=16, d_prime=16, h=32, h_a=32, dropout=0.3, seed=0),
                            "full")
        prices, news, _ = samples.batch()
        tracemalloc.start()
        try:
            predict(params, samples)
            _, chunked = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            forward_batch(prices, news, params)
            _, whole = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunked < whole / 2, (chunked, whole)

    @pytest.mark.parametrize("k,chunk", [(16, 4), (5, 12)])
    def test_predict_chunks_hold_a_fixed_number_of_steps(self, monkeypatch, k, chunk):
        assert chunk == max(1, PREDICT_STEPS // k)
        samples = make_windows(planted_dataset(n=k + 30, d=4, seed=2), k)  # 30 windows
        params = init_model(replace(HYPER_SMALL, k=k, d_prime=4), "full")
        sizes, forward = [], model_module.forward_batch
        monkeypatch.setattr(model_module, "forward_batch", lambda prices, *a:
                            sizes.append(len(prices)) or forward(prices, *a))
        probs = predict(params, samples)
        assert sizes == [chunk] * (30 // chunk) + [30 % chunk] * bool(30 % chunk)
        np.testing.assert_array_equal(probs, forward_batch(*samples.batch()[:2], params)[0])


class TestPredict:
    def test_order_preserved_and_matches_forward(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        probs = predict(params, samples)
        assert probs.shape == (len(samples),)
        singles = [forward_batch(*samples[i : i + 1].batch()[:2], params)[0][0]
                   for i in range(len(samples))]
        np.testing.assert_array_equal(probs, singles)

    def test_evaluate_loss_matches_bce(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        probs = predict(params, samples)
        targets = np.array(samples.targets, dtype=float)
        expected, _ = bce_loss(probs, targets)
        assert evaluate_loss(params, samples) == pytest.approx(expected, rel=1e-12)

    def test_applies_model_pca_to_raw_windows(self):
        ds = planted_dataset(n=24, d=6, seed=2)
        raw = make_windows(ds, k=3)
        basis = fit_pca(ds.embeddings, 2)
        params = init_model(HYPER_SMALL, "full", basis)
        reduced = reduce_samples(raw, basis)
        want, _ = forward_batch(*reduced.batch()[:2], params)
        assert_same_bits(predict(params, raw), want)

    @pytest.mark.parametrize("d_prime", [2, 6])  # of d = 6
    def test_windows_on_the_model_basis_are_used_as_given(self, d_prime):
        ds = planted_dataset(n=24, d=6, seed=2)
        raw = make_windows(ds, k=3)
        basis = fit_pca(ds.embeddings, d_prime)
        params = init_model(replace(HYPER_SMALL, d_prime=d_prime), "full", basis)
        assert_same_bits(predict(params, reduce_samples(raw, basis)), predict(params, raw))
        assert_same_bits(predict(params, reduce_samples(raw[4:9], basis)),
                         predict(params, raw[4:9]))

    def test_windows_on_another_basis_are_refused(self):
        ds = planted_dataset(n=24, d=6, seed=2)
        raw = make_windows(ds, k=3)
        basis = fit_pca(ds.embeddings, 2)
        other = fit_pca(ds.embeddings[:12], 2)  # same shapes, other rows
        with pytest.raises(ContractError, match="already projected"):
            predict(init_model(HYPER_SMALL, "full", basis), reduce_samples(raw, other))
        # A model without a basis reads raw news: projected news is refused too.
        with pytest.raises(ContractError, match="already projected"):
            predict(init_model(HYPER_SMALL, "no_pca"), reduce_samples(raw, basis))


class TestTrain:
    CONFIG = TrainConfig(h=4, h_a=4, dropout=0.0, alpha=1e-2, batch_size=4, epochs=6,
                         patience=3, seed=3)

    def test_deterministic_given_seed(self):
        samples = tiny_samples(n=20)
        p1, h1 = train_one(samples, self.CONFIG, "full")
        p2, h2 = train_one(samples, self.CONFIG, "full")
        assert h1 == h2
        for name, arr in flat_params(p1).items():
            np.testing.assert_array_equal(arr, flat_params(p2)[name])

    def test_deterministic_when_clipping_fires(self, monkeypatch):
        original = model_module.clip_global_norm
        norms = []

        def recording_clip(grad, max_norm):
            norms.append(original(grad, max_norm))
            return norms[-1]

        monkeypatch.setattr(model_module, "clip_global_norm", recording_clip)
        samples = tiny_samples(n=20)
        config = replace(self.CONFIG, clip_norm=0.05)
        p1, h1 = train_one(samples, config, "full")
        fired = sum(n > config.clip_norm for n in norms)
        p2, h2 = train_one(samples, config, "full")
        assert fired > 0
        assert h1 == h2
        assert np.array_equal(p1.theta.view(np.int64), p2.theta.view(np.int64))

    def test_history_pinned_when_clipping_fires(self, monkeypatch):
        # Clipping scales by the norm of the whole gradient vector, whose sum
        # runs in theta order: the one place where the order of theta can
        # move a bit. A run that sums the norm in flat_params order (theta's
        # order before the streams' u and b blocks were made adjacent) must
        # give the same history bit for bit, and each weight array within a
        # few ulps of its largest entry.
        original = model_module.clip_global_norm
        norms = []

        def recording_clip(grad, max_norm):
            norms.append(original(grad, max_norm))
            return norms[-1]

        monkeypatch.setattr(model_module, "clip_global_norm", recording_clip)
        samples = tiny_samples(n=20)
        config = replace(self.CONFIG, clip_norm=0.05)
        params, history = train_one(samples, config, "full")
        assert len(norms) == 24 and all(n > config.clip_norm for n in norms)

        monkeypatch.setattr(model_module, "clip_global_norm",
                            flat_order_clip(HYPER_SMALL, "full"))
        ref_params, ref_history = train_one(samples, config, "full")
        assert ([(e, tr.hex(), va.hex()) for e, tr, va in history]
                == [(e, tr.hex(), va.hex()) for e, tr, va in ref_history])
        for name, want in flat_params(ref_params).items():
            got = flat_params(params)[name]
            assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max()), name

    @pytest.mark.parametrize("variant", ["full", "no_attention"])
    def test_model_keeps_its_windows_basis(self, variant):
        ds = planted_dataset(n=24, d=6, seed=4)
        raw = make_windows(ds, k=3)
        basis = fit_pca(ds.embeddings, 2)
        reduced = reduce_samples(raw, basis)
        params, _ = train_one(reduced, self.CONFIG, variant)
        assert params.pca is basis and params.hyper.d_prime == basis.d_prime
        assert_same_bits(predict(params, raw), predict(params, reduced))

    def test_seed_changes_outcome(self):
        samples = tiny_samples(n=20)
        _, h1 = train_one(samples, self.CONFIG, "full")
        _, h2 = train_one(samples, TrainConfig(
            h=4, h_a=4, dropout=0.0, alpha=1e-2, batch_size=4, epochs=6, patience=3, seed=4,
        ), "full")
        assert h1 != h2

    def test_unsorted_samples_rejected(self):
        samples = tiny_samples(n=20)
        shuffled = samples[np.r_[3, 0, 4:len(samples)]]
        with pytest.raises(ContractError, match="chronolog"):
            train_one(shuffled, self.CONFIG, "full")

    def test_single_class_training_is_reported(self):
        # train reports a single-class fold in its TrainStats and warns of
        # nothing; run_cv, baseline_logreg and the train command word it.
        samples = tiny_samples(n=20)
        flat = with_targets(samples, np.zeros_like(samples.targets))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert train([flat], self.CONFIG, "no_news").stats[0].single_class
            fit = train([samples, flat], self.CONFIG, "no_news")
        assert [s.single_class for s in fit.stats] == [False, True]

    def test_two_windows_train_on_one_and_validate_on_one(self, monkeypatch):
        samples = tiny_samples(n=20)[:2]
        batches, validated = [], []
        forward, evaluate = model_module.forward_batch, model_module.evaluate_loss

        def recording_forward(prices, news, params, train=False, rng=None):
            batches.append(len(prices))
            return forward(prices, news, params, train=train, rng=rng)

        def recording_evaluate(params, windows, pos_weight=None):
            validated.append(windows.starts.tolist())
            return evaluate(params, windows, pos_weight)

        monkeypatch.setattr(model_module, "forward_batch", recording_forward)
        monkeypatch.setattr(model_module, "evaluate_loss", recording_evaluate)
        config = replace(self.CONFIG, validation_fraction=0.49, epochs=2, patience=2)
        fit = train([samples], config, "no_news")
        assert fit.stats[0].epochs == 2
        assert validated == [samples.starts[1:].tolist()] * 2
        # Each epoch: one training forward of one window, then one of the
        # validation window inside evaluate_loss.
        assert batches == [1, 1] * 2

    def test_validation_tail_is_chronological(self):
        samples = tiny_samples(n=40)
        n_val = max(1, math.ceil(0.15 * len(samples)))
        best, history = train_one(samples, self.CONFIG, "full")
        val_tail = samples[len(samples) - n_val:]
        best_val = min(v for _, _, v in history)
        assert evaluate_loss(best, val_tail) == best_val

    def test_early_stop_bound(self):
        samples = tiny_samples(n=40)
        config = TrainConfig(h=4, h_a=4, dropout=0.0, alpha=5e-2, batch_size=4, epochs=60,
                             patience=4, seed=1)
        _, history = train_one(samples, config, "full")
        vals = [v for _, _, v in history]
        best_epoch = int(np.argmin(vals)) + 1
        assert len(history) <= best_epoch + config.patience
        if len(history) < config.epochs:
            assert len(history) == best_epoch + config.patience

    def test_history_epochs_sequential(self):
        samples = tiny_samples(n=20)
        _, history = train_one(samples, self.CONFIG, "full")
        assert [e for e, _, _ in history] == list(range(1, len(history) + 1))

    def test_learns_planted_rule(self):
        ds = planted_dataset(n=56, d=4, seed=2, noise=0.2)
        samples = make_windows(ds, k=3)
        config = TrainConfig(h=8, h_a=8, dropout=0.0, alpha=2e-2, batch_size=8, epochs=50,
                             patience=50, seed=0)
        best, _ = train_one(samples, config, "full")
        probs = predict(best, samples)
        targets = samples.targets
        acc = ((probs > 0.5).astype(int) == targets).mean()
        assert acc >= 0.85

    @pytest.mark.parametrize("pca", [False, True])
    def test_hyper_is_derived(self, pca):
        ds = planted_dataset(n=24, d=6, seed=4)
        raw = make_windows(ds, k=3)
        basis = fit_pca(ds.embeddings, 2) if pca else None
        config = replace(self.CONFIG, h=5, h_a=3, dropout=0.2, epochs=1, seed=9)
        params, _ = train_one(reduce_samples(raw, basis) if pca else raw, config, "full")
        d_prime = basis.d_prime if pca else raw.data.embeddings.shape[1]
        assert params.hyper == ModelHyper(k=raw.k, d_prime=d_prime, h=5, h_a=3,
                                          dropout=0.2, seed=9)

    @pytest.mark.parametrize("field,value", [
        ("h", 0), ("h_a", 0), ("dropout", 1.0), ("dropout", -0.1),
    ])
    def test_invalid_sizes_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            train_one(tiny_samples(n=20), replace(self.CONFIG, **{field: value}), "full")

    def test_insufficient_samples(self):
        samples = tiny_samples(n=20)[:1]
        with pytest.raises(InsufficientDataError):
            train_one(samples, self.CONFIG, "full")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=0.6)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", -1e-3), ("alpha", math.nan), ("alpha", math.inf),
        ("weight_decay", -1e-4), ("weight_decay", math.nan), ("weight_decay", math.inf),
        ("clip_norm", -1.0), ("clip_norm", math.nan), ("clip_norm", math.inf),
        ("pos_weight", 0.0), ("pos_weight", -2.0), ("pos_weight", math.nan),
        ("pos_weight", math.inf),
    ])
    def test_optimizer_config_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_optimizer_config_edges_accepted(self):
        config = TrainConfig(weight_decay=0.0, clip_norm=0.0, pos_weight=None)
        assert config.clip_norm == 0.0  # 0 means no clipping
        assert TrainConfig(pos_weight=3.0).pos_weight == 3.0

    def test_history_csv(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv([(1, 0.7, 0.69), (2, 0.6, 0.66)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == "1,0.7,0.69"
        assert len(lines) == 3


class TestTrainFolds:
    """Folds trained together, each bit for bit its fold-by-fold reference."""

    @staticmethod
    def folds(variant, ends=(9, 13, 21, 30, 41, 56), capped=20):
        """Expanding training sets of a 60-year planted corpus; with PCA,
        the ones shorter than `capped` ask for a rank the others cannot
        reach, so they train on wider news (a layout of their own)."""
        samples = make_windows(planted_dataset(n=60, d=6, seed=3), 4)
        out = []
        for end in ends:
            part = samples[:end]
            if variant in PCA_VARIANTS:
                part = reduce_samples(part, fit_fold_pca(part, 6 if end < capped else 3)[1])
            out.append(part)
        return out

    def check(self, folds, config, variant):
        fit = train(folds, config, variant)
        assert len(fit.models) == len(fit.stats) == len(folds)
        for part, model, history, stats in zip(folds, fit.models, fit.histories(), fit.stats):
            want, want_history, want_stats = reference_train(part, config, variant)
            assert_same_bits(model.theta, want.theta)
            assert model.hyper == want.hyper and model.pca is part.pca
            assert history == want_history  # floats compared exactly
            assert stats == (len(want_history), *want_stats)
        return fit

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("config", [
        # ragged batches of several sizes, dropout, and early stops at
        # different epochs
        TrainConfig(h=5, h_a=4, batch_size=4, epochs=4, patience=2, seed=1),
        # batch size 1 and a positive-class weight
        TrainConfig(h=5, h_a=4, batch_size=1, epochs=2, dropout=0.0, seed=2,
                    pos_weight=2.5),
        # clipping fires, most folds stop early, some fold has no full batch
        TrainConfig(h=5, h_a=4, batch_size=8, epochs=6, patience=1, alpha=0.05,
                    clip_norm=0.5, seed=3),
    ], ids=["ragged-dropout", "batch1-pos_weight", "clip-early-stop"])
    def test_each_fold_matches_training_it_alone(self, variant, config):
        fit = self.check(self.folds(variant), config, variant)
        if variant in PCA_VARIANTS:  # two layouts: the rank-capped folds
            assert {m.hyper.d_prime for m in fit.models} == {6, 3}

    # 37 windows of k=3 over 5-wide news, shared by every generated case.
    CORPUS = make_windows(planted_dataset(n=40, d=5, seed=11), 3)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # single-class folds
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(variant=st.sampled_from(VARIANTS),
           ends=st.lists(st.integers(2, 37), min_size=1, max_size=5),
           d_prime=st.integers(1, 5), stack_values=st.integers(1, 1500),
           config=st.builds(
               TrainConfig, h=st.just(3), h_a=st.just(2), batch_size=st.integers(1, 6),
               epochs=st.integers(1, 4), patience=st.integers(1, 3),
               pos_weight=st.sampled_from([None, 0.5, 2.5]),
               dropout=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 3),
               alpha=st.sampled_from([1e-3, 0.05]), clip_norm=st.sampled_from([0.0, 0.5, 5.0])))
    def test_generated_folds_match_training_each_alone(self, variant, ends, d_prime,
                                                       stack_values, config):
        """Any fold count and sizes, batch size (1 too), epoch budget,
        patience, class weight, dropout and stack budget. A requested d' of
        up to 5 caps the folds with few training years to a lower rank, so
        the PCA variants train several layouts."""
        folds = [self.CORPUS[:end] for end in ends]
        if variant in PCA_VARIANTS:
            folds = [reduce_samples(part, fit_fold_pca(part, d_prime)[1]) for part in folds]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "STACK_VALUES", stack_values)
            self.check(folds, config, variant)

    def test_early_stops_differ(self):
        fit = self.check(self.folds("full"), TrainConfig(
            h=5, h_a=4, batch_size=8, epochs=6, patience=1, alpha=0.05, seed=3), "full")
        assert {s.stop for s in fit.stats} == {"patience", "budget"}
        assert len({s.epochs for s in fit.stats}) > 1

    def test_stacks_split_by_value_budget(self, monkeypatch):
        # A budget of two models per stack: the six folds train in three
        # stacks, still each as it would alone.
        n = init_model(ModelHyper(k=4, d_prime=6, h=5, h_a=4, dropout=0.3, seed=1),
                       "no_pca").theta.size
        monkeypatch.setattr(model_module, "STACK_VALUES", 2 * n)
        sizes = []
        stack = model_module._fit_stack
        monkeypatch.setattr(model_module, "_fit_stack",
                            lambda parts, *a: sizes.append(len(parts)) or stack(parts, *a))
        self.check(self.folds("no_pca"), TrainConfig(h=5, h_a=4, batch_size=4, epochs=2,
                                                     seed=1), "no_pca")
        assert sizes == [2, 2, 2]

    def test_one_call_per_step_of_the_schedule(self, monkeypatch):
        # Training parts of 11, 19, 27, 34 and 42 windows at batch 8 have 1-5
        # full batches, right-aligned into 5 steps, and ragged tails of 3, 3,
        # 3, 2 and 2 windows, two runs of one size: 7 calls an epoch, not 20.
        calls = []
        backward = model_module.backward_batch
        monkeypatch.setattr(model_module, "backward_batch",
                            lambda params, cache, d, out: calls.append(d.shape)
                            or backward(params, cache, d, out))
        self.check(self.folds("no_news", ends=(14, 23, 32, 41, 50)),
                   TrainConfig(h=4, h_a=4, batch_size=8, epochs=2, patience=2), "no_news")
        epoch = [(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (3, 3), (2, 2)]
        assert calls == [(8,) if shape == (1, 8) else shape for shape in epoch] * 2

    def test_fold_order_and_history_rows(self):
        folds = self.folds("no_news", ends=(30, 9, 21))  # not in size order
        fit = self.check(folds, TrainConfig(h=4, h_a=4, batch_size=4, epochs=2, seed=0),
                         "no_news")
        assert fit.history == [row for rows in fit.histories() for row in rows]
        assert [len(rows) for rows in fit.histories()] == [2, 2, 2]

    def test_no_folds(self):
        fit = train([], TrainConfig(h=4, h_a=4), "full")
        assert fit == ([], [], []) and fit.histories() == []

    def test_stats_fields(self):
        (stats,) = train(self.folds("no_news", ends=(30,)), TrainConfig(
            h=4, h_a=4, batch_size=4, epochs=3, seed=0), "no_news").stats
        assert stats._fields == ("epochs", "best_epoch", "stop", "max_grad_norm",
                                 "single_class")
        assert stats.epochs == len(stats.max_grad_norm) == 3
        assert all(isinstance(x, float) and x > 0 for x in stats.max_grad_norm)


def _b64(values) -> str:
    """A checkpoint array's "data": base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8")).decode("ascii")


def _unb64(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def _as_lists(block: dict) -> dict:
    """A /3 block with each array's values as a JSON list, as /1 and /2 stored them."""
    return {name: {"shape": a["shape"], "data": _unb64(a["data"]).tolist()}
            if isinstance(a, dict) else a for name, a in block.items()}


class TestCheckpoint:
    def _trained(self, variant="full", pca=False):
        ds = planted_dataset(n=24, d=6, seed=5)
        samples = make_windows(ds, k=3)
        if pca and variant not in ("no_pca", "no_news"):
            samples = reduce_samples(samples, fit_pca(ds.embeddings, 2))
        config = TrainConfig(h=4, h_a=4, dropout=0.1, alpha=1e-2, batch_size=4, epochs=3,
                             patience=3)
        best, _ = train_one(samples, config, variant)
        best.norm_stats = {"oil": (10.0, 2.5)}
        return best

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip(self, variant, tmp_path):
        params = self._trained(variant, pca=(variant == "full"))
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.hyper == params.hyper
        for name, arr in flat_params(params).items():
            np.testing.assert_array_equal(arr, flat_params(loaded)[name])
        assert loaded.norm_stats == params.norm_stats
        if params.pca is not None:
            np.testing.assert_array_equal(loaded.pca.components,
                                          params.pca.components)
            assert loaded.pca.fitted_on == params.pca.fitted_on

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loaded_arrays_are_views_of_theta(self, variant, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(self._trained(variant), path)
        loaded = load_checkpoint(path)
        for name, arr in flat_params(loaded).items():
            assert np.shares_memory(arr, loaded.theta), name

    def test_save_load_save_byte_identical(self, tmp_path):
        params = self._trained("full", pca=True)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_indented_checkpoint_loads(self, tmp_path):
        # The same document written with indent=2 loads to the same bits.
        params = self._trained("full", pca=True)
        compact, indented = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(params, compact)
        indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2) + "\n")
        loaded = load_checkpoint(indented)
        assert_same_bits(loaded.theta, params.theta)
        for name in ("mean", "components", "explained_variance"):
            assert_same_bits(getattr(loaded.pca, name), getattr(params.pca, name))
        again = tmp_path / "c.json"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == compact.read_bytes()

    def test_compact_file_is_json_dumps_of_its_document(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_model(ModelHyper(k=3, d_prime=16, h=32, h_a=32, dropout=0.3, seed=0),
                            "full", norm_stats={})
        params.theta[...] = rng.normal(size=params.theta.size)
        params.pca = fit_pca(rng.normal(size=(40, 24)), 16)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"
        assert len(_unb64(json.loads(text)["arrays"]["news_lstm.u"]["data"])) == 32 * 128
        loaded = load_checkpoint(path)
        assert_same_bits(loaded.theta, params.theta)
        assert_same_bits(loaded.pca.components, params.pca.components)
        assert loaded.norm_stats == {}

    def test_loaded_predictions_match(self, tmp_path):
        params = self._trained("full")
        samples = tiny_samples(n=24, d=6, seed=5)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(predict(params, samples),
                                      predict(loaded, samples))

    def test_format_field(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == CHECKPOINT_FORMAT

    def test_wrong_version_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["format"] = "spikecast-checkpoint/99"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_v1_document_rejected(self, tmp_path):
        # The /1 layout: one block per component, each LSTM stored per gate.
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        old = {key: doc[key] for key in ("variant", "hyper", "pca", "norm_stats")}
        old.update(format="spikecast-checkpoint/1", head_dropout=params.hyper.dropout,
                   price_lstm={}, head={}, news_lstm=None, attention=None)
        h = params.hyper.h
        arrays = _as_lists(doc["arrays"])
        for name, arr in flat_params(params).items():
            component, field = name.split(".")
            if component == "head":
                old["head"][field] = arrays[name]
                continue
            for j, gate in enumerate("oifg"):  # stored column order
                block = arr[..., j * h : (j + 1) * h]
                old[component][f"{field}_{gate}"] = {
                    "shape": list(block.shape), "data": block.ravel().tolist()}
        path.write_text(json.dumps(old))
        with pytest.raises(CheckpointVersionError, match="checkpoint/1"):
            load_checkpoint(path)

    def test_v2_document_rejected(self, tmp_path):
        # The /2 layout: the /3 names, with each array's values as a JSON list.
        params = self._trained("full", pca=True)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc.update(format="spikecast-checkpoint/2", pca=_as_lists(doc["pca"]),
                   head_dropout=params.hyper.dropout, arrays=_as_lists(doc["arrays"]))
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointVersionError, match="checkpoint/2"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["arrays"]["head.w1"]["data"] = _b64(_unb64(doc["arrays"]["head.w1"]["data"])[:-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match="w1"):
            load_checkpoint(path)

    def test_non_finite_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        values = _unb64(doc["arrays"]["head.w1"]["data"]).copy()
        values[0] = 1e999  # Python reads this as inf
        doc["arrays"]["head.w1"]["data"] = _b64(values)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match="finite"):
            load_checkpoint(path)

    def test_missing_lstm_field_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        del doc["arrays"]["price_lstm.u"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"price_lstm\.u"):
            load_checkpoint(path)

    def test_json_array_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(CheckpointVersionError, match="list"):
            load_checkpoint(path)

    def test_missing_attention_array_rejected(self, tmp_path):
        params = self._trained("full")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        del doc["arrays"]["attention.w_q"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"attention\.w_q"):
            load_checkpoint(path)

    def test_arrays_of_another_variant_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(self._trained("full"), path)
        doc = json.loads(path.read_text())
        # h = h_a: no_attention has full's LSTMs and head, and no attention.
        doc["variant"] = "no_attention"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError,
                           match=r"no_attention model does not have: attention\.w_k, "
                                 r"attention\.w_q, attention\.w_v$"):
            load_checkpoint(path)

    def test_extra_array_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(self._trained("no_news"), path)
        doc = json.loads(path.read_text())
        doc["arrays"]["head.w3"] = doc["arrays"]["head.w2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"does not have: head\.w3$"):
            load_checkpoint(path)

    def test_wrong_array_shape_rejected(self, tmp_path):
        params = self._trained("no_news")  # h=4: price_lstm.w is (1, 16)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["arrays"]["price_lstm.w"] = {"shape": [4, 4], "data": _b64([0.1] * 16)}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"price_lstm\.w\b"):
            load_checkpoint(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("h", 0), ("dropout", 1.0),
        ("k", 3.5), ("k", True), ("h_a", "4"), ("seed", False), ("seed", 1.0),
        ("dropout", True), ("dropout", "0.1"), ("dropout", None),
    ])
    def test_invalid_hyper_rejected(self, tmp_path, field, value):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["hyper"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=rf"\b{field} must"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [2.7, True, -5, 1, 0, "48", None])
    def test_invalid_pca_fitted_on_rejected(self, tmp_path, value):
        params = self._trained("full", pca=True)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["pca"]["fitted_on"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"pca\.fitted_on must"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value,match", [
        ("std", 0, "std must be > 0"), ("std", -2.5, "std must be > 0"),
        ("std", math.nan, "std must be a finite number"),
        ("std", math.inf, "std must be a finite number"),
        ("std", True, "std must be a finite number"),
        ("mean", True, "mean must be a finite number"),
        ("mean", math.nan, "mean must be a finite number"),
        ("mean", "10.0", "mean must be a finite number"),
        pytest.param("mean", 10**400, "malformed checkpoint", id="mean-huge-int"),
    ])
    def test_invalid_norm_stats_rejected(self, tmp_path, field, value, match):
        params = self._trained("no_news")  # norm_stats {"oil": (10.0, 2.5)}
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["norm_stats"]["oil"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path)

    def test_pca_block_must_match_hyper(self, tmp_path):
        params = self._trained("full", pca=True)  # hyper.d_prime == 2
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["pca"]["mean"] = {"shape": [5], "data": _b64([0.0] * 5)}
        doc["pca"]["components"] = {"shape": [6, 3], "data": _b64([0.1] * 18)}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"pca\.components"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block,name,data,match", [
        pytest.param("arrays", "head.w1", lambda raw: _unb64(raw).tolist(), "not 'list'",
                     id="v2-list"),
        pytest.param("arrays", "head.w1", lambda raw: "*" + raw[1:], "base64 data",
                     id="non-base64"),
        pytest.param("arrays", "head.w1", lambda raw: raw[:-4], "bytes",
                     id="ragged-bytes"),
        pytest.param("arrays", "head.w1", lambda raw: _b64([*_unb64(raw), 0.5]), "bytes",
                     id="extra-value"),
        pytest.param("pca", "mean", lambda raw: raw[:-4], "bytes", id="pca-ragged-bytes"),
    ])
    def test_malformed_data_rejected(self, tmp_path, block, name, data, match):
        params = self._trained("full", pca=True)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc[block][name]["data"] = data(doc[block][name]["data"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("count", [1, 6])
    def test_scalar_pca_mean_rejected(self, tmp_path, count):
        params = self._trained("full", pca=True)  # d == 6
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["pca"]["mean"] = {"shape": [], "data": _b64([0.5] * count)}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"pca\.mean"):
            load_checkpoint(path)

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
        # 0.1 + 0.2 and nextafter(1, 2) print with 17 significant digits.
        specials = np.array([-0.0, tiny, 3 * tiny, big, -big,
                             0.1 + 0.2, np.nextafter(1.0, 2.0), 1 / 3, -2 / 3])
        params = self._trained("full", pca=True)
        params.theta[: specials.size] = specials
        params.pca.mean[: specials.size - 3] = specials[:-3]
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta.view(np.int64), params.theta.view(np.int64))
        np.testing.assert_array_equal(loaded.pca.mean.view(np.int64),
                                      params.pca.mean.view(np.int64))
        again = tmp_path / "again.json"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_pca_model_scores_raw_windows(self, tmp_path):
        params = self._trained("full", pca=True)
        raw = tiny_samples(n=24, d=6, seed=5)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        assert_same_bits(predict(load_checkpoint(path), raw), predict(params, raw))

    def test_retrain_after_reload_is_deterministic(self, tmp_path):
        """A loaded checkpoint carries everything needed to reproduce itself."""
        ds = planted_dataset(n=24, d=3, seed=5)
        samples = make_windows(ds, k=3)
        config = TrainConfig(h=4, h_a=4, dropout=0.1, alpha=1e-2, batch_size=4, epochs=3,
                             patience=3, seed=11)
        best, _ = train_one(samples, config, "full")
        path = tmp_path / "model.json"
        save_checkpoint(best, path)
        loaded = load_checkpoint(path)
        stored = {name: getattr(loaded.hyper, name) for name in ("h", "h_a", "dropout", "seed")}
        again, _ = train_one(samples, replace(TrainConfig(alpha=1e-2, batch_size=4, epochs=3,
                                                      patience=3), **stored), loaded.variant)
        for name, arr in flat_params(best).items():
            np.testing.assert_array_equal(arr, flat_params(again)[name])
