"""Windowing, the dual-stream classifier, training loop, and checkpoints."""
import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spikecast.errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    InsufficientDataError,
)
from spikecast.model import (
    CHECKPOINT_FORMAT,
    VARIANTS,
    ModelHyper,
    TrainConfig,
    WindowedSample,
    backward_batch,
    evaluate_loss,
    flat_params,
    forward_batch,
    init_model,
    load_checkpoint,
    make_windows,
    model_backward,
    model_forward,
    predict,
    reduce_samples,
    save_checkpoint,
    stack_windows,
    train,
    write_history_csv,
    zero_params,
)
from spikecast.nn import bce_loss, grad_check
from spikecast.pca import fit_pca

from conftest import planted_dataset

HYPER_SMALL = ModelHyper(k=3, d_prime=2, h=4, h_a=4, dropout=0.0, seed=7)


def tiny_samples(n=12, k=3, d=2, seed=0):
    ds = planted_dataset(n=n, d=d, seed=seed)
    return make_windows(ds, k)


class TestMakeWindows:
    def test_count_and_shapes(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        assert len(samples) == 7
        assert all(s.prices.shape == (3, 1) for s in samples)
        assert all(s.news.shape == (3, 4) for s in samples)

    def test_alignment(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        first = samples[0]
        assert first.years == (1960, 1961, 1962)
        assert first.anchor_year == 1962
        assert first.target == int(ds.labels[3])
        np.testing.assert_array_equal(first.prices[:, 0], ds.prices[:3])
        np.testing.assert_array_equal(first.news, ds.embeddings[:3])
        last = samples[-1]
        assert last.anchor_year == 1968
        assert last.target == int(ds.labels[9])

    def test_windows_are_copies(self):
        ds = planted_dataset(n=10, d=4)
        samples = make_windows(ds, k=3)
        samples[0].prices[0, 0] = 999.0
        assert ds.prices[0] != 999.0

    def test_errors(self):
        ds = planted_dataset(n=5, d=2)
        with pytest.raises(ConfigError):
            make_windows(ds, k=0)
        with pytest.raises(InsufficientDataError):
            make_windows(ds, k=5)
        assert len(make_windows(ds, k=4)) == 1

    def test_reduce_samples_projects_news(self):
        ds = planted_dataset(n=20, d=6)
        basis = fit_pca(ds.embeddings, 3)
        samples = make_windows(ds, k=4)
        reduced = reduce_samples(samples, basis)
        assert all(s.news.shape == (4, 3) for s in reduced)
        assert all(r.target == s.target for r, s in zip(reduced, samples))
        assert samples[0].news.shape == (4, 6)  # originals untouched


class TestInitModel:
    def test_fused_width_per_variant(self):
        hyper = ModelHyper(k=3, d_prime=5, h=8, h_a=6)
        widths = {"full": 14, "no_attention": 16, "no_pca": 14, "no_news": 8}
        for variant, fused in widths.items():
            params = init_model(hyper, variant)
            assert params.head.w1.shape == (fused, 8), variant

    def test_branch_presence(self):
        hyper = ModelHyper(k=3, d_prime=5, h=8, h_a=6)
        full = init_model(hyper, "full")
        assert full.news_lstm is not None and full.attention is not None
        no_att = init_model(hyper, "no_attention")
        assert no_att.news_lstm is not None and no_att.attention is None
        no_news = init_model(hyper, "no_news")
        assert no_news.news_lstm is None and no_news.attention is None

    def test_seeded_determinism(self):
        a = init_model(HYPER_SMALL, "full")
        b = init_model(HYPER_SMALL, "full")
        for name, arr in flat_params(a).items():
            np.testing.assert_array_equal(arr, flat_params(b)[name])

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            init_model(HYPER_SMALL, "bigger")


class TestForward:
    def test_zero_params_give_half(self):
        samples = tiny_samples()
        for variant in VARIANTS:
            params = zero_params(init_model(HYPER_SMALL, variant))
            prob, _ = model_forward(samples[0], params)
            assert prob == 0.5, variant

    def test_probability_range(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        for s in samples:
            prob, _ = model_forward(s, params)
            assert 0.0 < prob < 1.0

    def test_no_news_ignores_news_stream(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "no_news")
        s = samples[0]
        base, _ = model_forward(s, params)
        scrambled = WindowedSample(
            prices=s.prices, news=s.news * -3.0 + 1.0, target=s.target,
            anchor_year=s.anchor_year, years=s.years,
        )
        assert model_forward(scrambled, params)[0] == base

    def test_full_variant_reads_news(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        s = samples[0]
        base, _ = model_forward(s, params)
        scrambled = WindowedSample(
            prices=s.prices, news=s.news * -3.0 + 1.0, target=s.target,
            anchor_year=s.anchor_year, years=s.years,
        )
        assert model_forward(scrambled, params)[0] != base

    def test_shape_contract(self):
        samples = tiny_samples(k=3, d=2)
        params = init_model(ModelHyper(k=4, d_prime=2, h=4, h_a=4), "full")
        with pytest.raises(ContractError):
            model_forward(samples[0], params)
        params = init_model(ModelHyper(k=3, d_prime=5, h=4, h_a=4), "full")
        with pytest.raises(ContractError):
            model_forward(samples[0], params)

    def test_inference_is_deterministic_despite_dropout_rate(self):
        hyper = ModelHyper(k=3, d_prime=2, h=4, h_a=4, dropout=0.5, seed=7)
        params = init_model(hyper, "full")
        s = tiny_samples()[0]
        assert model_forward(s, params)[0] == model_forward(s, params)[0]


class TestBackward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        samples = tiny_samples(n=8)
        params = init_model(HYPER_SMALL, variant)
        flat = flat_params(params)
        batch = samples[:4]
        targets = np.array([s.target for s in batch], dtype=float)

        def loss_and_grads():
            probs = []
            caches = []
            for s in batch:
                p, c = model_forward(s, params)
                probs.append(p)
                caches.append(c)
            loss, d_preds = bce_loss(np.array(probs), targets)
            total = None
            for c, d in zip(caches, d_preds):
                g = model_backward(params, c, float(d))
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
            prob, cache = model_forward(samples[0], params)
            grads = model_backward(params, cache, 1.0)
            assert set(grads) == set(flat_params(params)), variant


class TestBatch:
    """forward_batch/backward_batch against the B = 1 wrappers."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_train_mode_probs_match_wrapper(self, variant):
        samples = tiny_samples(n=14)[:8]
        params = init_model(replace(HYPER_SMALL, dropout=0.5), variant)
        prices, news, _ = stack_windows(samples)
        probs, _ = forward_batch(prices, news, params, train=True,
                                 rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        singles = [model_forward(s, params, train=True, rng=rng)[0] for s in samples]
        np.testing.assert_array_equal(probs, singles)
        assert not np.array_equal(probs, predict(params, samples))  # dropout drew

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_are_sum_of_per_sample(self, variant):
        samples = tiny_samples(n=14)[:8]
        params = init_model(replace(HYPER_SMALL, dropout=0.5), variant)
        prices, news, targets = stack_windows(samples)
        probs, cache = forward_batch(prices, news, params, train=True,
                                     rng=np.random.default_rng(4))
        _, d_preds = bce_loss(probs, targets)
        grads = backward_batch(params, cache, d_preds)

        rng = np.random.default_rng(4)
        total = {name: np.zeros_like(arr) for name, arr in flat_params(params).items()}
        for s, d in zip(samples, d_preds):
            _, c = model_forward(s, params, train=True, rng=rng)
            for name, g in model_backward(params, c, float(d)).items():
                total[name] += g
        assert set(grads) == set(total)
        for name, want in total.items():
            assert np.abs(grads[name] - want).max() <= 1e-12, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_independent_of_chunking(self, variant):
        samples = tiny_samples(n=24)
        params = init_model(HYPER_SMALL, variant)
        whole = predict(params, samples)
        for size in (1, 3, 8):
            chunked = np.concatenate([predict(params, samples[i : i + size])
                                      for i in range(0, len(samples), size)])
            np.testing.assert_array_equal(chunked, whole)


class TestPredict:
    def test_order_preserved_and_matches_forward(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        probs = predict(params, samples)
        assert probs.shape == (len(samples),)
        singles = [model_forward(s, params)[0] for s in samples]
        np.testing.assert_array_equal(probs, singles)

    def test_evaluate_loss_matches_bce(self):
        samples = tiny_samples()
        params = init_model(HYPER_SMALL, "full")
        probs = predict(params, samples)
        targets = np.array([s.target for s in samples], dtype=float)
        expected, _ = bce_loss(probs, targets)
        assert evaluate_loss(params, samples) == pytest.approx(expected, rel=1e-12)


class TestTrain:
    CONFIG = TrainConfig(alpha=1e-2, batch_size=4, epochs=6, patience=3, seed=3)

    def test_deterministic_given_seed(self):
        samples = tiny_samples(n=20)
        p1, h1 = train(samples, self.CONFIG, HYPER_SMALL, "full")
        p2, h2 = train(samples, self.CONFIG, HYPER_SMALL, "full")
        assert h1 == h2
        for name, arr in flat_params(p1).items():
            np.testing.assert_array_equal(arr, flat_params(p2)[name])

    def test_seed_changes_outcome(self):
        samples = tiny_samples(n=20)
        _, h1 = train(samples, self.CONFIG, HYPER_SMALL, "full")
        _, h2 = train(samples, TrainConfig(
            alpha=1e-2, batch_size=4, epochs=6, patience=3, seed=4,
        ), HYPER_SMALL, "full")
        assert h1 != h2

    def test_unsorted_samples_rejected(self):
        samples = tiny_samples(n=20)
        shuffled = [samples[3], samples[0]] + samples[4:]
        with pytest.raises(ContractError, match="chronolog"):
            train(shuffled, self.CONFIG, HYPER_SMALL, "full")

    def test_single_class_training_warns(self):
        samples = tiny_samples(n=20)
        flat = [WindowedSample(s.prices, s.news, 0, s.anchor_year, s.years)
                for s in samples]
        with pytest.warns(UserWarning, match="single-class"):
            train(flat, self.CONFIG, HYPER_SMALL, "full")

    def test_validation_tail_is_chronological(self):
        samples = tiny_samples(n=40)
        n_val = max(1, math.ceil(0.15 * len(samples)))
        best, history = train(samples, self.CONFIG, HYPER_SMALL, "full")
        val_tail = samples[len(samples) - n_val:]
        best_val = min(v for _, _, v in history)
        assert evaluate_loss(best, val_tail) == best_val

    def test_early_stop_bound(self):
        samples = tiny_samples(n=40)
        config = TrainConfig(alpha=5e-2, batch_size=4, epochs=60, patience=4, seed=1)
        _, history = train(samples, config, HYPER_SMALL, "full")
        vals = [v for _, _, v in history]
        best_epoch = int(np.argmin(vals)) + 1
        assert len(history) <= best_epoch + config.patience
        if len(history) < config.epochs:
            assert len(history) == best_epoch + config.patience

    def test_history_epochs_sequential(self):
        samples = tiny_samples(n=20)
        _, history = train(samples, self.CONFIG, HYPER_SMALL, "full")
        assert [e for e, _, _ in history] == list(range(1, len(history) + 1))

    def test_learns_planted_rule(self):
        ds = planted_dataset(n=56, d=4, seed=2, noise=0.2)
        samples = make_windows(ds, k=3)
        hyper = ModelHyper(k=3, d_prime=4, h=8, h_a=8, dropout=0.0)
        config = TrainConfig(alpha=2e-2, batch_size=8, epochs=50,
                             patience=50, seed=0)
        best, _ = train(samples, config, hyper, "full")
        probs = predict(best, samples)
        targets = np.array([s.target for s in samples])
        acc = ((probs > 0.5).astype(int) == targets).mean()
        assert acc >= 0.85

    def test_insufficient_samples(self):
        samples = tiny_samples(n=20)[:1]
        with pytest.raises(InsufficientDataError):
            train(samples, self.CONFIG, HYPER_SMALL, "full")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=0.6)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_history_csv(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv([(1, 0.7, 0.69), (2, 0.6, 0.66)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == "1,0.7,0.69"
        assert len(lines) == 3


class TestCheckpoint:
    def _trained(self, variant="full", pca=False):
        ds = planted_dataset(n=24, d=6, seed=5)
        samples = make_windows(ds, k=3)
        basis = None
        if pca and variant not in ("no_pca", "no_news"):
            basis = fit_pca(ds.embeddings, 2)
            samples = reduce_samples(samples, basis)
        d_in = samples[0].news.shape[1]
        hyper = ModelHyper(k=3, d_prime=d_in, h=4, h_a=4, dropout=0.1)
        config = TrainConfig(alpha=1e-2, batch_size=4, epochs=3, patience=3)
        best, _ = train(samples, config, hyper, variant, pca=basis,
                        norm_stats={"oil": (10.0, 2.5)})
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
        assert loaded.head.dropout == params.head.dropout
        assert loaded.norm_stats == params.norm_stats
        if params.pca is not None:
            np.testing.assert_array_equal(loaded.pca.components,
                                          params.pca.components)
            assert loaded.pca.fitted_on == params.pca.fitted_on

    def test_save_load_save_byte_identical(self, tmp_path):
        params = self._trained("full", pca=True)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(params, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        old = {key: doc[key] for key in ("variant", "hyper", "pca",
                                         "head_dropout", "norm_stats")}
        old.update(format="spikecast-checkpoint/1", price_lstm={}, head={},
                   news_lstm=None, attention=None)
        h = params.hyper.h
        for name, arr in flat_params(params).items():
            component, field = name.split(".")
            if component == "head":
                old["head"][field] = doc["arrays"][name]
                continue
            for j, gate in enumerate("oifg"):  # stored column order
                block = arr[..., j * h : (j + 1) * h]
                old[component][f"{field}_{gate}"] = {
                    "shape": list(block.shape), "data": block.ravel().tolist()}
        path.write_text(json.dumps(old))
        with pytest.raises(CheckpointVersionError, match="checkpoint/1"):
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
        doc["arrays"]["head.w1"]["data"] = doc["arrays"]["head.w1"]["data"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match="w1"):
            load_checkpoint(path)

    def test_non_finite_rejected(self, tmp_path):
        params = self._trained("no_news")
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["arrays"]["head.w1"]["data"][0] = 1e999  # json reads this as Infinity
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

    def test_wrong_array_shape_rejected(self, tmp_path):
        params = self._trained("no_news")  # h=4: price_lstm.w is (1, 16)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["arrays"]["price_lstm.w"] = {"shape": [4, 4], "data": [0.1] * 16}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointIntegrityError, match=r"price_lstm\.w\b"):
            load_checkpoint(path)

    def test_retrain_after_reload_is_deterministic(self, tmp_path):
        """A loaded checkpoint carries everything needed to reproduce itself."""
        ds = planted_dataset(n=24, d=3, seed=5)
        samples = make_windows(ds, k=3)
        hyper = ModelHyper(k=3, d_prime=3, h=4, h_a=4, dropout=0.1, seed=11)
        config = TrainConfig(alpha=1e-2, batch_size=4, epochs=3, patience=3, seed=11)
        best, _ = train(samples, config, hyper, "full")
        path = tmp_path / "model.json"
        save_checkpoint(best, path)
        loaded = load_checkpoint(path)
        again, _ = train(samples, config, loaded.hyper, loaded.variant)
        for name, arr in flat_params(best).items():
            np.testing.assert_array_equal(arr, flat_params(again)[name])
