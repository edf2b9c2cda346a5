"""Splits, ranking metrics, cross-validation protocol, and report writers."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spikecast.evaluation
from spikecast.errors import (
    ConfigError,
    ContractError,
    InsufficientDataError,
    UndefinedMetricError,
)
from spikecast.evaluation import (
    BASELINE_VARIANT,
    FoldPlan,
    baseline_logreg,
    classification_metrics,
    fit_fold_pca,
    fit_logreg,
    fit_logreg_sets,
    holdout_split,
    logreg_loss_grad,
    logreg_scores,
    roc_auc,
    roc_curve,
    run_cv,
    sample_features,
    time_series_split,
    unique_year_rows,
    write_report_csv,
    write_roc_csv,
    write_summary_json,
)
from spikecast.model import (
    ModelHyper,
    TrainConfig,
    Windows,
    make_windows,
)
from spikecast.nn import sigmoid

from conftest import (
    assert_same_bits,
    pairwise_auc,
    planted_dataset,
    reference_baseline_scores,
    reference_fit_logreg,
    reference_sample_features,
    reference_unique_year_rows,
    reference_windows,
)


def windows(n=30, k=3, d=4, seed=0, **kw):
    return make_windows(planted_dataset(n=n, d=d, seed=seed, **kw), k)


class TestTimeSeriesSplit:
    def test_worked_example(self):
        plan = time_series_split(10, 3)
        assert plan.folds == (
            ((0, 4), (4, 6)),
            ((0, 6), (6, 8)),
            ((0, 8), (8, 10)),
        )

    def test_remainder_goes_to_first_train_block(self):
        plan = time_series_split(11, 3)
        assert plan.folds[0] == ((0, 5), (5, 7))
        assert plan.folds[-1][1][1] == 11

    def test_errors(self):
        with pytest.raises(ConfigError):
            time_series_split(10, 0)
        with pytest.raises(ConfigError):
            time_series_split(3, 3)
        assert time_series_split(4, 3).n_folds == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 200), st.integers(1, 8))
    def test_plan_invariants(self, n, n_folds):
        assume(n >= n_folds + 1)
        plan = time_series_split(n, n_folds)
        test_size = n // (n_folds + 1)
        assert len(plan.folds) == n_folds
        prev_hi = 0
        for (tr_lo, tr_hi), (te_lo, te_hi) in plan.folds:
            assert tr_lo == 0
            assert te_lo == tr_hi          # test follows training immediately
            assert te_hi - te_lo == test_size
            assert tr_hi > prev_hi         # strictly expanding training set
            prev_hi = tr_hi
        assert plan.folds[-1][1][1] == n   # last test block ends at the end


class TestFoldPlan:
    def test_rejects_train_not_anchored_at_zero(self):
        with pytest.raises(ConfigError):
            FoldPlan(n=10, n_folds=1, folds=(((1, 4), (4, 6)),))

    def test_rejects_test_overlapping_train(self):
        with pytest.raises(ConfigError):
            FoldPlan(n=10, n_folds=1, folds=(((0, 5), (4, 6)),))

    def test_rejects_non_expanding_training(self):
        with pytest.raises(ConfigError):
            FoldPlan(
                n=10, n_folds=2,
                folds=(((0, 4), (4, 6)), ((0, 4), (6, 8))),
            )

    def test_gap_between_train_and_test_is_legal(self):
        FoldPlan(n=10, n_folds=1, folds=(((0, 4), (6, 8)),))


def holdout_parts(samples, fraction):
    """The training and test windows of holdout_split's one fold."""
    plan = holdout_split(len(samples), fraction)
    assert plan.n_folds == len(plan.folds) == 1
    ((tr_lo, tr_hi), (te_lo, te_hi)), = plan.folds
    return samples[tr_lo:tr_hi], samples[te_lo:te_hi]


class TestHoldout:
    def test_worked_example(self):
        samples = windows(n=62, k=2)  # 60 windows
        assert holdout_split(60, 0.20).folds == (((0, 48), (48, 60)),)
        train, test = holdout_parts(samples, 0.20)
        assert (len(train), len(test)) == (48, 12)
        for name in ("prices", "news", "targets", "years"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(train, name), getattr(test, name)]),
                getattr(samples, name))

    def test_ceil_rounding(self):
        samples = windows(n=12, k=2)  # 10 windows
        train, test = holdout_parts(samples, 0.25)
        assert (len(train), len(test)) == (7, 3)  # ceil(2.5) = 3

    def test_chronology(self):
        train, test = holdout_parts(windows(n=40, k=3), 0.2)
        assert train.anchor_years.max() < test.anchor_years.min()

    def test_errors(self):
        with pytest.raises(ConfigError):
            holdout_split(10, 0.0)
        with pytest.raises(ConfigError):
            holdout_split(10, 0.6)
        with pytest.raises(InsufficientDataError):
            holdout_split(4, 0.2)


class TestRocAuc:
    def test_perfect_and_reversed(self):
        labels = [0, 0, 1, 1]
        assert roc_auc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
        assert roc_auc([0.9, 0.8, 0.2, 0.1], labels) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_partial_ties(self):
        # pairs: (0.4,0.4) tie, (0.4,0.2) concordant, (0.7,*) concordant x2
        assert roc_auc([0.2, 0.4, 0.4, 0.7], [0, 0, 1, 1]) == 0.875

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.9], [0, 0])

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            roc_auc([0.1, 0.2], [1])
        with pytest.raises(ConfigError):
            roc_auc([0.1, 0.2], [1, 2])

    def test_nan_scores_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            roc_auc([0.1, float("nan"), float("nan")], [0, 1, 0])
        with pytest.raises(ConfigError, match="NaN"):
            roc_curve([0.1, float("nan"), float("nan")], [0, 1, 0])

    @settings(max_examples=120, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0]),
            st.integers(0, 1),
        ),
        min_size=2, max_size=64,
    ))
    def test_equals_pairwise_oracle_exactly(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [l for _, l in pairs]
        assume(0 < sum(labels) < len(labels))
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(3)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=40)
        labels = rng.integers(0, 2, size=40)
        points = roc_curve(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_trapezoid_area_equals_auc(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=30)
            labels = rng.integers(0, 2, size=30)
            if len(set(labels.tolist())) < 2:
                continue
            points = roc_curve(scores, labels)
            area = sum(
                (x1 - x0) * (y0 + y1) / 2.0
                for (x0, y0), (x1, y1) in zip(points, points[1:])
            )
            assert area == pytest.approx(roc_auc(scores, labels), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_curve([0.2, 0.4], [1, 1])


class TestClassificationMetrics:
    def test_all_negative_worked_example(self):
        m = classification_metrics([0.2, 0.3, 0.1, 0.4], [1, 1, 0, 0])
        assert m.accuracy == 0.5
        assert m.precision_weighted == 0.25
        assert m.recall_weighted == 0.5
        assert m.f1_weighted == pytest.approx(1 / 3)
        assert m.confusion == (0, 0, 2, 2)

    def test_perfect_predictions(self):
        m = classification_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert m.accuracy == 1.0
        assert m.precision_weighted == 1.0
        assert m.recall_weighted == 1.0
        assert m.f1_weighted == 1.0

    def test_threshold_is_strict(self):
        m = classification_metrics([0.5, 0.5], [1, 0], threshold=0.5)
        assert m.confusion == (0, 0, 1, 1)  # score == threshold predicts 0
        above = classification_metrics([0.5000001, 0.5], [1, 0], threshold=0.5)
        assert above.confusion == (1, 0, 0, 1)

    def test_confusion_sums_to_n(self):
        rng = np.random.default_rng(0)
        scores = rng.random(37)
        labels = rng.integers(0, 2, size=37)
        m = classification_metrics(scores, labels, threshold=0.4)
        assert sum(m.confusion) == 37 == m.n

    def test_custom_threshold_changes_predictions(self):
        scores = [0.3, 0.6]
        labels = [1, 1]
        low = classification_metrics(scores, labels, threshold=0.2)
        high = classification_metrics(scores, labels, threshold=0.7)
        assert low.accuracy == 1.0
        assert high.accuracy == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            classification_metrics([], [])

    @pytest.mark.parametrize("scores, labels", [
        ([0.9, np.nan, 0.1], [1, 1, 0]),    # NaN counted as a negative before
        ([0.9, 0.2, 0.1], [1, 2, 0]),       # label 2 counted as a negative
        ([0.9, 0.2, 0.1], [1, 0]),          # raw broadcast ValueError before
        ([[0.9, 0.1]], [[1, 0]]),
    ])
    def test_invalid_input_rejected_like_roc_auc(self, scores, labels):
        with pytest.raises(ConfigError):
            classification_metrics(scores, labels)
        with pytest.raises(ConfigError):
            roc_auc(scores, labels)

    def test_float_fields(self):
        m = classification_metrics([0.9, 0.1], [1, 0])
        for value in (m.accuracy, m.precision_weighted, m.recall_weighted,
                      m.f1_weighted):
            assert type(value) is float


class TestUniqueYearRows:
    def test_dedup_across_overlapping_windows(self):
        samples = windows(n=12, k=3, d=4)
        years, rows = unique_year_rows(samples)
        assert years == tuple(range(1960, 1971))  # anchors stop one short
        assert rows.shape == (11, 4)
        ds = planted_dataset(n=12, d=4)
        np.testing.assert_array_equal(rows, ds.embeddings[:11])

    @pytest.mark.parametrize("n,d,k", [(12, 4, 3), (30, 6, 1), (64, 128, 16)])
    def test_matches_per_window_reference(self, n, d, k):
        ds = planted_dataset(n=n, d=d, seed=k)
        samples = make_windows(ds, k)
        want = reference_windows(ds, k)
        for idx in (slice(None), slice(3, None), np.arange(len(samples))[::-2]):
            years, rows = unique_year_rows(samples[idx])
            want_years, want_rows = reference_unique_year_rows(
                [want[i] for i in np.arange(len(want))[idx]])
            assert years == want_years
            assert all(type(y) is int for y in years)
            assert_same_bits(rows, want_rows)


class TestFitFoldPca:
    def test_rank_cap_warns(self):
        samples = windows(n=8, k=3, d=4)[:3]  # 5 unique years
        with pytest.warns(UserWarning, match="capped"):
            years, basis = fit_fold_pca(samples, d_prime=10)
        assert basis.components.shape[1] == 4  # min(10, d=4, rows-1=4)
        assert len(years) == 5

    def test_no_warning_when_feasible(self):
        samples = windows(n=20, k=3, d=6)
        years, basis = fit_fold_pca(samples, d_prime=2)
        assert basis.components.shape == (6, 2)
        assert years == tuple(range(1960, 1979))


class TestRunCv:
    CONFIG = TrainConfig(alpha=1e-2, batch_size=8, epochs=2, patience=2, seed=0)
    HYPER = ModelHyper(k=3, d_prime=3, h=4, h_a=4, dropout=0.0)

    def test_structure_no_news(self):
        samples = windows(n=33, k=3)  # 30 windows
        report = run_cv(samples, "no_news", self.CONFIG,
                        time_series_split(len(samples), 4), self.HYPER, d_prime=3)
        assert report.variant == "no_news"
        assert len(report.folds) == 4
        plan = time_series_split(30, 4)
        for fold, ((tr_lo, tr_hi), (te_lo, te_hi)) in zip(report.folds, plan.folds):
            assert fold.n_train == tr_hi - tr_lo
            assert fold.n_test == te_hi - te_lo
            assert fold.pca_basis is None and fold.pca_train_years is None
        assert [f.fold for f in report.folds] == [1, 2, 3, 4]
        for key in ("accuracy", "precision_w", "recall_w", "f1_w"):
            assert key in report.mean and key in report.std

    def test_no_test_anchor_precedes_training(self):
        samples = windows(n=33, k=3)
        report = run_cv(samples, "no_news", self.CONFIG,
                        time_series_split(len(samples), 4), self.HYPER, d_prime=3)
        for fold in report.folds:
            assert fold.train_anchor_span[1] < fold.test_anchor_span[0]

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_fold_pca_fits_on_train_rows_only(self):
        samples = windows(n=27, k=3, d=5)  # 24 windows
        plan = time_series_split(len(samples), 3)
        report = run_cv(samples, "full", self.CONFIG, plan, self.HYPER, d_prime=3)
        for fold, ((tr_lo, tr_hi), _) in zip(report.folds, plan.folds):
            years, basis = fit_fold_pca(samples[tr_lo:tr_hi], 3)
            assert fold.pca_train_years == years
            assert max(years) == fold.train_anchor_span[1]
            np.testing.assert_array_equal(fold.pca_basis.components,
                                          basis.components)
            np.testing.assert_array_equal(fold.pca_basis.mean, basis.mean)

    def test_plan_must_cover_samples(self):
        samples = windows(n=33, k=3)  # 30 windows
        with pytest.raises(ConfigError, match="plan covers 31 samples, got 30"):
            run_cv(samples, "no_news", self.CONFIG, time_series_split(31, 4),
                   self.HYPER, d_prime=3)
        with pytest.raises(ConfigError, match="plan covers 29 samples, got 30"):
            baseline_logreg(samples, holdout_split(29, 0.2), d_prime=3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_cv(windows(), "bilinear", self.CONFIG, time_series_split(28, 5))


class TestLogregBaseline:
    def test_loss_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, size=12).astype(float)
        w = rng.normal(size=4) * 0.5
        b = 0.3
        _, dw, db = logreg_loss_grad(w, b, x, y, l2=0.3)
        eps = 1e-6
        for i in range(4):
            w[i] += eps
            up, _, _ = logreg_loss_grad(w, b, x, y, l2=0.3)
            w[i] -= 2 * eps
            dn, _, _ = logreg_loss_grad(w, b, x, y, l2=0.3)
            w[i] += eps
            assert dw[i] == pytest.approx((up - dn) / (2 * eps), abs=1e-7)
        up, _, _ = logreg_loss_grad(w, b + eps, x, y, l2=0.3)
        dn, _, _ = logreg_loss_grad(w, b - eps, x, y, l2=0.3)
        assert db == pytest.approx((up - dn) / (2 * eps), abs=1e-7)

    def test_fit_matches_loss_grad_loop_bitwise(self):
        # The descent loop as it was when fit_logreg still called
        # logreg_loss_grad and discarded the loss.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(49, 21))
        y = (rng.random(49) < 0.4).astype(float)
        w_ref, b_ref = np.zeros(21), 0.0
        for _ in range(500):
            p = sigmoid(x @ w_ref + b_ref)
            resid = (p - y) / y.size
            w_ref -= 0.5 * (x.T @ resid + 1e-3 * w_ref)
            b_ref -= 0.5 * float(resid.sum())
        w, b = fit_logreg(x, y)
        assert np.array_equal(w.view(np.int64), w_ref.view(np.int64))
        assert b == b_ref

    def test_zero_iterations_scores_half(self):
        x = np.array([[1.0], [2.0]])
        w, b = fit_logreg(x, np.array([0.0, 1.0]), iters=0)
        np.testing.assert_array_equal(logreg_scores(w, b, x), [0.5, 0.5])

    def test_separable_data_reaches_auc_one(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.1, 20), rng.normal(2, 0.1, 20)])
        y = np.array([0.0] * 20 + [1.0] * 20)
        w, b = fit_logreg(x.reshape(-1, 1), y)
        assert roc_auc(logreg_scores(w, b, x.reshape(-1, 1)), y.astype(int)) == 1.0

    def test_sample_features_layout(self):
        s = Windows(
            prices=np.array([[[1.0], [2.0]]]),
            news=np.array([[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]]),
            targets=np.array([1]), years=np.array([[1960, 1961]]),
        )
        feats = sample_features(s)
        np.testing.assert_array_equal(feats, [[1.0, 2.0, 2.0, 3.0, 4.0]])

    @pytest.mark.parametrize("n,d,k", [(12, 4, 3), (30, 6, 1), (64, 128, 16)])
    def test_sample_features_match_per_window_reference(self, n, d, k):
        ds = planted_dataset(n=n, d=d, seed=k)
        assert_same_bits(sample_features(make_windows(ds, k)),
                         reference_sample_features(reference_windows(ds, k)))

    def test_report_structure(self):
        samples = windows(n=33, k=3)
        report = baseline_logreg(samples, time_series_split(len(samples), 3),
                                 d_prime=3, iters=50)
        assert report.variant == BASELINE_VARIANT
        assert len(report.folds) == 3
        for fold in report.folds:
            assert fold.pca_basis is not None
            assert fold.train_anchor_span[1] < fold.test_anchor_span[0]

    def test_same_fold_plan_as_model_cv(self):
        samples = windows(n=33, k=3)
        plan = time_series_split(len(samples), 4)
        base = baseline_logreg(samples, plan, d_prime=3, iters=5)
        model = run_cv(samples, "no_news", TestRunCv.CONFIG, plan, TestRunCv.HYPER,
                       d_prime=3)
        for bf, mf in zip(base.folds, model.folds):
            assert (bf.n_train, bf.n_test) == (mf.n_train, mf.n_test)
            assert bf.test_anchor_span == mf.test_anchor_span


class TestLogregDescentBatching:
    """fit_logreg_sets descends on several sets at once; every set's weights
    must be those of a descent on it alone, bit for bit."""

    # numpy's pairwise sum unrolls by 8 and recurses above 128 elements.
    SIZES = (1, 7, 8, 9, 127, 128, 129, 300)

    @pytest.mark.parametrize("iters", [0, 500])
    @pytest.mark.parametrize("width", [1, 21])
    def test_sets_match_one_set_descents_bitwise(self, width, iters):
        rng = np.random.default_rng(width + iters)
        xs = [rng.normal(size=(n, width)) for n in self.SIZES]
        ys = [(rng.random(n) < 0.4).astype(float) for n in self.SIZES]
        w, b = fit_logreg_sets(xs, ys, iters=iters)
        assert w.shape == (len(xs), width) and b.shape == (len(xs),)
        for x, y, w_i, b_i in zip(xs, ys, w, b):
            w_one, b_one = fit_logreg(x, y, iters=iters)
            w_ref, b_ref = reference_fit_logreg(x, y, iters=iters)
            assert_same_bits(w_i, w_one)
            assert_same_bits(w_i, w_ref)
            assert float(b_i).hex() == b_one.hex() == b_ref.hex()

    def test_five_fold_baseline_scores_match_fold_by_fold_reference(self):
        samples = windows(n=40, k=3)  # 38 windows
        plan = time_series_split(len(samples), 5)
        report = baseline_logreg(samples, plan, d_prime=3)
        want = reference_baseline_scores(samples, plan, d_prime=3)
        assert len(report.folds) == len(want) == 5
        for fold, scores in zip(report.folds, want):
            assert [v.hex() for v in fold.scores.tolist()] == \
                [v.hex() for v in scores.tolist()]

    def test_one_sigmoid_per_step_and_per_fold(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sigmoid(*args, **kwargs)

        monkeypatch.setattr(spikecast.evaluation, "sigmoid", counting)
        samples = windows(n=40, k=3)
        baseline_logreg(samples, time_series_split(len(samples), 5), d_prime=3,
                        iters=7)
        assert len(calls) == 7 + 5  # one per step, one per fold's test scores


class TestLogregDescentInputs:
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("iters", [-1, 2.5, "10", True])
    def test_iters_must_be_a_non_negative_integer(self, iters):
        with pytest.raises(ConfigError, match="iters must be an integer >= 0"):
            fit_logreg(self.X, self.Y, iters=iters)

    @pytest.mark.parametrize("lr", [0.0, -0.5, float("nan"), float("inf"), "0.5"])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigError, match="lr must be finite and > 0"):
            fit_logreg(self.X, self.Y, lr=lr)

    @pytest.mark.parametrize("l2", [-1e-3, float("nan"), float("inf"), None])
    def test_l2_must_be_finite_and_non_negative(self, l2):
        with pytest.raises(ConfigError, match="l2 must be finite and >= 0"):
            fit_logreg(self.X, self.Y, l2=l2)

    def test_sets_of_different_widths(self):
        with pytest.raises(ContractError, match="one width"):
            fit_logreg_sets([self.X, np.ones((3, 2))], [self.Y, self.Y])

    @pytest.mark.parametrize("labels", [2, 4])
    def test_label_count_must_match_row_count(self, labels):
        with pytest.raises(ContractError, match=f"set 0: labels of shape \\({labels},\\) "
                                                "for 3 rows"):
            fit_logreg(self.X, np.zeros(labels))


class TestSingleClassFold:
    def _rigged_samples(self):
        samples = windows(n=27, k=3)  # 24 windows -> 3 folds of test size 6
        i = np.arange(len(samples))
        targets = np.where(i >= 18, 0, i % 2)  # last test block single-class
        return replace(samples, targets=targets)

    def test_auc_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="single-class") as caught:
            report = baseline_logreg(self._rigged_samples(), time_series_split(24, 3),
                                     d_prime=3, iters=20)
        (warning,) = caught
        assert str(warning.message) == ("variant logreg fold 3: single-class test "
                                         "labels, AUC excluded from the mean")
        assert warning.filename == __file__  # the line that called baseline_logreg
        assert report.auc_folds_used == 2
        assert report.auc_folds_excluded == 1
        assert report.folds[-1].auc is None
        assert report.folds[0].auc is not None
        assert "auc" in report.mean  # mean over the two defined folds

    def test_holdout_auc_undefined_with_warning(self):
        with pytest.warns(UserWarning, match="single-class") as caught:
            report = run_cv(self._rigged_samples(), "no_news", TestRunCv.CONFIG,
                            holdout_split(24, 0.25), TestRunCv.HYPER, d_prime=3)
        (warning,) = caught
        assert str(warning.message) == ("variant no_news hold-out: single-class "
                                        "test labels, AUC undefined")
        assert warning.filename == __file__  # the line that called run_cv
        assert report.folds[0].auc is None

    def test_csv_empty_cell_for_undefined_auc(self, tmp_path):
        with pytest.warns(UserWarning):
            report = baseline_logreg(self._rigged_samples(), time_series_split(24, 3),
                                     d_prime=3, iters=20)
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant,fold,auc,accuracy,precision_w,recall_w,f1_w"
        last = lines[-1].split(",")
        assert last[0] == "logreg" and last[1] == "3" and last[2] == ""
        defined = lines[1].split(",")
        assert float(defined[2]) == report.folds[0].auc


class TestWriters:
    def _report(self):
        return baseline_logreg(windows(n=33, k=3), time_series_split(30, 3),
                               d_prime=3, iters=20)

    def test_report_csv_row_count_and_parse(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3
        row = lines[1].split(",")
        assert float(row[3]) == report.folds[0].metrics.accuracy

    def test_summary_json_shape(self, tmp_path):
        report = self._report()
        path = tmp_path / "summary.json"
        write_summary_json([report], path)
        doc = json.loads(path.read_text())
        block = doc["logreg"]
        assert set(block) == {
            "n_folds", "threshold", "mean", "std",
            "auc_folds_used", "auc_folds_excluded",
        }
        assert block["mean"]["accuracy"] == report.mean["accuracy"]
        assert block["n_folds"] == 3

    def test_roc_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.random(20)
        labels = rng.integers(0, 2, size=20)
        path = tmp_path / "roc.csv"
        write_roc_csv(scores, labels, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.0,0.0"
        assert lines[-1] == "1.0,1.0"
