"""Splits, ranking metrics, cross-validation protocol, and report writers."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spikecast.evaluation
import spikecast.model
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
    LOGREG_STEPS,
    LOGREG_TOL,
    fit_fold_pca,
    fit_logreg,
    fold_set,
    holdout_split,
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
from spikecast.ingest import AlignedDataset
from spikecast.model import (
    PCA_VARIANTS,
    VARIANTS,
    TrainConfig,
    Windows,
    make_windows,
)
from spikecast.nn import sigmoid

from conftest import (
    assert_same_bits,
    logreg_loss_grad,
    pairwise_auc,
    planted_dataset,
    reference_baseline_scores,
    reference_descent_logreg,
    reference_sample_features,
    reference_unique_year_rows,
    reference_windows,
    window_years,
    with_targets,
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
            FoldPlan(n=10, folds=(((1, 4), (4, 6)),))

    def test_rejects_test_overlapping_train(self):
        with pytest.raises(ConfigError):
            FoldPlan(n=10, folds=(((0, 5), (4, 6)),))

    def test_rejects_non_expanding_training(self):
        with pytest.raises(ConfigError):
            FoldPlan(
                n=10,
                folds=(((0, 4), (4, 6)), ((0, 4), (6, 8))),
            )

    def test_gap_between_train_and_test_is_legal(self):
        FoldPlan(n=10, folds=(((0, 4), (6, 8)),))

    def test_fold_count_is_the_folds_given(self):
        plan = FoldPlan(n=10, folds=(((0, 4), (4, 6)), ((0, 6), (6, 8))))
        assert plan.n_folds == len(plan.folds) == 2


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
        for got_train, got_test, want in zip(*((*w.batch(), window_years(w))
                                               for w in (train, test, samples))):
            np.testing.assert_array_equal(np.concatenate([got_train, got_test]), want)

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
    def test_rank_cap_is_reported(self):
        # The capped basis reports the cap by its d_prime; the scorer and the
        # train command word it.
        samples = windows(n=8, k=3, d=4)[:3]  # 5 unique years
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            years, basis = fit_fold_pca(samples, d_prime=10)
        assert basis.components.shape[1] == basis.d_prime == 4  # min(10, d=4, rows-1=4)
        assert len(years) == 5

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds are single-class
    def test_fold_loop_warns_once_per_fold_naming_the_caller(self):
        samples = windows(n=14, k=3, d=4)  # 11 windows of 4-wide news
        with pytest.warns(UserWarning, match="capped") as caught:
            baseline_logreg(fold_set(samples, time_series_split(len(samples), 3), 6))
        capped = [w for w in caught if "capped" in str(w.message)]
        assert [str(w.message) for w in capped] == [
            f"variant logreg fold {fold}: reduced dimension capped at 4 (requested 6) "
            f"by {rows} train rows of width 4" for fold, rows in ((1, 7), (2, 9), (3, 11))]
        assert {w.filename for w in capped} == {__file__}  # the line that called baseline_logreg

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds are single-class
    def test_holdout_warning_names_the_caller_of_run_cv(self):
        samples = windows(n=14, k=3, d=4)
        with pytest.warns(UserWarning, match="capped") as caught:
            run_cv(fold_set(samples, holdout_split(len(samples), 0.2), 6), "full",
                   TestRunCv.CONFIG)
        (capped,) = [w for w in caught if "capped" in str(w.message)]
        assert str(capped.message) == ("variant full hold-out: reduced dimension capped "
                                       "at 4 (requested 6) by 10 train rows of width 4")
        assert capped.filename == __file__  # the line that called run_cv

    def test_no_warning_when_feasible(self):
        samples = windows(n=20, k=3, d=6)
        years, basis = fit_fold_pca(samples, d_prime=2)
        assert basis.components.shape == (6, 2)
        assert years == tuple(range(1960, 1979))


class TestRunCv:
    CONFIG = TrainConfig(h=4, h_a=4, dropout=0.0, alpha=1e-2, batch_size=8, epochs=2,
                         patience=2, seed=0)

    def test_structure_no_news(self):
        samples = windows(n=33, k=3)  # 30 windows
        report = run_cv(fold_set(samples, time_series_split(len(samples), 4), 3),
                        "no_news", self.CONFIG)
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
        report = run_cv(fold_set(samples, time_series_split(len(samples), 4), 3),
                        "no_news", self.CONFIG)
        for fold in report.folds:
            assert fold.train_anchor_span[1] < fold.test_anchor_span[0]

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_fold_pca_fits_on_train_rows_only(self):
        samples = windows(n=27, k=3, d=5)  # 24 windows
        plan = time_series_split(len(samples), 3)
        report = run_cv(fold_set(samples, plan, 3), "full", self.CONFIG)
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
            fold_set(samples, time_series_split(31, 4), 3)
        with pytest.raises(ConfigError, match="plan covers 29 samples, got 30"):
            fold_set(samples, holdout_split(29, 0.2), 3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            run_cv(fold_set(windows(), time_series_split(28, 5), 16), "bilinear",
                   self.CONFIG)


class TestFoldSet:
    """One fold set serves every variant: each scores on it as on a fold set
    of its own."""

    @staticmethod
    def _scored(folds, variant):
        """variant's report over folds, and its warnings in the order raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = (baseline_logreg(folds) if variant == BASELINE_VARIANT
                      else run_cv(folds, variant, TestRunCv.CONFIG))
        return report, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    @pytest.mark.parametrize("plan", [time_series_split(24, 3), holdout_split(24, 0.25)],
                             ids=["cv", "hold-out"])
    def test_shared_folds_score_as_fresh_ones(self, plan):
        samples = windows(n=27, k=3, d=4)  # 24 windows of 4-wide news: d' = 6 is capped
        i = np.arange(len(samples))
        # Fold 1's training part (windows 0-4) and the last test block are single-class.
        samples = with_targets(samples, np.where((i < 5) | (i >= 18), 0, i % 2))
        shared = fold_set(samples, plan, 6)
        for variant in (*VARIANTS, BASELINE_VARIANT):
            got, got_warned = self._scored(shared, variant)
            want, want_warned = self._scored(fold_set(samples, plan, 6), variant)
            assert got_warned == want_warned
            assert {(category, filename) for _, category, filename, _ in got_warned} == \
                {(UserWarning, __file__)}  # the line that called run_cv or baseline_logreg
            messages = " ".join(message for message, *_ in got_warned)
            assert "single-class test labels" in messages
            assert ("capped" in messages) == (variant in (*PCA_VARIANTS, BASELINE_VARIANT))
            assert (got.mean, got.std, got.auc_folds_used) == \
                (want.mean, want.std, want.auc_folds_used)
            for g, w in zip(got.folds, want.folds, strict=True):
                assert_same_bits(g.scores, w.scores)
                assert (g.auc, g.metrics, g.train_stats, g.pca_train_years) == \
                    (w.auc, w.metrics, w.train_stats, w.pca_train_years)
                assert (g.pca_basis is None) == (w.pca_basis is None)
                if g.pca_basis is not None:
                    for name in ("mean", "components", "explained_variance"):
                        assert_same_bits(getattr(g.pca_basis, name),
                                         getattr(w.pca_basis, name))

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_each_fold_is_projected_once(self, monkeypatch):
        calls, transform_rows = [], spikecast.model.transform_rows
        monkeypatch.setattr(spikecast.model, "transform_rows", lambda basis, rows:
                            calls.append(rows.shape) or transform_rows(basis, rows))
        folds = fold_set(windows(n=40, k=3, d=6), time_series_split(37, 5), 3)
        run_cv(folds, "full", TestRunCv.CONFIG)
        run_cv(folds, "no_attention", TestRunCv.CONFIG)
        run_cv(folds, "no_news", TestRunCv.CONFIG)
        baseline_logreg(folds)
        assert calls == [(40, 6)] * 5  # each fold's year table, once for every variant
        for fold in folds:
            train, test = fold.projected
            assert train.pca is test.pca is fold.pca[1] and train.data is test.data
            assert_same_bits(train.starts, fold.train.starts)
            assert_same_bits(test.starts, fold.test.starts)

    @pytest.mark.parametrize("threshold", [-0.5, 1.5, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval(self, threshold):
        folds = fold_set(windows(n=33, k=3), time_series_split(30, 3), 3)
        bound = r"in \[0, 1\]" if math.isfinite(threshold) else "a finite number"
        for variant in ("no_news", BASELINE_VARIANT):
            with pytest.raises(ConfigError, match=f"threshold must be {bound}, got {threshold}$"):
                (baseline_logreg(folds, threshold) if variant == BASELINE_VARIANT
                 else run_cv(folds, variant, TestRunCv.CONFIG, threshold))

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_threshold_bounds_are_allowed(self):
        folds = fold_set(windows(n=33, k=3), time_series_split(30, 3), 3)
        for threshold in (0.0, 1.0):
            assert baseline_logreg(folds, threshold).threshold == threshold


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

    def test_separable_data_reaches_auc_one(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.1, 20), rng.normal(2, 0.1, 20)]).reshape(-1, 1)
        y = np.array([0.0] * 20 + [1.0] * 20)
        w, b, _ = fit_logreg(x, y)
        assert roc_auc(sigmoid(x @ w + b), y.astype(int)) == 1.0

    def test_sample_features_layout(self):
        s = Windows(AlignedDataset(
            years=(1960, 1961, 1962),
            prices=np.array([1.0, 2.0, 0.0]),
            labels=np.array([0, 0, 1]),
            embeddings=np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [0.0, 0.0, 0.0]]),
        ), starts=np.array([0]), k=2)
        feats = sample_features(s)
        np.testing.assert_array_equal(feats, [[1.0, 2.0, 2.0, 3.0, 4.0]])

    @pytest.mark.parametrize("n,d,k", [(12, 4, 3), (30, 6, 1), (64, 128, 16)])
    def test_sample_features_match_per_window_reference(self, n, d, k):
        ds = planted_dataset(n=n, d=d, seed=k)
        assert_same_bits(sample_features(make_windows(ds, k)),
                         reference_sample_features(reference_windows(ds, k)))

    def test_report_structure(self):
        samples = windows(n=33, k=3)
        report = baseline_logreg(fold_set(samples, time_series_split(len(samples), 3), 3))
        assert report.variant == BASELINE_VARIANT
        assert len(report.folds) == 3
        for fold in report.folds:
            assert fold.pca_basis is not None
            assert fold.train_anchor_span[1] < fold.test_anchor_span[0]

    def test_same_fold_plan_as_model_cv(self):
        samples = windows(n=33, k=3)
        plan = time_series_split(len(samples), 4)
        base = baseline_logreg(fold_set(samples, plan, 3))
        model = run_cv(fold_set(samples, plan, 3), "no_news", TestRunCv.CONFIG)
        for bf, mf in zip(base.folds, model.folds):
            assert (bf.n_train, bf.n_test) == (mf.n_train, mf.n_test)
            assert bf.test_anchor_span == mf.test_anchor_span


def logreg_set(case: str, n: int = 40, f: int = 6, seed: int = 0):
    """Features and 0/1 labels of one generated kind of training set."""
    if case == "wide-scaled":
        n, f = 12, 20
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f))
    y = rng.random(n) < 0.4
    if case in ("all-0", "all-1"):
        y = np.full(n, case == "all-1")
    elif case.startswith("separable"):  # a margin of 0.5 on each side of a plane
        normal = rng.normal(size=f) / 3.0
        y = x @ normal > 0
        x += np.where(y, 0.5, -0.5)[:, None] * normal / np.linalg.norm(normal)
    if case == "wide-scaled":  # more columns than rows, scaled from 1e-4 to 1e4
        x *= 10.0 ** (np.arange(f) % 9 - 4)
    elif case.endswith("scaled"):  # columns from 1e-3 to 1e2, then shifted off zero
        x = (x + 3.0) * 10.0 ** np.arange(-3, f - 3)
    return x, y.astype(float)


class TestLogregNewton:
    """fit_logreg ends at the optimum of its penalised loss, and
    baseline_logreg fits each fold on that fold's training part alone."""

    CASES = ("mixed", "all-0", "all-1", "separable", "mixed-scaled", "separable-scaled",
             "wide-scaled")

    @pytest.mark.parametrize("l2", [1e-3, 1e-6, 1.0])
    @pytest.mark.parametrize("case", CASES)
    def test_gradient_vanishes_at_the_fit(self, case, l2):
        x, y = logreg_set(case, seed=4)
        w, b, stats = fit_logreg(x, y, l2)
        _, dw, db = logreg_loss_grad(w, b, x, y, l2)
        assert max(np.abs(dw).max(), abs(db)) <= LOGREG_TOL
        assert stats.max_grad <= LOGREG_TOL and 1 <= stats.steps < LOGREG_STEPS

    def test_a_step_that_raises_the_loss_is_halved(self, monkeypatch):
        # Full Newton steps on this set raise the loss, and taken whole they
        # drive every row's p(1 - p), and so the Hessian, to zero.
        calls = []
        monkeypatch.setattr(spikecast.evaluation, "sigmoid",
                            lambda z: calls.append(z.shape) or sigmoid(z))
        x, y = logreg_set("wide-scaled", seed=4)
        _, _, stats = fit_logreg(x, y)
        assert len(calls) > stats.steps + 1  # one loss per step, and a rejected one
        assert stats.max_grad <= LOGREG_TOL

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_bias_stops_at_the_tolerance(self, label):
        x, y = logreg_set(f"all-{label}")
        w, b, stats = fit_logreg(x, y)
        # mean sigmoid(-|b|) = LOGREG_TOL at |b| = 23.03; the fit ends just past it.
        assert 23.0 < (b if label else -b) < 24.0
        assert np.abs(w).max() < 1e-12
        assert stats.steps < LOGREG_STEPS

    @pytest.mark.parametrize("case", ["mixed", "separable"])
    def test_matches_a_long_gradient_descent(self, case):
        x, y = logreg_set(case, n=30, f=4, seed=3)
        w, b, _ = fit_logreg(x, y, l2=0.05)
        w_ref, b_ref = reference_descent_logreg(x, y, l2=0.05)
        # Both lie within LOGREG_TOL / l2 = 2e-9 of the optimum in gradient terms.
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-8)
        assert b == pytest.approx(b_ref, rel=0, abs=1e-8)

    def test_five_fold_baseline_matches_fitting_each_fold_alone(self):
        samples = windows(n=40, k=3)  # 38 windows
        plan = time_series_split(len(samples), 5)
        report = baseline_logreg(fold_set(samples, plan, 3))
        want_scores, want_stats = reference_baseline_scores(samples, plan, d_prime=3)
        assert len(report.folds) == len(want_scores) == 5
        for fold, scores, stats in zip(report.folds, want_scores, want_stats):
            assert_same_bits(fold.scores, scores)
            assert fold.train_stats == stats and stats.max_grad <= LOGREG_TOL

    @pytest.mark.filterwarnings("ignore:.*single-class test labels")
    def test_later_labels_leave_an_earlier_fold_alone(self):
        samples = windows(n=40, k=3)
        plan = time_series_split(len(samples), 5)
        (_, first_end), _ = plan.folds[0]
        targets = samples.targets.copy()
        targets[first_end:] = 1 - targets[first_end:]
        base = baseline_logreg(fold_set(samples, plan, 3))
        flipped = baseline_logreg(fold_set(with_targets(samples, targets), plan, 3))
        assert_same_bits(base.folds[0].scores, flipped.folds[0].scores)
        assert base.folds[0].train_stats == flipped.folds[0].train_stats
        assert base.folds[1].train_stats != flipped.folds[1].train_stats

    @pytest.mark.filterwarnings("ignore:.*reduced dimension capped")
    @pytest.mark.filterwarnings("ignore:.*single-class test labels")
    @pytest.mark.filterwarnings("ignore:.*degenerate targets")  # folds 1-3 train on one class
    def test_folds_of_different_pca_ranks(self):
        # Early folds have too few training rows for d' = 7, so PCA caps
        # their bases at lower ranks and their feature sets are narrower.
        samples = make_windows(planted_dataset(n=30, d=8), 3)
        plan = time_series_split(len(samples), 12)
        report = baseline_logreg(fold_set(samples, plan, 7))
        want_scores, want_stats = reference_baseline_scores(samples, plan, d_prime=7)
        assert len({f.pca_basis.components.shape[1] for f in report.folds}) > 1
        assert len(report.folds) == len(want_scores) == 12
        for fold, scores, stats in zip(report.folds, want_scores, want_stats):
            assert_same_bits(fold.scores, scores)
            assert fold.train_stats == stats


class TestLogregDescentInputs:
    X = np.array([[0.0], [1.0], [2.0]])
    Y = np.array([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("l2", [0.0, -1e-3, float("nan"), float("inf"), None])
    def test_l2_must_be_finite_and_non_negative(self, l2):
        bound = "> 0" if l2 is not None and math.isfinite(l2) else "a finite number"
        with pytest.raises(ConfigError, match=f"l2 must be {bound}, got {l2}$"):
            fit_logreg(self.X, self.Y, l2=l2)

    def test_sets_must_be_2d(self):
        with pytest.raises(ContractError, match=r"features of shape \(3,\) with labels"):
            fit_logreg(np.ones(3), self.Y)

    @pytest.mark.parametrize("labels", [2, 4])
    def test_label_count_must_match_row_count(self, labels):
        with pytest.raises(ContractError, match=f"features of shape \\(3, 1\\) with labels "
                                                f"of shape \\({labels},\\)"):
            fit_logreg(self.X, np.zeros(labels))


class TestSingleClassFold:
    def _rigged_samples(self):
        samples = windows(n=27, k=3)  # 24 windows -> 3 folds of test size 6
        i = np.arange(len(samples))
        targets = np.where(i >= 18, 0, i % 2)  # last test block single-class
        return with_targets(samples, targets)

    def test_auc_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="single-class") as caught:
            report = baseline_logreg(
                fold_set(self._rigged_samples(), time_series_split(24, 3), 3))
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
            report = run_cv(fold_set(self._rigged_samples(), holdout_split(24, 0.25), 3),
                            "no_news", TestRunCv.CONFIG)
        (warning,) = caught
        assert str(warning.message) == ("variant no_news hold-out: single-class "
                                        "test labels, AUC undefined")
        assert warning.filename == __file__  # the line that called run_cv
        assert report.folds[0].auc is None

    # Fold 1 of 3 trains on windows 0-4 (5 is its validation tail) and the
    # hold-out on 0-14; every other training part and test block has both.
    @pytest.mark.parametrize("plan,zeros,where", [
        (time_series_split(24, 3), 5, "fold 1"), (holdout_split(24, 0.25), 15, "hold-out"),
    ])
    def test_single_class_training_warns_with_variant_and_fold(self, plan, zeros, where):
        samples = windows(n=27, k=3)
        i = np.arange(len(samples))
        targets = np.where(i < zeros, 0, i % 2)
        with pytest.warns(UserWarning, match="degenerate targets") as caught:
            run_cv(fold_set(with_targets(samples, targets), plan, 3), "no_news",
                   TestRunCv.CONFIG)
        (warning,) = [w for w in caught if "degenerate" in str(w.message)]
        assert str(warning.message) == (
            f"variant no_news {where}: degenerate targets: training partition is "
            "single-class; training proceeds but the classifier cannot rank")
        assert warning.filename == __file__  # the line that called run_cv

    def test_single_class_training_warns_for_logreg(self):
        # Fold 1 of 3 fits the baseline on windows 0-5, all labelled 0.
        samples = windows(n=27, k=3)
        i = np.arange(len(samples))
        targets = np.where(i < 6, 0, i % 2)
        with pytest.warns(UserWarning, match="degenerate targets") as caught:
            report = baseline_logreg(fold_set(with_targets(samples, targets),
                                              time_series_split(24, 3), 3))
        (warning,) = [w for w in caught if "degenerate" in str(w.message)]
        assert str(warning.message) == (
            "variant logreg fold 1: degenerate targets: training partition is "
            "single-class; training proceeds but the classifier cannot rank")
        assert warning.filename == __file__  # the line that called baseline_logreg
        assert [f.train_stats.single_class for f in report.folds] == [True, False, False]

    def test_csv_empty_cell_for_undefined_auc(self, tmp_path):
        with pytest.warns(UserWarning):
            report = baseline_logreg(
                fold_set(self._rigged_samples(), time_series_split(24, 3), 3))
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
        return baseline_logreg(fold_set(windows(n=33, k=3), time_series_split(30, 3), 3))

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
