"""Evaluation protocol: chronological splits, metrics, CV, ablations, baseline.

Two protocols share one fold set and one scorer: a single chronological
hold-out (last 20% of samples) is a one-fold plan, expanding-window
cross-validation a plan of n folds. Within every fold the PCA basis is fitted
on training rows only, once for all variants, and recorded so the no-leakage
property can be re-proven from the report itself.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import BASELINE_VARIANT
from .errors import (ConfigError, ContractError, InsufficientDataError, UndefinedMetricError,
                     check_count, check_real)
from .model import (
    TrainConfig,
    TrainStats,
    PCA_VARIANTS,
    VARIANTS,
    Windows,
    predict,
    reduce_samples,
    train,
)
from .nn.ops import sigmoid
from .pca import PcaBasis, cap_message, fit_pca
from .stores import write_csv, write_json


@dataclass(frozen=True)
class FoldPlan:
    """Expanding-window fold layout over n chronologically ordered samples."""

    n: int
    folds: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        prev_train_end = 0
        for (tr_lo, tr_hi), (te_lo, te_hi) in self.folds:
            if not (tr_lo == 0 and tr_lo < tr_hi <= te_lo < te_hi <= self.n):
                raise ConfigError(f"malformed fold ranges {((tr_lo, tr_hi), (te_lo, te_hi))}")
            if tr_hi <= prev_train_end:
                raise ConfigError("train ranges must strictly expand across folds")
            prev_train_end = tr_hi

    @property
    def n_folds(self) -> int:
        return len(self.folds)


def holdout_split(n: int, fraction: float = 0.20) -> FoldPlan:
    """Chronological one-fold plan: test = last ceil(fraction * n) samples."""
    check_real("holdout fraction", fraction, "(0, 0.5]")
    if n < 5:
        raise InsufficientDataError(f"need at least 5 samples for a hold-out, got {n}")
    cut = n - math.ceil(fraction * n)
    return FoldPlan(n=n, folds=(((0, cut), (cut, n)),))


def time_series_split(n: int, n_folds: int = 5) -> FoldPlan:
    """Expanding-window folds with test_size = floor(n / (n_folds + 1)).

    Fold j's training range is [0, n - (n_folds - j + 1) * test_size) and
    its test range is the test_size indices that follow, so later folds
    train on strict supersets and every test block is strictly later.
    """
    check_count("n_folds", n_folds, 1)
    if n < n_folds + 1:
        raise ConfigError(f"need n >= n_folds + 1 = {n_folds + 1} samples, got {n}")
    test_size = n // (n_folds + 1)
    folds = []
    for j in range(1, n_folds + 1):
        train_end = n - (n_folds - j + 1) * test_size
        folds.append(((0, train_end), (train_end, train_end + test_size)))
    return FoldPlan(n=n, folds=tuple(folds))


def _counts_by_score(scores, labels):
    """Positives and negatives at each distinct score, and the scores; highest first."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError("scores and labels must be equal-length 1-D sequences")
    if np.isnan(scores).any():
        raise ConfigError("scores must not be NaN")
    pos, neg = labels == 1, labels == 0
    if not (pos | neg).all():
        raise ConfigError("labels must be 0/1")
    distinct, index = np.unique(scores, return_inverse=True)
    index = distinct.size - 1 - index
    return (np.bincount(index[pos], minlength=distinct.size),
            np.bincount(index[neg], minlength=distinct.size), distinct[::-1])


def roc_auc(scores, labels) -> float:
    """Rank-based AUC: (concordant + half of tied pairs) / (pos * neg).

    Each negative counts the positives scored above it plus half of those
    tied with it. Every term is an integer or a half, so the sum is exact.
    """
    pos, neg, _ = _counts_by_score(scores, labels)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives"
        )
    above = np.cumsum(pos) - pos
    return int((neg * (2 * above + pos)).sum()) / (2 * n_pos * n_neg)


def roc_curve(scores, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) staircase from (0,0) to (1,1), thresholds descending."""
    pos, neg, _ = _counts_by_score(scores, labels)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC undefined with a single class")
    fpr, tpr = np.cumsum(neg) / n_neg, np.cumsum(pos) / n_pos
    return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))


@dataclass(frozen=True)
class MetricBlock:
    """Threshold metrics for one scored sample set."""

    accuracy: float
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    confusion: tuple[int, int, int, int]  # tp, fp, fn, tn
    threshold: float
    n: int


def classification_metrics(scores, labels, threshold: float = 0.5) -> MetricBlock:
    """Support-weighted precision/recall/F1 with predictions = score > threshold.

    Per-class metrics with zero denominators are defined as 0.
    """
    pos, neg, distinct = _counts_by_score(scores, labels)
    pred = distinct > threshold
    tp, fp = int(pos[pred].sum()), int(neg[pred].sum())
    fn, tn = int(pos[~pred].sum()), int(neg[~pred].sum())
    n = tp + fp + fn + tn
    if n == 0:
        raise InsufficientDataError("cannot compute metrics on an empty set")

    def _prf(tp_c, fp_c, fn_c):
        prec = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        rec = tp_c / (tp_c + fn_c) if tp_c + fn_c else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        return prec, rec, f1

    p1, r1, f1_1 = _prf(tp, fp, fn)
    p0, r0, f1_0 = _prf(tn, fn, fp)  # negative class: its "positives" are tn
    w1 = pos.sum() / n
    w0 = 1.0 - w1
    return MetricBlock(
        accuracy=float((tp + tn) / n),
        precision_weighted=float(w1 * p1 + w0 * p0),
        recall_weighted=float(w1 * r1 + w0 * r0),
        f1_weighted=float(w1 * f1_1 + w0 * f1_0),
        confusion=(tp, fp, fn, tn),
        threshold=threshold,
        n=n,
    )


@dataclass(frozen=True)
class FoldResult:
    fold: int
    n_train: int
    n_test: int
    train_anchor_span: tuple[int, int]
    test_anchor_span: tuple[int, int]
    auc: float | None
    metrics: MetricBlock
    scores: np.ndarray = field(compare=False)  # the test part's, in order
    pca_train_years: tuple[int, ...] | None = None
    pca_basis: PcaBasis | None = None
    train_stats: TrainStats | LogregStats | None = None  # how its model was fitted


@dataclass(frozen=True)
class EvalReport:
    variant: str
    threshold: float
    n_folds: int
    folds: tuple[FoldResult, ...]
    mean: dict[str, float]
    std: dict[str, float]
    auc_folds_used: int
    auc_folds_excluded: int


def _summarize(variant, threshold, n_folds, fold_results) -> EvalReport:
    cols = {
        "accuracy": [f.metrics.accuracy for f in fold_results],
        "precision_w": [f.metrics.precision_weighted for f in fold_results],
        "recall_w": [f.metrics.recall_weighted for f in fold_results],
        "f1_w": [f.metrics.f1_weighted for f in fold_results],
    }
    aucs = [f.auc for f in fold_results if f.auc is not None]
    mean = {k: float(np.mean(v)) for k, v in cols.items()}
    std = {k: float(np.std(v)) for k, v in cols.items()}
    if aucs:
        mean["auc"] = float(np.mean(aucs))
        std["auc"] = float(np.std(aucs))
    return EvalReport(
        variant=variant,
        threshold=threshold,
        n_folds=n_folds,
        folds=tuple(fold_results),
        mean=mean,
        std=std,
        auc_folds_used=len(aucs),
        auc_folds_excluded=len(fold_results) - len(aucs),
    )


def unique_year_rows(samples: Windows) -> tuple[tuple[int, ...], np.ndarray]:
    """The years that any of the windows covers and their news rows, once
    each, in year order."""
    covered = np.zeros(len(samples.data), dtype=bool)
    covered[samples.starts[:, None] + np.arange(samples.k)] = True
    years = tuple(year for year, hit in zip(samples.data.years, covered.tolist()) if hit)
    return years, samples.data.embeddings[covered]


def fit_fold_pca(train_samples: Windows, d_prime: int):
    """PCA basis from a fold's training rows only, capped to a feasible rank;
    a capped basis has a d_prime below the request, for the caller to word."""
    years, rows = unique_year_rows(train_samples)
    return years, fit_pca(rows, min(d_prime, rows.shape[1], rows.shape[0] - 1))


@dataclass(frozen=True)
class Fold:
    """One fold of a plan: its training and test windows, both slices of the
    raw samples, the label its warnings use, and the d' its PCA requests."""

    where: str  # "hold-out", or "fold i" for the i-th of several
    train: Windows
    test: Windows
    d_prime: int

    @cached_property
    def pca(self) -> tuple[tuple[int, ...], PcaBasis]:
        """PCA years and basis of the training rows, fitted at the first read;
        every variant scored on the fold shares them."""
        return fit_fold_pca(self.train, self.d_prime)

    @cached_property
    def projected(self) -> tuple[Windows, Windows]:
        """train and test on one table projected onto the basis, at the first read."""
        train = reduce_samples(self.train, self.pca[1])
        return train, replace(self.test, data=train.data, pca=train.pca)


def fold_set(samples: Windows, plan: FoldPlan, d_prime: int) -> list[Fold]:
    """The folds of `plan` over `samples`, to score any number of variants on."""
    if plan.n != len(samples):
        raise ConfigError(f"fold plan covers {plan.n} samples, got {len(samples)}")
    return [Fold("hold-out" if plan.n_folds == 1 else f"fold {i}",
                 samples[tr_lo:tr_hi], samples[te_lo:te_hi], d_prime)
            for i, ((tr_lo, tr_hi), (te_lo, te_hi)) in enumerate(plan.folds, start=1)]


SINGLE_CLASS = ("degenerate targets: training partition is single-class; "
                "training proceeds but the classifier cannot rank")


def _score(folds: list[Fold], variant: str, score_folds, threshold: float) -> EvalReport:
    """`variant` over `folds`, all scored by one score_folds(parts) call.

    parts holds each fold's (train, test), on its shared basis if the variant
    reduces news. score_folds returns each fold's test scores and how its
    model was fitted (TrainStats or LogregStats), in fold order. The warnings
    name the caller of run_cv or baseline_logreg, whose frame calls this.
    """
    check_real("threshold", threshold, "[0, 1]")
    reduces = variant in (*PCA_VARIANTS, BASELINE_VARIANT)
    pcas = [fold.pca if reduces else (None, None) for fold in folds]
    for fold, (_, basis) in zip(folds, pcas):
        if basis is not None and basis.d_prime < fold.d_prime:
            warnings.warn(f"variant {variant} {fold.where}: "
                          f"{cap_message(basis, fold.d_prime)}", stacklevel=3)
    results = []
    for idx, (fold, (years, basis), (scores, stats)) in enumerate(
            zip(folds, pcas, score_folds([fold.projected if reduces else (fold.train, fold.test)
                                          for fold in folds])), start=1):
        if stats.single_class:
            warnings.warn(f"variant {variant} {fold.where}: {SINGLE_CLASS}", stacklevel=3)
        labels = fold.test.targets
        try:
            auc = roc_auc(scores, labels)
        except UndefinedMetricError:
            auc, effect = None, ("AUC undefined" if fold.where == "hold-out"
                                 else "AUC excluded from the mean")
            warnings.warn(f"variant {variant} {fold.where}: single-class test labels, "
                          f"{effect}", stacklevel=3)
        results.append(FoldResult(
            fold=idx,
            n_train=len(fold.train),
            n_test=len(fold.test),
            train_anchor_span=tuple(fold.train.anchor_years[[0, -1]].tolist()),
            test_anchor_span=tuple(fold.test.anchor_years[[0, -1]].tolist()),
            auc=auc,
            metrics=classification_metrics(scores, labels, threshold),
            scores=scores,
            pca_train_years=years,
            pca_basis=basis,
            train_stats=stats,
        ))
    return _summarize(variant, threshold, len(folds), results)


def run_cv(folds: list[Fold], variant: str, config: TrainConfig,
           threshold: float = 0.5) -> EvalReport:
    """One model variant over a fold set, on each fold's shared PCA basis."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")

    def score_folds(parts):
        fit = train([part for part, _ in parts], config, variant)
        return [(predict(model, test), stats)
                for model, (_, test), stats in zip(fit.models, parts, fit.stats)]

    return _score(folds, variant, score_folds, threshold)


# --- logistic-regression baseline ---------------------------------------------

# Newton's method stops at max |gradient| <= LOGREG_TOL or after LOGREG_STEPS
# steps; it halves a step that raises the loss by more than _ROUNDING of it.
LOGREG_TOL, LOGREG_STEPS, _ROUNDING = 1e-10, 100, 100 * np.finfo(float).eps


class LogregStats(NamedTuple):
    """How a Newton fit ended: the steps it took, its final max |gradient|,
    and whether its labels held one class."""

    steps: int
    max_grad: float
    single_class: bool


def fit_logreg(x, y, l2: float = 1e-3) -> tuple[np.ndarray, float, LogregStats]:
    """L2-regularised logistic regression on 0/1 labels: the (f,) weights, the
    bias and LogregStats. Newton's method (IRLS; Hastie, Tibshirani and
    Friedman, The Elements of Statistical Learning, 2nd ed., section 4.4.1)
    starts from zero and minimises the mean log-loss plus (l2/2)|w|^2; the
    bias is not penalised. Single-class labels have no finite bias: the fit
    stops at the tolerance, near |b| = 23."""
    check_real("l2", l2, "(0, inf)")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ContractError(f"features of shape {x.shape} with labels of shape {y.shape}")
    a = np.column_stack([x, np.ones(len(x))])  # the bias is the last weight
    penalty = np.append(np.full(x.shape[1], l2), 0.0)

    def objective(theta):
        """Loss, gradient and row curvatures at theta; no row's loss cancels."""
        z = a @ theta
        p = sigmoid(z)
        loss = np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z))
        return (loss + 0.5 * theta @ (penalty * theta),
                a.T @ (p - y) / len(y) + penalty * theta, p * (1.0 - p))

    theta, steps = np.zeros(a.shape[1]), 0
    loss, grad, curv = objective(theta)
    while (max_grad := float(np.abs(grad).max())) > LOGREG_TOL and steps < LOGREG_STEPS:
        # eigh: fit_pca loaded its LAPACK driver; solve's adds 0.3 MB of peak memory.
        vals, vecs = np.linalg.eigh((a.T * (curv / len(y))) @ a + np.diag(penalty))
        step = vecs @ ((vecs.T @ grad) / vals)
        while (new := objective(theta - step))[0] - loss > _ROUNDING * loss:
            step /= 2
        theta -= step
        (loss, grad, curv), steps = new, steps + 1
    return theta[:-1], float(theta[-1]), LogregStats(steps, max_grad, bool(y.min() == y.max()))


def sample_features(samples: Windows) -> np.ndarray:
    """Per window: flattened prices concatenated with the mean news vector."""
    prices, news, _ = samples.batch()
    return np.concatenate([prices[..., 0], news.mean(axis=1)], axis=1)


def baseline_logreg(folds: list[Fold], threshold: float = 0.5,
                    l2: float = 1e-3) -> EvalReport:
    """Logistic regression over a fold set with the metrics of run_cv, each
    fold fitted on its own training part by fit_logreg."""
    def score_folds(parts):
        fits = [fit_logreg(sample_features(train), train.targets, l2) for train, _ in parts]
        return [(sigmoid(sample_features(test) @ w + b), stats)
                for (_, test), (w, b, stats) in zip(parts, fits)]

    return _score(folds, BASELINE_VARIANT, score_folds, threshold)


# --- artifact writers ----------------------------------------------------------

def write_report_csv(reports: list[EvalReport], path) -> None:
    """Per-fold metric rows; an undefined AUC is an empty cell."""
    write_csv(path, ["variant", "fold", "auc", "accuracy", "precision_w", "recall_w", "f1_w"],
              ([rep.variant, f.fold, f.auc, f.metrics.accuracy, f.metrics.precision_weighted,
                f.metrics.recall_weighted, f.metrics.f1_weighted]
               for rep in reports for f in rep.folds))


def write_summary_json(reports: list[EvalReport], path) -> None:
    doc = {}
    for rep in reports:
        doc[rep.variant] = {
            "n_folds": rep.n_folds,
            "threshold": rep.threshold,
            "mean": rep.mean,
            "std": rep.std,
            "auc_folds_used": rep.auc_folds_used,
            "auc_folds_excluded": rep.auc_folds_excluded,
        }
    write_json(path, doc)


def write_roc_csv(scores, labels, path) -> None:
    write_csv(path, ["fpr", "tpr"], roc_curve(scores, labels))
