"""Evaluation protocol: chronological splits, metrics, CV, ablations, baseline.

Two protocols are kept strictly separate: a single chronological hold-out
(last 20% of samples) and expanding-window cross-validation. Within every
fold the PCA basis is fitted on training rows only and recorded so the
no-leakage property can be re-proven from the report itself.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError, UndefinedMetricError
from .model import (
    ModelHyper,
    TrainConfig,
    VARIANT_NO_NEWS,
    VARIANT_NO_PCA,
    VARIANTS,
    WindowedSample,
    predict,
    reduce_samples,
    train,
)
from .nn.ops import sigmoid
from .pca import PcaBasis, fit_pca

BASELINE_VARIANT = "logreg"


@dataclass(frozen=True)
class FoldPlan:
    """Expanding-window fold layout over n chronologically ordered samples."""

    n: int
    n_folds: int
    folds: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        prev_train_end = 0
        for (tr_lo, tr_hi), (te_lo, te_hi) in self.folds:
            if not (tr_lo == 0 and tr_lo < tr_hi <= te_lo < te_hi <= self.n):
                raise ConfigError(f"malformed fold ranges {((tr_lo, tr_hi), (te_lo, te_hi))}")
            if te_lo < tr_hi:
                raise ConfigError("test range must start after the train range ends")
            if tr_hi <= prev_train_end:
                raise ConfigError("train ranges must strictly expand across folds")
            prev_train_end = tr_hi


def holdout_split(
    samples: list[WindowedSample], fraction: float = 0.20
) -> tuple[list[WindowedSample], list[WindowedSample]]:
    """Chronological split: test = last ceil(fraction * n) samples."""
    if not 0.0 < fraction <= 0.5:
        raise ConfigError(f"holdout fraction must be in (0, 0.5], got {fraction}")
    n = len(samples)
    if n < 5:
        raise InsufficientDataError(f"need at least 5 samples for a hold-out, got {n}")
    n_test = math.ceil(fraction * n)
    return samples[: n - n_test], samples[n - n_test :]


def time_series_split(n: int, n_folds: int = 5) -> FoldPlan:
    """Expanding-window folds with test_size = floor(n / (n_folds + 1)).

    Fold j's training range is [0, n - (n_folds - j + 1) * test_size) and
    its test range is the test_size indices that follow, so later folds
    train on strict supersets and every test block is strictly later.
    """
    if n_folds < 1:
        raise ConfigError(f"n_folds must be >= 1, got {n_folds}")
    if n < n_folds + 1:
        raise ConfigError(f"need n >= n_folds + 1 = {n_folds + 1} samples, got {n}")
    test_size = n // (n_folds + 1)
    folds = []
    for j in range(1, n_folds + 1):
        train_end = n - (n_folds - j + 1) * test_size
        folds.append(((0, train_end), (train_end, train_end + test_size)))
    return FoldPlan(n=n, n_folds=n_folds, folds=tuple(folds))


def roc_auc(scores, labels) -> float:
    """Rank-based AUC: (concordant + half of tied pairs) / (pos * neg).

    Computed from average ranks, which equals the all-pairs count exactly:
    tied ranks are half-integers and every intermediate sum stays exactly
    representable at realistic sizes.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError("scores and labels must be equal-length 1-D sequences")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        raise ConfigError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives, {n_neg} negatives"
        )
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average of 1-based ranks
        i = j + 1
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def roc_curve(scores, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) staircase from (0,0) to (1,1), thresholds descending."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC undefined with a single class")
    points = [(0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        points.append((fp / n_neg, tp / n_pos))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


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
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise InsufficientDataError("cannot compute metrics on an empty set")
    pred = scores > threshold
    pos = labels == 1
    tp = int((pred & pos).sum())
    fp = int((pred & ~pos).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & ~pos).sum())
    n = labels.size

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
    pca_train_years: tuple[int, ...] | None = None
    pca_basis: PcaBasis | None = None


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


METRIC_KEYS = ("auc", "accuracy", "precision_w", "recall_w", "f1_w")


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


def unique_year_rows(samples: list[WindowedSample]) -> tuple[tuple[int, ...], np.ndarray]:
    """Deduplicated (year, news-vector) rows across overlapping windows."""
    by_year: dict[int, np.ndarray] = {}
    for s in samples:
        for year, row in zip(s.years, s.news):
            by_year.setdefault(year, row)
    years = tuple(sorted(by_year))
    return years, np.array([by_year[y] for y in years])


def fit_fold_pca(train_samples: list[WindowedSample], d_prime: int):
    """PCA basis from a fold's training rows only, capped to a feasible rank."""
    years, rows = unique_year_rows(train_samples)
    cap = min(d_prime, rows.shape[1], rows.shape[0] - 1)
    if cap < d_prime:
        warnings.warn(
            f"reduced dimension capped at {cap} (requested {d_prime}) "
            f"by {rows.shape[0]} train rows of width {rows.shape[1]}",
            stacklevel=2,
        )
    basis = fit_pca(rows, cap)
    return years, basis


def _fold_auc(scores, labels, fold: int, variant: str) -> float | None:
    try:
        return roc_auc(scores, labels)
    except UndefinedMetricError:
        warnings.warn(
            f"variant {variant} fold {fold}: single-class test labels, "
            "AUC excluded from the mean",
            stacklevel=4,
        )
        return None


def _run_folds(samples, variant, fit_score, fits_pca: bool, n_folds: int,
               d_prime: int, threshold: float) -> EvalReport:
    """Expanding-window folds scored by fit_score(train_s, test_s, basis).

    With fits_pca, each fold refits PCA on its training rows and reduces
    both parts; otherwise basis is None.
    """
    plan = time_series_split(len(samples), n_folds)
    results = []
    for idx, ((tr_lo, tr_hi), (te_lo, te_hi)) in enumerate(plan.folds, start=1):
        train_s = samples[tr_lo:tr_hi]
        test_s = samples[te_lo:te_hi]
        pca_years = None
        basis = None
        if fits_pca:
            pca_years, basis = fit_fold_pca(train_s, d_prime)
            train_s = reduce_samples(train_s, basis)
            test_s = reduce_samples(test_s, basis)
        scores = fit_score(train_s, test_s, basis)
        labels = np.array([s.target for s in test_s])
        results.append(FoldResult(
            fold=idx,
            n_train=len(train_s),
            n_test=len(test_s),
            train_anchor_span=(train_s[0].anchor_year, train_s[-1].anchor_year),
            test_anchor_span=(test_s[0].anchor_year, test_s[-1].anchor_year),
            auc=_fold_auc(scores, labels, idx, variant),
            metrics=classification_metrics(scores, labels, threshold),
            pca_train_years=pca_years,
            pca_basis=basis,
        ))
    return _summarize(variant, threshold, n_folds, results)


def run_cv(
    samples: list[WindowedSample],
    variant: str,
    config: TrainConfig,
    hyper: ModelHyper | None = None,
    n_folds: int = 5,
    d_prime: int = 16,
    threshold: float = 0.5,
) -> EvalReport:
    """Expanding-window CV of one model variant with per-fold PCA refits."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")

    def fit_score(train_s, test_s, basis):
        params, _ = train(train_s, config, hyper=hyper, variant=variant, pca=basis)
        return predict(params, test_s)

    return _run_folds(samples, variant, fit_score,
                      variant not in (VARIANT_NO_PCA, VARIANT_NO_NEWS),
                      n_folds, d_prime, threshold)


# --- logistic-regression baseline ---------------------------------------------

def logreg_loss_grad(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray,
                     l2: float = 0.0):
    """Mean logistic loss with an L2 penalty on the weights (not the bias)."""
    z = x @ w + b
    p = sigmoid(z)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += 0.5 * l2 * float(w @ w)
    resid = (p - y) / y.size
    dw = x.T @ resid + l2 * w
    db = float(resid.sum())
    return loss, dw, db


def fit_logreg(x: np.ndarray, y: np.ndarray, l2: float = 1e-3,
               lr: float = 0.5, iters: int = 500):
    """Full-batch gradient descent from a zero start; deterministic."""
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(iters):
        _, dw, db = logreg_loss_grad(w, b, x, y, l2)
        w -= lr * dw
        b -= lr * db
    return w, b


def logreg_scores(w: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    return sigmoid(x @ w + b)


def sample_features(samples: list[WindowedSample]) -> np.ndarray:
    """Flattened price window concatenated with the window-mean news vector."""
    return np.array([
        np.concatenate([s.prices.ravel(), s.news.mean(axis=0)]) for s in samples
    ])


def baseline_logreg(
    samples: list[WindowedSample],
    n_folds: int = 5,
    d_prime: int = 16,
    threshold: float = 0.5,
    l2: float = 1e-3,
    lr: float = 0.5,
    iters: int = 500,
) -> EvalReport:
    """Logistic regression under the exact fold plan and metrics of run_cv."""
    def fit_score(train_s, test_s, basis):
        y_train = np.array([s.target for s in train_s], dtype=float)
        w, b = fit_logreg(sample_features(train_s), y_train,
                          l2=l2, lr=lr, iters=iters)
        return logreg_scores(w, b, sample_features(test_s))

    return _run_folds(samples, BASELINE_VARIANT, fit_score, True,
                      n_folds, d_prime, threshold)


# --- artifact writers ----------------------------------------------------------

def write_report_csv(reports: list[EvalReport], path) -> None:
    """Per-fold metric rows; an undefined AUC is an empty cell."""
    lines = ["variant,fold,auc,accuracy,precision_w,recall_w,f1_w"]
    for rep in reports:
        for f in rep.folds:
            auc = "" if f.auc is None else repr(f.auc)
            m = f.metrics
            lines.append(
                f"{rep.variant},{f.fold},{auc},{m.accuracy!r},"
                f"{m.precision_weighted!r},{m.recall_weighted!r},{m.f1_weighted!r}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(reports: list[EvalReport], path) -> None:
    doc = {}
    for rep in reports:
        doc[rep.variant] = {
            "n_folds": rep.n_folds,
            "threshold": rep.threshold,
            "mean": {k: rep.mean[k] for k in sorted(rep.mean)},
            "std": {k: rep.std[k] for k in sorted(rep.std)},
            "auc_folds_used": rep.auc_folds_used,
            "auc_folds_excluded": rep.auc_folds_excluded,
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_roc_csv(scores, labels, path) -> None:
    points = roc_curve(scores, labels)
    lines = ["fpr,tpr"] + [f"{fpr!r},{tpr!r}" for fpr, tpr in points]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
