"""Evaluation protocol: chronological splits, metrics, CV, ablations, baseline.

Two protocols share one fit-and-score loop: a single chronological hold-out
(last 20% of samples) is a one-fold plan, expanding-window cross-validation
a plan of n folds. Within every fold the PCA basis is fitted on training
rows only and recorded so the no-leakage property can be re-proven from the
report itself.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, ContractError, InsufficientDataError, UndefinedMetricError
from .model import (
    ModelHyper,
    TrainConfig,
    PCA_VARIANTS,
    VARIANTS,
    Windows,
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


def holdout_split(n: int, fraction: float = 0.20) -> FoldPlan:
    """Chronological one-fold plan: test = last ceil(fraction * n) samples."""
    if not 0.0 < fraction <= 0.5:
        raise ConfigError(f"holdout fraction must be in (0, 0.5], got {fraction}")
    if n < 5:
        raise InsufficientDataError(f"need at least 5 samples for a hold-out, got {n}")
    cut = n - math.ceil(fraction * n)
    return FoldPlan(n=n, n_folds=1, folds=(((0, cut), (cut, n)),))


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
    """Deduplicated (year, news-vector) rows across overlapping windows, in
    year order; each row is taken from the year's first occurrence."""
    years, first = np.unique(samples.years, return_index=True)
    rows = samples.news.reshape(-1, samples.news.shape[-1])[first]
    return tuple(years.tolist()), rows


def fit_fold_pca(train_samples: Windows, d_prime: int):
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


def _fold_auc(scores, labels, fold: int, n_folds: int, variant: str) -> float | None:
    """The fold's AUC, or None with a warning when its test labels are one
    class. The warning names the caller of run_cv or baseline_logreg, which
    reach this through _run_folds; call it from _run_folds's own frame."""
    try:
        return roc_auc(scores, labels)
    except UndefinedMetricError:
        where, effect = (("hold-out", "AUC undefined") if n_folds == 1 else
                         (f"fold {fold}", "AUC excluded from the mean"))
        warnings.warn(f"variant {variant} {where}: single-class test labels, {effect}",
                      stacklevel=4)
        return None


def _run_folds(samples, variant, score_folds, fits_pca: bool, plan: FoldPlan,
               d_prime: int, threshold: float) -> EvalReport:
    """The folds of `plan`, all scored by one score_folds(folds) call.

    folds holds one (train_s, test_s, basis) per fold; both parts hold raw
    news. With fits_pca, each fold's basis is PCA refitted on its training
    rows; otherwise basis is None. score_folds returns each fold's test
    scores, in fold order.
    """
    if plan.n != len(samples):
        raise ConfigError(f"fold plan covers {plan.n} samples, got {len(samples)}")
    folds, pca_years = [], []
    for (tr_lo, tr_hi), (te_lo, te_hi) in plan.folds:
        train_s = samples[tr_lo:tr_hi]
        years, basis = fit_fold_pca(train_s, d_prime) if fits_pca else (None, None)
        folds.append((train_s, samples[te_lo:te_hi], basis))
        pca_years.append(years)
    results = []
    for idx, ((train_s, test_s, basis), years, scores) in enumerate(
            zip(folds, pca_years, score_folds(folds)), start=1):
        labels = test_s.targets
        results.append(FoldResult(
            fold=idx,
            n_train=len(train_s),
            n_test=len(test_s),
            train_anchor_span=tuple(train_s.anchor_years[[0, -1]].tolist()),
            test_anchor_span=tuple(test_s.anchor_years[[0, -1]].tolist()),
            auc=_fold_auc(scores, labels, idx, plan.n_folds, variant),
            metrics=classification_metrics(scores, labels, threshold),
            scores=scores,
            pca_train_years=years,
            pca_basis=basis,
        ))
    return _summarize(variant, threshold, plan.n_folds, results)


def run_cv(
    samples: Windows,
    variant: str,
    config: TrainConfig,
    plan: FoldPlan,
    hyper: ModelHyper | None = None,
    d_prime: int = 16,
    threshold: float = 0.5,
) -> EvalReport:
    """One model variant over the folds of `plan`, with per-fold PCA refits."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")

    def score_folds(folds):
        # One model alive at a time: no name keeps a fold's params while
        # the next fold trains.
        return [predict(train(train_s, config, hyper=hyper, variant=variant,
                              pca=basis)[0], test_s)
                for train_s, test_s, basis in folds]

    return _run_folds(samples, variant, score_folds, variant in PCA_VARIANTS,
                      plan, d_prime, threshold)


# --- logistic-regression baseline ---------------------------------------------

def logreg_loss_grad(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray,
                     l2: float = 0.0):
    """Mean logistic loss with an L2 penalty on the weights (not the bias),
    and its (dw, db) gradient."""
    p = sigmoid(x @ w + b)
    resid = (p - y) / y.size
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    loss += 0.5 * l2 * float(w @ w)
    return loss, x.T @ resid + l2 * w, float(resid.sum())


def fit_logreg_sets(xs, ys, l2: float = 1e-3, lr: float = 0.5, iters: int = 500):
    """Full-batch gradient descent from a zero start on several independent
    sets at once; deterministic. Returns (n_sets, f) weights and (n_sets,)
    biases.

    Each set keeps its own x @ w, x.T @ resid and pairwise residual sum over
    its own rows, so its weights are bit for bit those of a descent on it
    alone. The bias add, sigmoid, residual, L2 term and both updates run once
    over the concatenated rows and the stacked weights.
    """
    if isinstance(iters, bool) or not isinstance(iters, Integral) or iters < 0:
        raise ConfigError(f"iters must be an integer >= 0, got {iters!r}")
    if not (isinstance(lr, Real) and math.isfinite(lr) and lr > 0):
        raise ConfigError(f"lr must be finite and > 0, got {lr!r}")
    if not (isinstance(l2, Real) and math.isfinite(l2) and l2 >= 0):
        raise ConfigError(f"l2 must be finite and >= 0, got {l2!r}")
    xs = [np.asarray(x, dtype=float) for x in xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    if not xs or len(xs) != len(ys):
        raise ContractError(f"{len(xs)} feature sets and {len(ys)} label sets")
    if any(x.ndim != 2 for x in xs) or len({x.shape[1] for x in xs}) != 1:
        raise ContractError("feature sets must be 2-D and of one width, got shapes "
                            f"{[x.shape for x in xs]}")
    for i, (x, y) in enumerate(zip(xs, ys)):
        if y.shape != x.shape[:1]:
            raise ContractError(f"set {i}: labels of shape {y.shape} for {len(x)} rows")

    rows = np.array([len(x) for x in xs])
    bounds = [0, *np.cumsum(rows).tolist()]
    spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    y = np.concatenate(ys)
    size = np.repeat(rows.astype(float), rows)  # each row's set size
    w = np.zeros((len(xs), xs[0].shape[1]))
    b = np.zeros(len(xs))
    dw, db = np.empty_like(w), np.empty_like(b)
    z, resid = np.empty(bounds[-1]), np.empty(bounds[-1])
    # Each set's operands and its views of the shared buffers; db[i, ...]
    # is set i's 0-d view of db.
    forward = [(x, w[i], z[s]) for i, (x, s) in enumerate(zip(xs, spans))]
    backward = [(x.T, resid[s], dw[i], db[i, ...])
                for i, (x, s) in enumerate(zip(xs, spans))]
    for _ in range(iters):
        for x, w_i, z_i in forward:
            np.matmul(x, w_i, out=z_i)
        z += np.repeat(b, rows)
        sigmoid(z, out=resid)
        resid -= y
        resid /= size
        for x_t, resid_i, dw_i, db_i in backward:
            np.matmul(x_t, resid_i, out=dw_i)
            np.add.reduce(resid_i, out=db_i)
        dw += l2 * w
        w -= lr * dw
        b -= lr * db
    return w, b


def fit_logreg(x: np.ndarray, y: np.ndarray, l2: float = 1e-3,
               lr: float = 0.5, iters: int = 500):
    """Full-batch gradient descent on one set: fit_logreg_sets' one-set case."""
    w, b = fit_logreg_sets([x], [y], l2=l2, lr=lr, iters=iters)
    return w[0], float(b[0])


def logreg_scores(w: np.ndarray, b: float, x: np.ndarray) -> np.ndarray:
    return sigmoid(x @ w + b)


def sample_features(samples: Windows) -> np.ndarray:
    """Per window: flattened prices concatenated with the mean news vector."""
    return np.concatenate([samples.prices[..., 0], samples.news.mean(axis=1)],
                          axis=1)


def baseline_logreg(
    samples: Windows,
    plan: FoldPlan,
    d_prime: int = 16,
    threshold: float = 0.5,
    l2: float = 1e-3,
    lr: float = 0.5,
    iters: int = 500,
) -> EvalReport:
    """Logistic regression under the folds of `plan` and the metrics of run_cv;
    all folds descend together through fit_logreg_sets."""
    def score_folds(folds):
        w, b = fit_logreg_sets(
            [sample_features(reduce_samples(train_s, basis)) for train_s, _, basis in folds],
            [train_s.targets for train_s, _, _ in folds], l2=l2, lr=lr, iters=iters)
        return [logreg_scores(w_i, b_i, sample_features(reduce_samples(test_s, basis)))
                for (_, test_s, basis), w_i, b_i in zip(folds, w, b)]

    return _run_folds(samples, BASELINE_VARIANT, score_folds, True,
                      plan, d_prime, threshold)


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
