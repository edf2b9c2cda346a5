"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with plain `pytest tests/test_acceptance.py` (or the full suite); every
criterion prints a [PASS]/[FAIL] line with its measured numbers even when
output capture is on.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spikecast.agents import AgentConfig, orchestrate
from spikecast.backends import MockBackend
from spikecast.cli import main as cli_main
from spikecast.evaluation import (
    baseline_logreg,
    fit_fold_pca,
    fold_set,
    roc_auc,
    run_cv,
    time_series_split,
)
from spikecast.ingest import PriceSeries, label_spikes
from spikecast.model import (
    ModelHyper,
    TrainConfig,
    backward_batch,
    evaluate_loss,
    flat_params,
    forward_batch,
    init_model,
    make_windows,
)
from spikecast.nn import (
    attention_forward,
    bce_loss,
    init_attention_params,
    softmax_rows,
)
from spikecast.pca import fit_pca
from spikecast.stores import SummaryStore

from conftest import (
    brute_force_spikes,
    grad_check,
    gradient_params,
    pairwise_auc,
    planted_dataset,
    price_csv_text,
    train_one,
)

CLOCK = lambda: "2026-01-01T00:00:00+00:00"


def _verdict(capsys, num, desc, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def _draw_differentiable_batch(rng, params):
    """Draw a batch whose head ReLU pre-activations stay clear of zero: its
    prices (3, 3, 1), news (3, 3, 2) and targets (3,).

    Central differences are only a valid oracle where the loss is smooth
    across the +-step interval; a pre-activation within ~1e-5 of the kink
    makes the FD quotient measure the kink, not the derivative. Redraw
    (deterministically, from the continuing rng) until every unit sits at
    least 1e-3 away, two orders of magnitude beyond the step's reach.
    """
    for _ in range(64):
        draws = [
            (rng.normal(size=(3, 1)), rng.normal(size=(3, 2)),
             int(rng.integers(0, 2)))
            for _ in range(3)
        ]
        prices, news = (np.stack([d[j] for d in draws]) for j in (0, 1))
        margin = min(
            float(np.abs(forward_batch(prices[i : i + 1], news[i : i + 1],
                                       params)[1]["head"]["pre"]).min())
            for i in range(len(draws))
        )
        if margin > 1e-3:
            return prices, news, np.array([t for _, _, t in draws])
    raise AssertionError("no kink-free batch found in 64 draws")


def test_criterion_01_gradient_correctness(capsys):
    hyper_base = ModelHyper(k=3, d_prime=2, h=4, h_a=4, dropout=0.0, seed=0)
    worst = 0.0
    started = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        params = init_model(replace(hyper_base, seed=seed), "full")
        prices, news, targets = _draw_differentiable_batch(rng, params)
        flat = flat_params(params)
        targets = np.array(targets, dtype=float)
        grads, total = gradient_params(params), gradient_params(params)
        total_flat = flat_params(total)

        def loss_and_grads():
            probs, caches = [], []
            for i in range(len(targets)):
                p, c = forward_batch(prices[i : i + 1], news[i : i + 1], params)
                probs.append(p)
                caches.append(c)
            loss, d_preds = bce_loss(np.concatenate(probs), targets)
            total.theta[...] = 0.0
            for i, c in enumerate(caches):
                backward_batch(params, c, d_preds[i : i + 1], out=grads)
                total.theta += grads.theta
            # grad_check keeps the first call's gradients; later calls reuse total.
            return loss, {name: g.copy() for name, g in total_flat.items()}

        worst = max(worst, grad_check(loss_and_grads, flat))
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 1,
        "analytic gradients match finite differences over 20 seeds",
        worst <= 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_attention_invariants(capsys):
    rng = np.random.default_rng(5)
    k, h, h_a = 6, 5, 4

    logits = rng.normal(size=(k, k)) * 3.0
    row_sum_err = float(np.abs(softmax_rows(logits).sum(axis=1) - 1.0).max())
    shift = softmax_rows(logits + rng.normal(size=(k, 1)) * 10.0)
    shift_err = float(np.abs(shift - softmax_rows(logits)).max())

    states = rng.normal(size=(k, h))
    params = init_attention_params(h, h_a, rng)
    _, weights, _ = attention_forward(states, params)
    weight_sum_err = float(np.abs(weights.sum(axis=1) - 1.0).max())

    params.w_q[:] = 0.0
    params.w_k[:] = 0.0
    _, uniform, _ = attention_forward(states, params)
    uniform_exact = bool(np.all(uniform == 1.0 / k))

    ok = (row_sum_err <= 1e-6 and shift_err <= 1e-6
          and weight_sum_err <= 1e-6 and uniform_exact)
    _verdict(
        capsys, 2,
        "attention rows sum to 1, logit shifts cancel, zero Q/K is uniform",
        ok,
        f"row sum err {row_sum_err:.1e}, shift err {shift_err:.1e}, "
        f"uniform exact={uniform_exact}",
    )


def test_criterion_03_pca_matches_eigendecomposition(capsys):
    worst_proj = 0.0
    worst_ortho = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 2.0, size=8)
        rows = rng.normal(size=(80, 8)) * scales
        basis = fit_pca(rows, 4)

        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / rows.shape[0]
        eigvals, eigvecs = np.linalg.eigh(cov)
        oracle = eigvecs[:, np.argsort(eigvals)[::-1][:4]]

        p_impl = basis.components @ basis.components.T
        p_oracle = oracle @ oracle.T
        worst_proj = max(worst_proj, float(np.abs(p_impl - p_oracle).max()))
        gram = basis.components.T @ basis.components
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(4)).max()))
    _verdict(
        capsys, 3,
        "PCA equals the covariance-eigendecomposition oracle on 50 datasets",
        worst_proj <= 1e-6 and worst_ortho <= 1e-8,
        f"worst projector diff {worst_proj:.1e}, worst W'W-I {worst_ortho:.1e}",
    )


def test_criterion_04_auc_equals_pairwise_oracle(capsys):
    rng = np.random.default_rng(17)
    grid = np.array([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0])
    exact = 0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        scores = rng.choice(grid, size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both classes always present
        if roc_auc(scores, labels) == pairwise_auc(scores, labels):
            exact += 1
    _verdict(
        capsys, 4,
        "rank-based AUC equals the O(n^2) pairwise oracle exactly",
        exact == 100,
        f"{exact}/100 instances exactly equal",
    )


def test_criterion_05_spike_labels_match_brute_force(capsys):
    rng = np.random.default_rng(23)
    agree = 0
    for _ in range(100):
        m = int(rng.integers(4, 60))
        values = rng.uniform(5.0, 50.0, size=m)
        jumps = rng.random(m) < 0.3
        values[jumps] *= rng.uniform(1.1, 1.6, size=int(jumps.sum()))
        series = PriceSeries(commodity="avg", years=range(1960, 1960 + m),
                             values=values)
        got = label_spikes(series).as_dict()
        want = {1960 + i: v for i, v in brute_force_spikes(values).items()}
        agree += got == want

    boundary = PriceSeries(commodity="avg", years=(1960, 1961, 1962),
                           values=[100.0, 125.0, 156.3])
    labels = label_spikes(boundary).as_dict()
    boundary_ok = labels == {1961: 0, 1962: 1}  # exactly +25% is not a spike
    _verdict(
        capsys, 5,
        "spike labels match the elementwise threshold rule, strict at +25%",
        agree == 100 and boundary_ok,
        f"{agree}/100 series equal, boundary [100,125]->0: {boundary_ok}",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_06_news_ablation_direction(capsys):
    started = time.perf_counter()
    ds = planted_dataset(n=64, d=12, seed=0, rule="direct", amplitude=3.0,
                         noise=0.05, flat_prices=True)
    samples = make_windows(ds, 4)
    config = TrainConfig(h=8, h_a=8, dropout=0.0, alpha=2e-2, batch_size=2, epochs=120,
                         patience=120, seed=0)
    folds = fold_set(samples, time_series_split(len(samples), 4), 6)
    full = run_cv(folds, "full", config)
    no_news = run_cv(folds, "no_news", config)
    elapsed = time.perf_counter() - started
    full_auc = full.mean["auc"]
    no_news_auc = no_news.mean["auc"]
    ok = (full_auc >= 0.85 and full_auc >= no_news_auc + 0.20
          and elapsed < 300.0)
    _verdict(
        capsys, 6,
        "planted news signal: full model beats the no-news ablation",
        ok,
        f"AUC full {full_auc:.3f} vs no_news {no_news_auc:.3f}, {elapsed:.0f}s",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_07_early_stopping_contract(capsys):
    ds = planted_dataset(n=40, d=4, seed=3)
    samples = make_windows(ds, 3)
    config = TrainConfig(h=4, h_a=4, dropout=0.0, alpha=5e-2, batch_size=4, epochs=60,
                         patience=5, seed=1)
    best, history = train_one(samples, config, "full")

    vals = [v for _, _, v in history]
    best_epoch = int(np.argmin(vals)) + 1
    halted_in_time = len(history) <= best_epoch + config.patience
    stopped_early = len(history) < config.epochs

    n_val = max(1, math.ceil(config.validation_fraction * len(samples)))
    val_tail = samples[len(samples) - n_val:]
    reproduces = evaluate_loss(best, val_tail) == min(vals)
    _verdict(
        capsys, 7,
        "training halts within patience of the best epoch and returns it",
        halted_in_time and stopped_early and reproduces,
        f"halted {len(history)}/{config.epochs} epochs, best at {best_epoch}, "
        f"best val loss reproduced exactly: {reproduces}",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_08_leakage_guards(capsys):
    ds = planted_dataset(n=40, d=6, seed=4)
    samples = make_windows(ds, 3)
    config = TrainConfig(h=4, h_a=4, dropout=0.0, alpha=1e-2, batch_size=8, epochs=2,
                         patience=2, seed=0)
    plan = time_series_split(len(samples), 4)
    folds = fold_set(samples, plan, 3)
    reports = [run_cv(folds, "full", config), baseline_logreg(folds)]

    chronology_ok = True
    basis_ok = True
    for report in reports:
        for fold, ((tr_lo, tr_hi), (te_lo, te_hi)) in zip(report.folds, plan.folds):
            train_s = samples[tr_lo:tr_hi]
            test_s = samples[te_lo:te_hi]
            if not (train_s.anchor_years.max() < test_s.anchor_years.min()):
                chronology_ok = False
            if fold.train_anchor_span[1] >= fold.test_anchor_span[0]:
                chronology_ok = False
            years, basis = fit_fold_pca(train_s, 3)
            if (years != fold.pca_train_years
                    or basis.components.tobytes() != fold.pca_basis.components.tobytes()
                    or basis.mean.tobytes() != fold.pca_basis.mean.tobytes()
                    or basis.explained_variance.tobytes()
                        != fold.pca_basis.explained_variance.tobytes()):
                basis_ok = False
    _verdict(
        capsys, 8,
        "every fold trains strictly before its test block, PCA from train only",
        chronology_ok and basis_ok,
        f"chronology={chronology_ok}, stored bases bit-identical={basis_ok}",
    )


def test_criterion_09_agent_loop_bounds(capsys, tmp_path):
    years = (1960, 1961, 1962)
    reject = MockBackend(seed=7, verdict_mode="reject")
    store_path = tmp_path / "rejected.jsonl"
    with pytest.warns(UserWarning):
        orchestrate(AgentConfig(years=years, max_retries=5), reject,
                    SummaryStore(store_path), CLOCK)
    bounded = all(reject.generate_calls[y] == 5 for y in years)
    empty = (not SummaryStore(store_path).verified_years()
             and store_path.read_bytes() == b"")

    scripted = MockBackend(seed=7, verdict_mode="scripted",
                           accept_after={1961: 2})
    result = orchestrate(AgentConfig(years=years), scripted,
                         SummaryStore(tmp_path / "scripted.jsonl"), CLOCK)
    retries_ok = result[1961].retries == 2 and result[1960].retries == 0

    paths = []
    for run in ("a", "b"):
        path = tmp_path / f"det-{run}.jsonl"
        orchestrate(AgentConfig(years=years), MockBackend(seed=7),
                    SummaryStore(path), CLOCK)
        paths.append(path.read_bytes())
    deterministic = paths[0] == paths[1]
    _verdict(
        capsys, 9,
        "retry budget is exact, skip leaves no records, mock runs repeat",
        bounded and empty and retries_ok and deterministic,
        f"5-call bound={bounded}, empty store={empty}, retries==2={retries_ok}, "
        f"byte-identical reruns={deterministic}",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_10_pipeline_reproducibility(capsys, tmp_path):
    def pipeline(root):
        root.mkdir()
        prices = root / "prices.csv"
        prices.write_text(price_csv_text(n=30))
        steps = [
            ["distill", "--years", "1960:1989", "--mock-dim", "8",
             "--out", root / "distill"],
            ["embed", "--summaries", root / "distill" / "summaries.jsonl",
             "--mock-dim", "8", "--out", root / "embed"],
            ["label", "--in", prices, "--out", root / "label"],
            ["train", "--prices", prices,
             "--labels", root / "label" / "labels.csv",
             "--embeddings", root / "embed" / "embeddings.jsonl",
             "--k", "3", "--dim", "3", "--h", "4", "--h-a", "4",
             "--epochs", "4", "--patience", "4", "--dropout", "0.0",
             "--out", root / "train"],
            ["ablate", "--prices", prices,
             "--labels", root / "label" / "labels.csv",
             "--embeddings", root / "embed" / "embeddings.jsonl",
             "--k", "3", "--dim", "3", "--h", "4", "--h-a", "4",
             "--epochs", "3", "--patience", "3", "--dropout", "0.0",
             "--variants", "full,no_news,logreg", "--folds", "3",
             "--out", root / "ablate"],
        ]
        for argv in steps:
            assert cli_main([str(a) for a in argv]) == 0, argv
        return {
            "summaries": (root / "distill" / "summaries.jsonl").read_bytes(),
            "embeddings": (root / "embed" / "embeddings.jsonl").read_bytes(),
            "labels": (root / "label" / "labels.csv").read_bytes(),
            "checkpoint": (root / "train" / "checkpoint.json").read_bytes(),
            "report": (root / "ablate" / "report.csv").read_bytes(),
            "summary": (root / "ablate" / "summary.json").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    mismatched = [name for name in first if first[name] != second[name]]
    _verdict(
        capsys, 10,
        "two same-seed pipeline runs produce byte-identical artifacts",
        not mismatched,
        "all artifacts identical" if not mismatched
        else f"differ: {', '.join(mismatched)}",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_11_beats_linear_baseline_on_xor(capsys):
    ds = planted_dataset(n=64, d=12, seed=1, rule="xor", amplitude=3.0,
                         noise=0.05, flat_prices=True)
    samples = make_windows(ds, 2)
    config = TrainConfig(h=12, h_a=8, dropout=0.0, alpha=2e-2, batch_size=2, epochs=150,
                         patience=150, seed=0)
    folds = fold_set(samples, time_series_split(len(samples), 3), 6)
    full = run_cv(folds, "full", config)
    base = baseline_logreg(folds)
    full_auc = full.mean["auc"]
    base_auc = base.mean["auc"]
    _verdict(
        capsys, 11,
        "dual-stream model beats logistic regression on a nonlinear rule",
        full_auc >= base_auc + 0.15,
        f"AUC full {full_auc:.3f} vs logreg {base_auc:.3f}",
    )
