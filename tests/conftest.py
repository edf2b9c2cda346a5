"""Shared synthetic data builders and brute-force oracles."""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spikecast.errors import (
    AlignmentError,
    ContractError,
    NumericError,
    UndefinedMetricError,
)
from spikecast.evaluation import (
    classification_metrics,
    fit_fold_pca,
    roc_auc,
    sample_features,
    write_roc_csv,
)
from spikecast.ingest import AlignedDataset
from spikecast.model import (
    PCA_VARIANTS,
    _bind,
    flat_params,
    init_model,
    predict,
    reduce_samples,
    train,
)
from spikecast.nn import LstmStreams
from spikecast.nn.ops import sigmoid


def brute_force_spikes(values: np.ndarray, threshold_pct: float = 25.0):
    """Element-wise spike rule, written as the definition reads.

    Returns {index: label} for every index whose predecessor is a usable
    positive price.
    """
    out = {}
    for i in range(1, len(values)):
        prev, cur = values[i - 1], values[i]
        if np.isnan(prev) or np.isnan(cur) or prev <= 0:
            continue
        pct = (cur - prev) / prev * 100.0
        out[i] = 1 if pct > threshold_pct else 0
    return out


def pairwise_auc(scores, labels) -> float:
    """O(n^2) concordance count, the definitional AUC."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def zero_params(params):
    """Zero every trainable array of a ModelParams in place. Returns params."""
    params.theta[...] = 0.0
    return params


def stack_streams(lstms) -> LstmStreams:
    """The LstmStreams of separate LstmParams: their own w arrays, and their
    u and b copied into stacked arrays."""
    if not lstms or len({p.hidden_size for p in lstms}) != 1:
        raise ContractError(f"hidden sizes {[p.hidden_size for p in lstms]}; "
                            "streams need one shared hidden size")
    return LstmStreams(tuple(p.w for p in lstms), np.stack([p.u for p in lstms]),
                       np.stack([p.b for p in lstms]))


def run_backward(backward, params, *args):
    """Call a layer's backward (head, attention or LSTM) with fresh gradient
    arrays shaped like `params`. Returns (the gradients, in a params object
    of the same type, what the backward returns)."""
    if isinstance(params, LstmStreams):
        out = LstmStreams(tuple(np.empty_like(w) for w in params.w),
                          np.empty_like(params.u), np.empty_like(params.b))
    else:
        out = type(params)(*(np.empty_like(a) for a in params.arrays().values()))
    return out, backward(params, *args, out=out)


def gradient_params(params):
    """A ModelParams of params' layout bound to a fresh gradient vector, for
    backward_batch to write into."""
    return _bind(params, np.empty_like(params.theta))


def flat_order_clip(hyper, variant):
    """clip_global_norm for a model of (hyper, variant), with the norm summed
    over the gradients in flat_params order instead of theta order: the
    clipping of a layout in which theta is the flat_params concatenation."""
    index = init_model(hyper, variant)
    index.theta[...] = np.arange(index.theta.size)
    order = np.concatenate([a.ravel() for a in flat_params(index).values()]).astype(np.intp)

    def clip(grad, max_norm):
        flat = grad[order]
        total = float(np.sqrt(flat @ flat))
        if max_norm > 0 and total > max_norm:
            grad *= max_norm / total
        return total

    return clip


def reference_mock_embed(seed: int, dim: int, text: str) -> list[float]:
    """MockBackend.embed one value at a time: each big-endian 8-byte word u
    of sha256("{seed}|emb|{block}|{text}"), block = 0, 1, ..., gives
    u / 2**63 - 1.0 in Python's int division."""
    values: list[float] = []
    block = 0
    while len(values) < dim:
        digest = hashlib.sha256(f"{seed}|emb|{block}|{text}".encode()).digest()
        for i in range(0, len(digest) - 7, 8):
            if len(values) == dim:
                break
            u = int.from_bytes(digest[i : i + 8], "big")
            values.append(u / 2**63 - 1.0)
        block += 1
    return values


def reference_load_embeddings(path) -> list:
    """An embedding store file read one value at a time, as the per-year
    record format reads: one (year, dim, values tuple) record per data line,
    in ascending year order. Expects a well-formed file."""
    lines = [json.loads(line) for line in Path(path).read_text().splitlines()
             if line.strip()]
    records = {}
    for obj in lines[1:]:
        values = tuple(float(v) for v in obj["values"])
        assert len(values) == obj["dim"] == lines[0]["dim"]
        assert all(math.isfinite(v) for v in values)
        records[int(obj["year"])] = SimpleNamespace(
            year=int(obj["year"]), dim=int(obj["dim"]), values=values)
    return [records[y] for y in sorted(records)]


def reference_align_dataset(prices, labels, embeddings) -> AlignedDataset:
    """align_dataset through per-year dicts, on a list of records with
    `year`, `dim` and `values` (see reference_load_embeddings)."""
    price_years = {y: v for y, v in zip(prices.years, prices.values) if not math.isnan(v)}
    label_years = dict(zip(labels.years, labels.labels))
    emb_years = {}
    for e in embeddings:
        assert e.dim == embeddings[0].dim
        emb_years[e.year] = np.asarray(e.values, dtype=float)
    common = sorted(set(price_years) & set(label_years) & set(emb_years))
    if not common:
        raise AlignmentError("no common years")
    return AlignedDataset(
        years=tuple(common),
        prices=np.array([price_years[y] for y in common]),
        labels=np.array([label_years[y] for y in common], dtype=int),
        embeddings=np.vstack([emb_years[y] for y in common]),
    )


def reference_windows(dataset, k: int):
    """make_windows one window at a time, as the definition reads.

    Returns a list of (prices (k, 1), news (k, d), target, anchor_year,
    years) tuples, one per window.
    """
    out = []
    for i in range(k - 1, len(dataset) - 1):
        lo = i - k + 1
        out.append((
            dataset.prices[lo : i + 1].reshape(k, 1).copy(),
            dataset.embeddings[lo : i + 1].copy(),
            int(dataset.labels[i + 1]),
            int(dataset.years[i]),
            tuple(dataset.years[lo : i + 1]),
        ))
    return out


def reference_reduce(windows, basis):
    """reduce_samples on a reference_windows list: one projection per window."""
    return [(p, (news - basis.mean) @ basis.components, t, a, y)
            for p, news, t, a, y in windows]


def reference_unique_year_rows(windows):
    """unique_year_rows on a reference_windows list: first row seen per year."""
    by_year = {}
    for _, news, _, _, years in windows:
        for year, row in zip(years, news):
            by_year.setdefault(year, row)
    years = tuple(sorted(by_year))
    return years, np.array([by_year[y] for y in years])


def reference_holdout(samples, fraction, variant, config, hyper, d_prime,
                      threshold, roc_path) -> dict:
    """The hold-out evaluation written out step by step: slice off the last
    ceil(fraction * n) windows, fit PCA on the training part, train, predict,
    then the metrics. Returns the metrics.json fields after variant and
    fraction, and writes roc.csv to roc_path when the AUC is defined."""
    n_test = math.ceil(fraction * len(samples))
    train_s, test_s = samples[: len(samples) - n_test], samples[len(samples) - n_test :]
    basis = None
    if variant in PCA_VARIANTS:
        _, basis = fit_fold_pca(train_s, d_prime)
    params, _ = train(train_s, config, hyper=hyper, variant=variant, pca=basis)
    scores = predict(params, test_s)
    labels = test_s.targets
    block = classification_metrics(scores, labels, threshold)
    try:
        auc = roc_auc(scores, labels)
        write_roc_csv(scores, labels, roc_path)
    except UndefinedMetricError:
        auc = None
    tp, fp, fn, tn = block.confusion
    return {
        "n_train": len(train_s),
        "n_test": len(test_s),
        "auc": auc,
        "accuracy": block.accuracy,
        "precision_weighted": block.precision_weighted,
        "recall_weighted": block.recall_weighted,
        "f1_weighted": block.f1_weighted,
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "threshold": block.threshold,
    }


def reference_sample_features(windows):
    """sample_features on a reference_windows list, one row per window."""
    return np.array([np.concatenate([p.ravel(), news.mean(axis=0)])
                     for p, news, _, _, _ in windows])


def reference_fit_logreg(x, y, l2=1e-3, lr=0.5, iters=500):
    """The logistic baseline's full-batch descent on one set, as it reads."""
    w, b = np.zeros(x.shape[1]), 0.0
    for _ in range(iters):
        p = sigmoid(x @ w + b)
        resid = (p - y) / y.size
        w -= lr * (x.T @ resid + l2 * w)
        b -= lr * float(resid.sum())
    return w, b


def reference_baseline_scores(samples, plan, d_prime, l2=1e-3, lr=0.5, iters=500):
    """baseline_logreg's test scores fold by fold: PCA on the fold's training
    rows, both parts reduced, a descent on the training features alone, then
    the test features scored."""
    scores = []
    for (tr_lo, tr_hi), (te_lo, te_hi) in plan.folds:
        train_s, test_s = samples[tr_lo:tr_hi], samples[te_lo:te_hi]
        _, basis = fit_fold_pca(train_s, d_prime)
        w, b = reference_fit_logreg(sample_features(reduce_samples(train_s, basis)),
                                    train_s.targets, l2, lr, iters)
        scores.append(sigmoid(sample_features(reduce_samples(test_s, basis)) @ w + b))
    return scores


def reference_lstm_forward(
    sequence: np.ndarray, params
) -> tuple[np.ndarray, np.ndarray, dict]:
    """lstm_forward for one stream, one LSTM per call (the unfused kernel).

    Returns (all hidden states (B, k, h), final hidden states (B, h), cache
    for backprop).
    """
    sequence = np.asarray(sequence, dtype=float)
    if sequence.ndim != 3 or sequence.shape[2] != params.input_size:
        raise ContractError(
            f"sequence batch shape {sequence.shape} does not match "
            f"(B, k, {params.input_size})"
        )
    if not np.isfinite(sequence).all():
        raise NumericError("non-finite value in LSTM input sequence")
    n, k, _ = sequence.shape
    h = params.hidden_size
    w, u, b = params.w, params.u, params.b

    # Input projections of every step at once, in the buffer where each step
    # then writes its activations (o | i | f | g). The loop adds h_prev @ U,
    # then b: the order in which the docstring's recurrence sums them.
    gates = (sequence @ w).swapaxes(0, 1)    # (k, B, 4h): step t is one view
    hs, cs = np.zeros((2, k + 1, n, h))      # step 0: the initial state
    tanh_cs = np.empty((k, n, h))
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    steps = zip(gates, o, i, f, g, hs, hs[1:], cs, cs[1:], tanh_cs)
    for gate, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tc_t in steps:
        # One vector-matrix product per sequence, so a sequence's result
        # does not depend on the size of its batch.
        a = np.vecmat(h_prev, u)
        a += gate
        a += b
        gate[:, : 3 * h] = sigmoid(a[:, : 3 * h])
        np.tanh(a[:, 3 * h :], out=g_t)
        np.multiply(f_t, c_prev, out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)

    cache = {
        "sequence": sequence, "gates": gates,
        "hs": hs, "cs": cs, "tanh_cs": tanh_cs,
    }
    return hs[1:].swapaxes(0, 1), hs[-1].copy(), cache


def reference_lstm_backward(
    params, cache: dict, d_hs: np.ndarray
) -> dict[str, np.ndarray]:
    """lstm_backward for one stream: BPTT given a (B, k, h) d_hs. Returns
    gradients summed over the batch, keyed like LstmParams.arrays()."""
    seq, gates = cache["sequence"], cache["gates"]
    hs, cs, tanh_cs = cache["hs"], cache["cs"], cache["tanh_cs"]
    k, n, h = tanh_cs.shape
    d_hs = np.asarray(d_hs, dtype=float)
    if d_hs.shape != (n, k, h):
        raise ContractError(f"d_hs shape {d_hs.shape}, expected {(n, k, h)}")

    # Everything but the recurrence is elementwise over steps, so it is done
    # for all steps at once: each gate's pre-activation gradient is dh (gate
    # o) or dc (gates i, f, g) times a factor known from the forward pass.
    o, i, f, g = (gates[..., j * h : (j + 1) * h] for j in range(4))
    sig = gates.reshape(k, n, 4, h)[:, :, :3]  # the o, i, f blocks
    factor = np.empty((k, n, 4, h))
    np.multiply(sig, 1.0 - sig, out=factor[:, :, :3])
    factor[:, :, 0] *= tanh_cs
    factor[:, :, 1] *= g
    factor[:, :, 2] *= cs[:-1]
    np.multiply(i, 1.0 - g**2, out=factor[:, :, 3])
    d_tanh_c = o * (1.0 - tanh_cs**2)        # dc contribution of dh
    u_t = params.u.T

    da = np.empty((k, n, 4 * h))             # pre-activation grads o | i | f | g
    da_o = da[..., :h]
    da_ifg = da[..., h:].reshape(k, n, 3, h)
    dh_next = np.zeros((n, h))
    dc_next = np.zeros((n, h))
    steps = list(zip(d_hs.swapaxes(0, 1), d_tanh_c, factor[:, :, 0],
                     factor[:, :, 1:], da, da_o, da_ifg, f))
    for d_hs_t, d_tanh_c_t, fo_t, fifg_t, da_t, da_o_t, da_ifg_t, f_t in steps[::-1]:
        dh = d_hs_t + dh_next
        dc = dc_next + dh * d_tanh_c_t
        np.multiply(dh, fo_t, out=da_o_t)
        np.multiply(dc[:, None], fifg_t, out=da_ifg_t)
        dh_next = da_t @ u_t
        dc_next = dc * f_t

    # Sum over the batch and the steps in one product per array.
    da = da.reshape(k * n, 4 * h)
    return {
        "w": seq.swapaxes(0, 1).reshape(k * n, -1).T @ da,
        "u": hs[:-1].reshape(k * n, h).T @ da,
        "b": da.sum(axis=0),
    }


def assert_same_bits(got, want):
    """Equal shape, dtype kind and bytes: no rounding difference tolerated."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype.kind == want.dtype.kind
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(
        want.astype(got.dtype)).tobytes()


def planted_dataset(
    n: int = 64,
    d: int = 12,
    seed: int = 0,
    rule: str = "direct",
    amplitude: float = 1.5,
    noise: float = 0.3,
    spike_rate: float = 0.35,
    flat_prices: bool = False,
) -> AlignedDataset:
    """Synthetic aligned dataset whose labels are readable only from the news.

    The label of step i+1 is planted into the embedding of step i, so a
    window ending at step i carries exactly the information needed to
    forecast its target. Prices carry no signal: pure noise by default, or
    identically zero with flat_prices=True (which also removes the price
    stream as memorization fuel, isolating the news pathway).

    rule="direct": embedding coordinate 0 of step i is +amplitude when step
    i+1 spikes, else -amplitude.
    rule="xor": coordinates 0 and 1 take random signs and step i+1 spikes
    iff the signs differ — invisible to any linear model.
    """
    rng = np.random.default_rng(seed)
    years = tuple(range(1960, 1960 + n))
    prices = np.zeros(n) if flat_prices else rng.normal(size=n)
    embeddings = rng.normal(0.0, noise, size=(n, d))
    labels = np.zeros(n, dtype=int)
    labels[0] = rng.integers(0, 2)
    if rule == "direct":
        future = (rng.random(n) < spike_rate).astype(int)
        for i in range(n - 1):
            labels[i + 1] = future[i]
            embeddings[i, 0] = amplitude if future[i] else -amplitude
        embeddings[n - 1, 0] = amplitude * (1 if rng.random() < 0.5 else -1)
    elif rule == "xor":
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        for i in range(n - 1):
            labels[i + 1] = int(a[i] != b[i])
        embeddings[:, 0] = amplitude * (2 * a - 1)
        embeddings[:, 1] = amplitude * (2 * b - 1)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return AlignedDataset(
        years=years, prices=prices, labels=labels, embeddings=embeddings
    )


def price_csv_text(n: int = 64, seed: int = 42, missing: tuple[int, ...] = ()) -> str:
    """Random-walk positive prices for three commodities, occasional spikes."""
    rng = np.random.default_rng(seed)
    years = range(1960, 1960 + n)
    lines = ["year,crude_oil,natural_gas,coal"]
    prices = np.array([20.0, 5.0, 40.0])
    for i, y in enumerate(years):
        jump = rng.random() < 0.15
        factor = (1.35 + 0.3 * rng.random()) if jump else (0.95 + 0.2 * rng.random())
        prices = np.abs(prices * factor * (1 + 0.05 * rng.normal(size=3))) + 0.5
        cells = [f"{p:.4f}" for p in prices]
        if y in missing:
            cells[1] = ""
        lines.append(f"{y}," + ",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture
def small_table_text():
    return (
        "year,oil,gas\n"
        "1960,10.0,2.0\n"
        "1961,12.5,2.2\n"
        "1962,20.0,\n"
        "1963,18.0,2.1\n"
        "1964,30.0,2.9\n"
    )
