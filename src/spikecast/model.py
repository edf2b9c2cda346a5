"""Dual-stream spike forecaster: windowing, training loop, checkpoints.

A price window and a news-embedding window are processed by two independent
LSTMs; the news states pass through single-head attention; the final price
state and the news context vector are concatenated and classified by a
dense/ReLU/dropout/sigmoid head. Ablation variants reuse the same wiring
with pieces removed.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    InsufficientDataError,
    NumericError,
)
from .ingest import AlignedDataset
from .nn import (
    AttentionParams,
    HeadParams,
    LstmParams,
    attention_backward,
    attention_forward,
    bce_loss,
    head_backward,
    head_forward,
    init_attention_params,
    init_head_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
)
from .nn.optim import adam_step, clip_global_norm, init_adam
from .pca import PcaBasis, transform_rows

CHECKPOINT_FORMAT = "spikecast-checkpoint/2"

VARIANT_FULL = "full"
VARIANT_NO_ATTENTION = "no_attention"
VARIANT_NO_PCA = "no_pca"
VARIANT_NO_NEWS = "no_news"
VARIANTS = (VARIANT_FULL, VARIANT_NO_ATTENTION, VARIANT_NO_PCA, VARIANT_NO_NEWS)


@dataclass(frozen=True)
class WindowedSample:
    """One training triple: k past prices, k past news vectors, next-step label."""

    prices: np.ndarray        # (k, 1)
    news: np.ndarray          # (k, d); raw embeddings until reduced
    target: int               # spike label for the step after the window
    anchor_year: int          # last year inside the window
    years: tuple[int, ...]    # all years inside the window

    @property
    def k(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class ModelHyper:
    """Architecture knobs recorded inside every checkpoint."""

    k: int
    d_prime: int              # width of the news window the model consumes
    h: int = 32
    h_a: int = 32
    dropout: float = 0.3
    seed: int = 0


@dataclass
class ModelParams:
    """Complete trainable state of one model variant."""

    hyper: ModelHyper
    variant: str
    price_lstm: LstmParams
    head: HeadParams
    news_lstm: LstmParams | None = None
    attention: AttentionParams | None = None
    pca: PcaBasis | None = None
    norm_stats: dict[str, tuple[float, float]] | None = None


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1e-3
    batch_size: int = 8
    epochs: int = 100
    patience: int = 10
    weight_decay: float = 1e-4
    seed: int = 0
    validation_fraction: float = 0.15
    pos_weight: float | None = None
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 < self.validation_fraction < 0.5:
            raise ConfigError("validation_fraction must be in (0, 0.5)")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


def make_windows(dataset: AlignedDataset, k: int) -> list[WindowedSample]:
    """Slide a length-k window over the aligned years.

    Produces exactly T - k samples; each window's target is the label of the
    step immediately after it.
    """
    t_len = len(dataset)
    if k < 1:
        raise ConfigError("window size k must be >= 1")
    if t_len <= k:
        raise InsufficientDataError(
            f"need more than k={k} aligned steps, got {t_len}"
        )
    samples = []
    for i in range(k - 1, t_len - 1):
        lo = i - k + 1
        samples.append(
            WindowedSample(
                prices=dataset.prices[lo : i + 1].reshape(k, 1).copy(),
                news=dataset.embeddings[lo : i + 1].copy(),
                target=int(dataset.labels[i + 1]),
                anchor_year=int(dataset.years[i]),
                years=tuple(dataset.years[lo : i + 1]),
            )
        )
    return samples


def reduce_samples(
    samples: list[WindowedSample], basis: PcaBasis
) -> list[WindowedSample]:
    """Project every sample's news window onto a fitted PCA basis."""
    return [replace(s, news=transform_rows(basis, s.news)) for s in samples]


def init_model(
    hyper: ModelHyper,
    variant: str = VARIANT_FULL,
    pca: PcaBasis | None = None,
    norm_stats: dict[str, tuple[float, float]] | None = None,
) -> ModelParams:
    """Seeded parameter initialization sized for the requested variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(hyper.seed)
    price_lstm = init_lstm_params(1, hyper.h, rng)
    news_lstm = None
    attention = None
    if variant == VARIANT_NO_NEWS:
        fused = hyper.h
    elif variant == VARIANT_NO_ATTENTION:
        news_lstm = init_lstm_params(hyper.d_prime, hyper.h, rng)
        fused = hyper.h + hyper.h  # context = temporal mean of news states
    else:
        news_lstm = init_lstm_params(hyper.d_prime, hyper.h, rng)
        attention = init_attention_params(hyper.h, hyper.h_a, rng)
        fused = hyper.h + hyper.h_a
    head = init_head_params(fused, hyper.h, hyper.dropout, rng)
    return ModelParams(
        hyper=hyper, variant=variant, price_lstm=price_lstm, head=head,
        news_lstm=news_lstm, attention=attention, pca=pca,
        norm_stats=norm_stats,
    )


def flat_params(params: ModelParams) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed component.field."""
    flat = {f"price_lstm.{n}": a for n, a in params.price_lstm.arrays().items()}
    if params.news_lstm is not None:
        flat.update({f"news_lstm.{n}": a for n, a in params.news_lstm.arrays().items()})
    if params.attention is not None:
        flat.update({f"attention.{n}": a for n, a in params.attention.arrays().items()})
    flat.update({f"head.{n}": a for n, a in params.head.arrays().items()})
    return flat


def zero_params(params: ModelParams) -> ModelParams:
    """Zero every trainable array in place (testing aid). Returns params."""
    for arr in flat_params(params).values():
        arr[:] = 0.0
    return params


def stack_windows(
    samples: list[WindowedSample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, k, 1) prices, (B, k, d) news and (B,) float targets of a sample list."""
    return (
        np.stack([s.prices for s in samples]),
        np.stack([s.news for s in samples]),
        np.array([s.target for s in samples], dtype=float),
    )


def forward_batch(
    prices: np.ndarray,
    news: np.ndarray,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Spike probabilities (B,) for stacked windows, with caches for backprop.

    `prices` is (B, k, 1) and `news` (B, k, d'); the no_news variant ignores
    `news`. Each window's probability is the same in any batch.
    """
    hyper = params.hyper
    if prices.shape[1:] != (hyper.k, 1):
        raise ContractError(
            f"price window shape {prices.shape[1:]}, expected {(hyper.k, 1)}"
        )
    _, h_price, price_cache = lstm_forward(prices, params.price_lstm)
    if not np.isfinite(h_price).all():
        raise NumericError("non-finite value in price LSTM output")

    cache: dict = {"price": price_cache}
    if params.variant == VARIANT_NO_NEWS:
        fused = h_price
    else:
        if news.shape[1:] != (hyper.k, hyper.d_prime):
            raise ContractError(
                f"news window shape {news.shape[1:]}, "
                f"expected {(hyper.k, hyper.d_prime)}"
            )
        news_hs, _, news_cache = lstm_forward(news, params.news_lstm)
        cache["news"] = news_cache
        if params.variant == VARIANT_NO_ATTENTION:
            context = news_hs.mean(axis=1)
        else:
            context, _, att_cache = attention_forward(news_hs, params.attention)
            cache["attention"] = att_cache
        if not np.isfinite(context).all():
            raise NumericError("non-finite value in news context vector")
        fused = np.concatenate([h_price, context], axis=1)

    prob, head_cache = head_forward(fused, params.head, train=train, rng=rng)
    cache["head"] = head_cache
    return prob, cache


def backward_batch(
    params: ModelParams, cache: dict, d_prob: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients for every trainable array, summed over the batch, given
    dLoss/dprobability (B,)."""
    hyper = params.hyper
    head_grads, d_fused = head_backward(params.head, cache["head"], d_prob)
    grads = {f"head.{n}": g for n, g in head_grads.items()}

    batch = d_fused.shape[0]
    if params.variant != VARIANT_NO_NEWS:
        d_context = d_fused[:, hyper.h :]
        k = hyper.k
        if params.variant == VARIANT_NO_ATTENTION:
            d_news_hs = np.broadcast_to(
                d_context[:, None, :] / k, (batch, k, d_context.shape[1])
            )
        else:
            att_grads, d_news_hs = attention_backward(
                params.attention, cache["attention"], d_context
            )
            grads.update({f"attention.{n}": g for n, g in att_grads.items()})
        news_grads = lstm_backward(params.news_lstm, cache["news"], d_news_hs)
        grads.update({f"news_lstm.{n}": g for n, g in news_grads.items()})

    d_price_hs = np.zeros((batch, hyper.k, hyper.h))
    d_price_hs[:, -1] = d_fused[:, : hyper.h]
    price_grads = lstm_backward(params.price_lstm, cache["price"], d_price_hs)
    grads.update({f"price_lstm.{n}": g for n, g in price_grads.items()})
    return grads


def model_forward(
    sample: WindowedSample,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    """Spike probability for one sample: forward_batch with B = 1."""
    prob, cache = forward_batch(
        sample.prices[None], sample.news[None], params, train=train, rng=rng
    )
    return float(prob[0]), cache


def model_backward(
    params: ModelParams, cache: dict, d_prob: float
) -> dict[str, np.ndarray]:
    """Gradients for one sample's model_forward cache: backward_batch, B = 1."""
    return backward_batch(params, cache, np.array([d_prob], dtype=float))


def evaluate_loss(
    params: ModelParams,
    samples: list[WindowedSample],
    pos_weight: float | None = None,
) -> float:
    """Deterministic (inference-mode) BCE over a sample list."""
    targets = np.array([s.target for s in samples], dtype=float)
    loss, _ = bce_loss(predict(params, samples), targets, pos_weight)
    return loss


def predict(params: ModelParams, samples: list[WindowedSample]) -> np.ndarray:
    """Order-preserving spike probabilities with dropout disabled."""
    if not samples:
        return np.empty(0)
    prices, news, _ = stack_windows(samples)
    return forward_batch(prices, news, params)[0]


def train(
    samples: list[WindowedSample],
    config: TrainConfig,
    hyper: ModelHyper | None = None,
    variant: str = VARIANT_FULL,
    pca: PcaBasis | None = None,
    norm_stats: dict[str, tuple[float, float]] | None = None,
) -> tuple[ModelParams, list[tuple[int, float, float]]]:
    """Mini-batch Adam on BCE with early stopping on a chronological tail.

    The last `validation_fraction` of `samples` (which must be in
    chronological order) is held out for validation and never shuffled into
    training. Returns the best-validation-loss parameters and the per-epoch
    (epoch, train_loss, val_loss) history. Fully reproducible given
    config.seed.
    """
    n = len(samples)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 samples to train, got {n}")
    anchors = [s.anchor_year for s in samples]
    if anchors != sorted(anchors):
        raise ContractError("samples must be ordered chronologically")

    k = samples[0].k
    d_in = samples[0].news.shape[1]
    if hyper is None:
        hyper = ModelHyper(k=k, d_prime=d_in)
    hyper = replace(hyper, k=k, d_prime=d_in, seed=config.seed)

    n_val = max(1, math.ceil(config.validation_fraction * n))
    n_train = n - n_val
    if n_train < 1:
        raise InsufficientDataError("validation split leaves no training samples")
    train_part = samples[:n_train]
    val_part = samples[n_train:]

    train_prices, train_news, train_targets = stack_windows(train_part)
    if len(set(train_targets)) < 2:
        warnings.warn(
            "degenerate targets: training partition is single-class; "
            "training proceeds but the classifier cannot rank",
            stacklevel=2,
        )

    params = init_model(hyper, variant, pca=pca, norm_stats=norm_stats)
    flat = flat_params(params)
    state = init_adam(
        flat,
        alpha=config.alpha,
        weight_decay=config.weight_decay,
        decay_keys={"head.w1", "head.w2"},
    )
    rng = np.random.default_rng(config.seed)

    history: list[tuple[int, float, float]] = []
    best_val = math.inf
    best = {name: arr.copy() for name, arr in flat.items()}
    epochs_since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = order[start : start + config.batch_size]
            probs, cache = forward_batch(
                train_prices[batch], train_news[batch], params, train=True, rng=rng
            )
            loss, d_preds = bce_loss(probs, train_targets[batch], config.pos_weight)
            loss_sum += loss * len(batch)
            grads = backward_batch(params, cache, d_preds)
            clip_global_norm(grads, config.clip_norm)
            adam_step(flat, grads, state)

        train_loss = loss_sum / n_train
        val_loss = evaluate_loss(params, val_part, config.pos_weight)
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = {name: arr.copy() for name, arr in flat.items()}
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    for name, arr in flat.items():
        arr[...] = best[name]
    return params, history


def write_history_csv(history: list[tuple[int, float, float]], path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{e},{tr!r},{va!r}" for e, tr, va in history]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- checkpoint serialization -------------------------------------------------

def _encode_array(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=float)
    return {"shape": list(a.shape), "data": [float(x) for x in a.reshape(-1)]}


def _decode_array(obj, name: str) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError):
        raise CheckpointIntegrityError(f"malformed array record for {name!r}") from None
    expected = int(np.prod(shape)) if shape else 1
    if len(data) != expected:
        raise CheckpointIntegrityError(
            f"array {name!r}: shape {shape} wants {expected} values, got {len(data)}"
        )
    arr = np.asarray(data, dtype=float).reshape(shape)
    if not np.isfinite(arr).all():
        raise CheckpointIntegrityError(f"array {name!r} contains non-finite values")
    return arr


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned JSON checkpoint; save -> load -> save is byte-identical.

    Every trainable array is stored under its flat_params name.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "variant": params.variant,
        "hyper": {
            "k": params.hyper.k,
            "d_prime": params.hyper.d_prime,
            "h": params.hyper.h,
            "h_a": params.hyper.h_a,
            "dropout": params.hyper.dropout,
            "seed": params.hyper.seed,
        },
        "pca": None,
        "head_dropout": params.head.dropout,
        "norm_stats": None,
        "arrays": {
            name: _encode_array(arr) for name, arr in flat_params(params).items()
        },
    }
    if params.pca is not None:
        doc["pca"] = {
            "mean": _encode_array(params.pca.mean),
            "components": _encode_array(params.pca.components),
            "explained_variance": _encode_array(params.pca.explained_variance),
            "fitted_on": params.pca.fitted_on,
        }
    if params.norm_stats is not None:
        doc["norm_stats"] = {
            name: {"mean": float(m), "std": float(s)}
            for name, (m, s) in params.norm_stats.items()
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint, with integrity and version validation.

    Every trainable array must be present with the shape that
    init_model(hyper, variant) gives it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointIntegrityError(f"truncated or invalid checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointVersionError(
            f"checkpoint is a JSON {type(doc).__name__}, "
            f"not a {CHECKPOINT_FORMAT!r} object"
        )
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointVersionError(
            f"unsupported checkpoint format {doc.get('format')!r}; "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    try:
        hyper = ModelHyper(**doc["hyper"])
        variant = doc["variant"]
    except (KeyError, TypeError) as exc:
        raise CheckpointIntegrityError(f"malformed checkpoint header: {exc}") from None
    if variant not in VARIANTS:
        raise CheckpointIntegrityError(f"unknown variant {variant!r}")

    pca = None
    norm_stats = None
    try:
        if doc.get("pca") is not None:
            p = doc["pca"]
            pca = PcaBasis(
                mean=_decode_array(p["mean"], "pca.mean"),
                components=_decode_array(p["components"], "pca.components"),
                explained_variance=_decode_array(p["explained_variance"],
                                                 "pca.explained_variance"),
                fitted_on=int(p["fitted_on"]),
            )
        if doc.get("norm_stats") is not None:
            norm_stats = {
                name: (float(rec["mean"]), float(rec["std"]))
                for name, rec in doc["norm_stats"].items()
            }
        params = init_model(hyper, variant, pca=pca, norm_stats=norm_stats)
        params.head = replace(params.head,
                              dropout=float(doc.get("head_dropout", 0.0)))
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise CheckpointIntegrityError(f"malformed checkpoint: {exc!r}") from None

    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        raise CheckpointIntegrityError("checkpoint has no 'arrays' object")
    for name, arr in flat_params(params).items():
        if name not in arrays:
            raise CheckpointIntegrityError(f"missing array {name!r}")
        loaded = _decode_array(arrays[name], name)
        if loaded.shape != arr.shape:
            raise CheckpointIntegrityError(
                f"array {name!r}: shape {loaded.shape}, model wants {arr.shape}"
            )
        arr[...] = loaded
    return params
