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
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    LstmStreams,
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
# Variants that read PCA-reduced news: no_pca reads raw news, no_news none.
PCA_VARIANTS = (VARIANT_FULL, VARIANT_NO_ATTENTION)
# Windows per predict forward pass: each chunk's LSTM and attention caches
# are freed before the next, so inference memory does not grow with N.
PREDICT_CHUNK = 16


@dataclass(frozen=True)
class Windows:
    """N training triples, batch-first: k past prices and k past news vectors
    per window, and the label of the step after it."""

    prices: np.ndarray        # (N, k, 1)
    news: np.ndarray          # (N, k, d); raw embeddings until reduced
    targets: np.ndarray       # (N,) int spike labels
    years: np.ndarray         # (N, k) int years inside each window

    # An int index would drop the batch axis, so iteration is refused.
    __iter__ = None

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, idx) -> Windows:
        """The windows at a slice or an index array."""
        return Windows(self.prices[idx], self.news[idx], self.targets[idx],
                       self.years[idx])

    @property
    def k(self) -> int:
        return self.prices.shape[1]

    @property
    def anchor_years(self) -> np.ndarray:
        """(N,) last year inside each window."""
        return self.years[:, -1]


@dataclass(frozen=True)
class ModelHyper:
    """Architecture knobs recorded inside every checkpoint."""

    k: int
    d_prime: int              # width of the news window the model consumes
    h: int = 32
    h_a: int = 32
    dropout: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "d_prime", "h", "h_a"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class ModelParams:
    """Complete trainable state of one model variant. Built only by init_model:
    `theta` holds every trainable value, and every flat_params array is a
    view of it; see _bind for the order of theta. `lstm` holds the variant's
    LSTM streams, price then news; price_lstm and news_lstm view them."""

    hyper: ModelHyper
    variant: str
    lstm: LstmStreams
    head: HeadParams
    attention: AttentionParams | None = None
    pca: PcaBasis | None = None
    norm_stats: dict[str, tuple[float, float]] | None = None
    theta: np.ndarray = field(init=False, repr=False)

    @property
    def price_lstm(self) -> LstmParams:
        return self.lstm.stream(0)

    @property
    def news_lstm(self) -> LstmParams | None:
        return self.lstm.stream(1) if len(self.lstm.w) > 1 else None


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
        # Each bound also rejects NaN, and `< math.inf` rejects infinity.
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.clip_norm < math.inf:  # 0: no clipping
            raise ConfigError(f"clip_norm must be finite and >= 0, got {self.clip_norm}")
        if self.pos_weight is not None and not 0.0 < self.pos_weight < math.inf:
            raise ConfigError(f"pos_weight must be finite and > 0, got {self.pos_weight}")


def make_windows(dataset: AlignedDataset, k: int) -> Windows:
    """Slide a length-k window over the aligned years.

    Produces exactly T - k windows; each window's target is the label of the
    step immediately after it. The arrays are copies, not views of dataset.
    """
    t_len = len(dataset)
    if k < 1:
        raise ConfigError("window size k must be >= 1")
    if t_len <= k:
        raise InsufficientDataError(
            f"need more than k={k} aligned steps, got {t_len}"
        )

    def slide(a: np.ndarray) -> np.ndarray:
        """(T, ...) -> (T - k, k, ...): window i holds a[i : i + k]."""
        return np.moveaxis(sliding_window_view(a[:-1], k, axis=0), -1, 1).copy()

    return Windows(
        prices=slide(dataset.prices.reshape(-1, 1)),
        news=slide(dataset.embeddings),
        targets=np.array(dataset.labels[k:], dtype=int),
        years=slide(np.array(dataset.years, dtype=int)),
    )


def reduce_samples(windows: Windows, basis: PcaBasis) -> Windows:
    """Project every window's news onto a fitted PCA basis."""
    return replace(windows, news=transform_rows(basis, windows.news))


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
    lstms = [init_lstm_params(1, hyper.h, rng)]  # price, then news
    attention = None
    if variant == VARIANT_NO_NEWS:
        fused = hyper.h
    elif variant == VARIANT_NO_ATTENTION:
        lstms.append(init_lstm_params(hyper.d_prime, hyper.h, rng))
        fused = hyper.h + hyper.h  # context = temporal mean of news states
    else:
        lstms.append(init_lstm_params(hyper.d_prime, hyper.h, rng))
        attention = init_attention_params(hyper.h, hyper.h_a, rng)
        fused = hyper.h + hyper.h_a
    head = init_head_params(fused, hyper.h, hyper.dropout, rng)
    drawn = ModelParams(
        hyper=hyper, variant=variant,
        lstm=LstmStreams(tuple(p.w for p in lstms), np.stack([p.u for p in lstms]),
                         np.stack([p.b for p in lstms])),
        head=head, attention=attention, pca=pca, norm_stats=norm_stats,
    )
    flat = flat_params(drawn)
    params = _bind(drawn, np.empty(sum(arr.size for arr in flat.values())))
    for name, arr in flat_params(params).items():
        arr[...] = flat[name]
    return params


def _bind(params: ModelParams, theta: np.ndarray) -> ModelParams:
    """A ModelParams like `params` whose trainable arrays are views of the
    vector `theta`, which holds them in this order: each LSTM stream's w,
    then every stream's u, then every stream's b, then attention and head
    as flat_params lists them. So `lstm.u` and `lstm.b` are single (S, h, 4h)
    and (S, 4h) views. Binding a gradient vector gives gradient views of the
    same names and layout. This is the one place the order is written."""
    cursor = 0

    def take(shape):
        nonlocal cursor
        start, cursor = cursor, cursor + math.prod(shape)
        return theta[start:cursor].reshape(shape)

    lstm = params.lstm
    bound = replace(params, lstm=LstmStreams(
        tuple(take(w.shape) for w in lstm.w), take(lstm.u.shape), take(lstm.b.shape)))
    for name in ("attention", "head"):
        part = getattr(params, name)
        if part is not None:
            setattr(bound, name, replace(part, **{
                attr: take(arr.shape) for attr, arr in part.arrays().items()}))
    if cursor != theta.size:
        raise ContractError(f"theta has {theta.size} values, the model {cursor}")
    bound.theta = theta
    return bound


def flat_params(params: ModelParams) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed component.field."""
    flat = {f"price_lstm.{n}": a for n, a in params.price_lstm.arrays().items()}
    if params.news_lstm is not None:
        flat.update({f"news_lstm.{n}": a for n, a in params.news_lstm.arrays().items()})
    if params.attention is not None:
        flat.update({f"attention.{n}": a for n, a in params.attention.arrays().items()})
    flat.update({f"head.{n}": a for n, a in params.head.arrays().items()})
    return flat


def forward_batch(
    prices: np.ndarray,
    news: np.ndarray,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Spike probabilities (B,) for stacked windows, with caches for backprop.

    `prices` is (B, k, 1) and `news` (B, k, d'); the no_news variant ignores
    `news`. The price and news LSTMs run as one two-stream recurrence. Each
    window's probability is the same in any batch.
    """
    hyper = params.hyper
    if prices.shape[1:] != (hyper.k, 1):
        raise ContractError(
            f"price window shape {prices.shape[1:]}, expected {(hyper.k, 1)}"
        )
    streams = (prices,) if params.variant == VARIANT_NO_NEWS else (prices, news)
    if len(streams) == 2 and news.shape[1:] != (hyper.k, hyper.d_prime):
        raise ContractError(f"news window shape {news.shape[1:]}, "
                            f"expected {(hyper.k, hyper.d_prime)}")
    hs, (h_price, *_), lstm_cache = lstm_forward(streams, params.lstm)
    if not np.isfinite(h_price).all():
        raise NumericError("non-finite value in price LSTM output")

    cache: dict = {"lstm": lstm_cache}
    if params.variant == VARIANT_NO_NEWS:
        fused = h_price
    else:
        if params.variant == VARIANT_NO_ATTENTION:
            context = hs[1].mean(axis=1)
        else:
            context, _, att_cache = attention_forward(hs[1], params.attention)
            cache["attention"] = att_cache
        if not np.isfinite(context).all():
            raise NumericError("non-finite value in news context vector")
        fused = np.concatenate([h_price, context], axis=1)

    prob, head_cache = head_forward(fused, params.head, train=train, rng=rng)
    cache["head"] = head_cache
    return prob, cache


def backward_batch(
    params: ModelParams, cache: dict, d_prob: np.ndarray, out: ModelParams
) -> None:
    """Gradients for every trainable array, summed over the batch, given
    dLoss/dprobability (B,).

    They are written into `out`, a ModelParams of params' layout bound to a
    gradient vector: `out.theta` is the gradient vector, and flat_params(out)
    names its parts.
    """
    hyper = params.hyper
    d_fused = head_backward(params.head, cache["head"], d_prob, out=out.head)

    batch = d_fused.shape[0]
    d_price_hs = np.zeros((batch, hyper.k, hyper.h))
    d_price_hs[:, -1] = d_fused[:, : hyper.h]
    d_hs = (d_price_hs,)
    if params.variant != VARIANT_NO_NEWS:
        d_context = d_fused[:, hyper.h :]
        k = hyper.k
        if params.variant == VARIANT_NO_ATTENTION:
            d_news_hs = np.broadcast_to(
                d_context[:, None, :] / k, (batch, k, d_context.shape[1])
            )
        else:
            d_news_hs = attention_backward(
                params.attention, cache["attention"], d_context, out=out.attention
            )
        d_hs = (d_price_hs, d_news_hs)

    lstm_backward(params.lstm, cache["lstm"], d_hs, out=out.lstm)


def model_forward(
    window: Windows,
    params: ModelParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    """Spike probability for a one-window batch w[i : i + 1]."""
    prob, cache = forward_batch(
        window.prices, window.news, params, train=train, rng=rng
    )
    return float(prob[0]), cache


def model_backward(
    params: ModelParams, cache: dict, d_prob: float
) -> dict[str, np.ndarray]:
    """Gradients for one window's model_forward cache, keyed like
    flat_params: backward_batch, B = 1, into a fresh gradient vector."""
    grads = _bind(params, np.empty_like(params.theta))
    backward_batch(params, cache, np.array([d_prob], dtype=float), out=grads)
    return flat_params(grads)


def evaluate_loss(
    params: ModelParams,
    windows: Windows,
    pos_weight: float | None = None,
) -> float:
    """Deterministic (inference-mode) BCE over a window set."""
    loss, _ = bce_loss(predict(params, windows), windows.targets, pos_weight)
    return loss


def predict(params: ModelParams, windows: Windows) -> np.ndarray:
    """Order-preserving spike probabilities with dropout disabled.

    `windows` hold raw news; a model with a PCA basis projects it first.
    """
    if not len(windows):
        return np.empty(0)
    if params.pca is not None:
        windows = reduce_samples(windows, params.pca)
    return np.concatenate([
        forward_batch(windows.prices[i : i + PREDICT_CHUNK],
                      windows.news[i : i + PREDICT_CHUNK], params)[0]
        for i in range(0, len(windows), PREDICT_CHUNK)
    ])


def train(
    windows: Windows,
    config: TrainConfig,
    hyper: ModelHyper | None = None,
    variant: str = VARIANT_FULL,
    pca: PcaBasis | None = None,
    norm_stats: dict[str, tuple[float, float]] | None = None,
) -> tuple[ModelParams, list[tuple[int, float, float]]]:
    """Mini-batch Adam on BCE with early stopping on a chronological tail.

    `windows` hold raw news. With `pca`, their news is projected onto it
    once and the model keeps the basis, so predict projects raw news too.
    The last `validation_fraction` of `windows` (which must be in
    chronological order) is held out for validation and never shuffled into
    training. Returns the best-validation-loss parameters and the per-epoch
    (epoch, train_loss, val_loss) history. Fully reproducible given
    config.seed.
    """
    n = len(windows)
    if n < 2:
        raise InsufficientDataError(f"need >= 2 samples to train, got {n}")
    if (np.diff(windows.anchor_years) < 0).any():
        raise ContractError("samples must be ordered chronologically")
    if pca is not None:
        windows = reduce_samples(windows, pca)

    k = windows.k
    d_in = windows.news.shape[2]
    if hyper is None:
        hyper = ModelHyper(k=k, d_prime=d_in)
    hyper = replace(hyper, k=k, d_prime=d_in, seed=config.seed)

    n_val = max(1, math.ceil(config.validation_fraction * n))
    n_train = n - n_val
    if n_train < 1:
        raise InsufficientDataError("validation split leaves no training samples")
    train_part = windows[:n_train]
    val_part = windows[n_train:]

    if train_part.targets.min() == train_part.targets.max():
        warnings.warn(
            "degenerate targets: training partition is single-class; "
            "training proceeds but the classifier cannot rank",
            stacklevel=2,
        )

    # The basis is attached after the loop: evaluate_loss reads reduced news.
    params = init_model(hyper, variant, norm_stats=norm_stats)
    theta = params.theta
    decayed = _bind(params, np.zeros(theta.shape, dtype=bool))
    decayed.head.w1[...] = True
    decayed.head.w2[...] = True
    state = init_adam(theta, alpha=config.alpha, weight_decay=config.weight_decay,
                      decay_mask=decayed.theta)
    # The gradient vector is adam_step's scratch row 0, which a step reads
    # before it writes there; backward_batch writes into it through `grads`.
    grads = _bind(params, state.scratch[0])
    rng = np.random.default_rng(config.seed)

    history: list[tuple[int, float, float]] = []
    best_val = math.inf
    best = theta.copy()
    epochs_since_best = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = train_part[order[start : start + config.batch_size]]
            probs, cache = forward_batch(
                batch.prices, batch.news, params, train=True, rng=rng
            )
            loss, d_preds = bce_loss(probs, batch.targets, config.pos_weight)
            loss_sum += loss * len(batch)
            backward_batch(params, cache, d_preds, out=grads)
            del cache  # not held through the next forward or evaluate_loss
            clip_global_norm(grads.theta, config.clip_norm)
            adam_step(theta, grads.theta, state)

        train_loss = loss_sum / n_train
        val_loss = evaluate_loss(params, val_part, config.pos_weight)
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = theta.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    theta[...] = best
    params.pca = pca
    return params, history


def write_history_csv(history: list[tuple[int, float, float]], path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    lines += [f"{e},{tr!r},{va!r}" for e, tr, va in history]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- checkpoint serialization -------------------------------------------------

# The PcaBasis arrays, in the order a checkpoint stores them.
_PCA_ARRAYS = ("mean", "components", "explained_variance")


def _decode_array(obj, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The stored array `name`, which must have `shape` and finite values."""
    stored = tuple(obj["shape"])
    data = np.array(obj["data"], dtype=float)
    if stored != shape or data.shape != (math.prod(shape),):
        raise CheckpointIntegrityError(
            f"array {name!r}: shape {stored} with {data.size} values, "
            f"model wants {shape}"
        )
    if not np.isfinite(data).all():
        raise CheckpointIntegrityError(f"array {name!r} contains non-finite values")
    return data.reshape(shape)


def _write_json(fh, obj) -> None:
    """Write json.dumps(obj) to fh, with each array as {"shape": [...], "data":
    [row-major values]}, in pieces of at most 256 values: the C encoder's
    speed (json.dump and indent use Python's) without every value's text."""
    if isinstance(obj, dict) and obj:
        for sep, (key, value) in zip(["{"] + [", "] * len(obj), obj.items()):
            fh.write(f"{sep}{json.dumps(key)}: ")
            _write_json(fh, value)
        fh.write("}")
    elif isinstance(obj, np.ndarray):
        data = np.asarray(obj, dtype=float).reshape(-1)
        fh.write(f'{{"shape": {json.dumps(list(obj.shape))}, "data": [')
        for i in range(0, data.size, 256):
            fh.write((", " if i else "") + json.dumps(data[i : i + 256].tolist())[1:-1])
        fh.write("]}")
    else:
        fh.write(json.dumps(obj))


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned JSON checkpoint; save -> load -> save is byte-identical.

    Every trainable array is stored under its flat_params name.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "variant": params.variant,
        "hyper": asdict(params.hyper),
        "pca": None,
        "head_dropout": params.head.dropout,
        "norm_stats": None,
        "arrays": flat_params(params),
    }
    if params.pca is not None:
        doc["pca"] = {name: getattr(params.pca, name) for name in _PCA_ARRAYS}
        doc["pca"]["fitted_on"] = params.pca.fitted_on
    if params.norm_stats is not None:
        doc["norm_stats"] = {
            name: {"mean": float(m), "std": float(s)}
            for name, (m, s) in params.norm_stats.items()
        }
    with open(path, "w") as fh:
        _write_json(fh, doc)
        fh.write("\n")


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint, with integrity and version validation.

    Every stored array must have the shape the model implies: each trainable
    array the shape init_model(hyper, variant) gives it, and the PCA block
    mean (d,), components (d, d') and explained_variance (d',), where
    d' = hyper.d_prime.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
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
        hyper = ModelHyper(**doc["hyper"])
        pca = None
        if doc.get("pca") is not None:
            p = doc["pca"]
            d = len(p["mean"]["data"])
            shapes = ((d,), (d, hyper.d_prime), (hyper.d_prime,))
            pca = PcaBasis(
                *(_decode_array(p[name], f"pca.{name}", shape)
                  for name, shape in zip(_PCA_ARRAYS, shapes)),
                fitted_on=int(p["fitted_on"]),
            )
        norm_stats = None
        if doc.get("norm_stats") is not None:
            norm_stats = {
                name: (float(rec["mean"]), float(rec["std"]))
                for name, rec in doc["norm_stats"].items()
            }
        params = init_model(hyper, doc["variant"], pca=pca, norm_stats=norm_stats)
        params.head = replace(params.head,
                              dropout=float(doc.get("head_dropout", 0.0)))
        for name, arr in flat_params(params).items():
            arr[...] = _decode_array(doc["arrays"][name], name, arr.shape)
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        # ValueError covers json.JSONDecodeError and UnicodeDecodeError; a
        # missing array is a KeyError that names it.
        raise CheckpointIntegrityError(f"malformed checkpoint: {exc!r}") from None
    return params
