"""Dual-stream spike forecaster: windowing, training loop, checkpoints.

A price window and a news-embedding window are processed by two independent
LSTMs; the news states pass through single-head attention; the final price
state and the news context vector are concatenated and classified by a
dense/ReLU/dropout/sigmoid head. Ablation variants reuse the same wiring
with pieces removed.
"""
from __future__ import annotations

import base64
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import VARIANTS
from .errors import (
    CheckpointIntegrityError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    InsufficientDataError,
    NumericError,
    check_count,
)
from .ingest import AlignedDataset
from .nn import (
    AttentionParams,
    HeadParams,
    LstmStreams,
    attention_backward,
    attention_forward,
    bce_loss,
    head_backward,
    head_forward,
    init_attention_params,
    init_head_params,
    init_lstm_streams,
    lstm_backward,
    lstm_forward,
)
from .nn.optim import AdamState, adam_step, clip_global_norm
from .pca import PcaBasis, transform_rows
from .stores import atomic_write, write_csv

CHECKPOINT_FORMAT = "spikecast-checkpoint/3"

VARIANT_FULL, VARIANT_NO_ATTENTION, VARIANT_NO_PCA, VARIANT_NO_NEWS = VARIANTS
# Variants that read PCA-reduced news: no_pca reads raw news, no_news none.
PCA_VARIANTS = (VARIANT_FULL, VARIANT_NO_ATTENTION)
# Window-steps per predict forward pass: a chunk's LSTM and attention caches
# grow with its windows times k and are freed before the next chunk, so
# inference memory grows with neither N nor, up to PREDICT_STEPS, k.
PREDICT_STEPS = 64


@dataclass(frozen=True)
class Windows:
    """N windows over an aligned year table: window i holds the k steps from
    row starts[i] of `data`, and its target is the label of the step after
    them. Each year is held once, in `data`; batch gathers windows."""

    data: AlignedDataset      # news raw, or projected onto pca
    starts: np.ndarray        # (N,) int first row of each window
    k: int
    pca: PcaBasis | None = None  # the basis data's news is on; None: raw

    # An int index would drop the batch axis, so iteration is refused.
    __iter__ = None

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, idx) -> Windows:
        """The windows at a slice or an index array."""
        return Windows(self.data, self.starts[idx], self.k, self.pca)

    @property
    def targets(self) -> np.ndarray:
        """(N,) int spike label of the step after each window."""
        return self.data.labels[self.starts + self.k]

    @property
    def anchor_years(self) -> np.ndarray:
        """(N,) last year inside each window."""
        return np.array(self.data.years)[self.starts + self.k - 1]

    def batch(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prices (B, k, 1), news (B, k, d) and targets (B,) of the windows
        at idx, copied out of `data`."""
        starts = self.starts[idx]
        rows = starts[:, None] + np.arange(self.k)
        return (self.data.prices[rows][..., None], self.data.embeddings[rows],
                self.data.labels[starts + self.k])


@dataclass(frozen=True)
class ModelHyper:
    """Architecture of one model, recorded inside every checkpoint. train
    derives it from its windows and TrainConfig."""

    k: int
    d_prime: int              # width of the news window the model consumes
    h: int
    h_a: int
    dropout: float
    seed: int

    def __post_init__(self):
        for name in ("k", "d_prime", "h", "h_a", "seed"):
            check_count(name, getattr(self, name), 0 if name == "seed" else 1)
        if (isinstance(self.dropout, bool) or not isinstance(self.dropout, Real)
                or not 0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout!r}")


@dataclass
class ModelParams:
    """Complete trainable state of one model variant. Built only by init_model:
    `theta` holds every trainable value, and every flat_params array is a
    view of it; see _bind for the order of theta. `lstm` holds the variant's
    LSTM streams, price then news (no_news has only the price stream)."""

    hyper: ModelHyper
    variant: str
    lstm: LstmStreams
    head: HeadParams
    attention: AttentionParams | None = None
    pca: PcaBasis | None = None
    norm_stats: dict[str, tuple[float, float]] | None = None
    theta: np.ndarray = field(init=False, repr=False)


@dataclass(frozen=True)
class TrainConfig:
    """What a training run is given; train checks dropout as ModelHyper."""

    h: int = 32
    h_a: int = 32
    dropout: float = 0.3
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
        for name in ("seed", "h", "h_a", "batch_size", "epochs", "patience"):
            check_count(name, getattr(self, name), 0 if name == "seed" else 1)
        if not 0.0 < self.validation_fraction < 0.5:
            raise ConfigError("validation_fraction must be in (0, 0.5)")
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
    """Slide a length-k window over the aligned years, as windows over
    `dataset` itself.

    A window from step s holds steps s .. s + k - 1, and its target is the
    label of step s + k. It is kept only when those k + 1 years are
    consecutive calendar years, so no window spans a year the dataset lacks;
    a gap-free dataset of T years gives T - k windows.
    """
    check_count("k", k, 1)
    years = np.array(dataset.years, dtype=int)
    starts = np.flatnonzero(years[k:] - years[:-k] == k)  # years ascend; none if T <= k
    if not starts.size:
        raise InsufficientDataError(
            f"no {k + 1} consecutive years among the {len(dataset)} aligned years")
    return Windows(dataset, starts, k)


def reduce_samples(windows: Windows, basis: PcaBasis) -> Windows:
    """Project the news of the windows' table onto a fitted PCA basis, each year once."""
    if windows.pca is not None:
        raise ContractError("windows are already projected onto a PCA basis; pass raw ones")
    embeddings = transform_rows(basis, windows.data.embeddings)
    return replace(windows, data=replace(windows.data, embeddings=embeddings), pca=basis)


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
    # The price stream reads one value per step, the news stream d' of them.
    lstm = init_lstm_streams((1,) if variant == VARIANT_NO_NEWS else (1, hyper.d_prime),
                             hyper.h, rng)
    attention = None
    if variant == VARIANT_NO_NEWS:
        fused = hyper.h
    elif variant == VARIANT_NO_ATTENTION:
        fused = hyper.h + hyper.h  # context = temporal mean of news states
    else:
        attention = init_attention_params(hyper.h, hyper.h_a, rng)
        fused = hyper.h + hyper.h_a
    head = init_head_params(fused, hyper.h, rng)
    drawn = ModelParams(hyper=hyper, variant=variant, lstm=lstm, head=head,
                        attention=attention, pca=pca, norm_stats=norm_stats)
    flat = flat_params(drawn)
    params = _bind(drawn, np.empty(sum(arr.size for arr in flat.values())))
    for name, arr in flat_params(params).items():
        arr[...] = flat[name]
    return params


def _bind(params: ModelParams, theta: np.ndarray) -> ModelParams:
    """A ModelParams like the one model `params` whose trainable arrays are
    views of the vector `theta`, which holds them in this order: each LSTM
    stream's w, then every stream's u, then every stream's b, then attention
    and head as flat_params lists them. So `lstm.u` and `lstm.b` are single
    (S, h, 4h) and (S, 4h) views. Binding a gradient vector gives gradient
    views of the same names and layout, and binding the (F, n) rows of a
    stack of F models gives each array a leading model axis. This is the
    one place the order is written."""
    cursor = 0

    def take(shape):
        nonlocal cursor
        start, cursor = cursor, cursor + math.prod(shape)
        return theta[..., start:cursor].reshape(theta.shape[:-1] + shape)

    lstm = params.lstm
    bound = replace(params, lstm=LstmStreams(
        tuple(take(w.shape) for w in lstm.w), take(lstm.u.shape), take(lstm.b.shape)))
    for name in ("attention", "head"):
        part = getattr(params, name)
        if part is not None:
            setattr(bound, name, replace(part, **{
                attr: take(arr.shape) for attr, arr in part.arrays().items()}))
    if cursor != theta.shape[-1]:
        raise ContractError(f"theta has {theta.shape[-1]} values, the model {cursor}")
    bound.theta = theta
    return bound


def flat_params(params: ModelParams) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed component.field: LSTM
    stream j's w[j], u[j] and b[j] as price_lstm.* (j = 0) and news_lstm.*."""
    lstm = params.lstm
    flat = {f"{stream}.{n}": a
            for j, (stream, w) in enumerate(zip(("price_lstm", "news_lstm"), lstm.w))
            for n, a in (("w", w), ("u", lstm.u[..., j, :, :]), ("b", lstm.b[..., j, :]))}
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
    window's probability is the same in any batch. For a stack of F models
    (params bound to (F, n) rows) the batches are (F, B, k, .) and the
    probabilities (F, B); `rng` then holds one generator per model.
    """
    hyper = params.hyper
    if prices.shape[-2:] != (hyper.k, 1):
        raise ContractError(
            f"price window shape {prices.shape[-2:]}, expected {(hyper.k, 1)}"
        )
    streams = (prices,) if params.variant == VARIANT_NO_NEWS else (prices, news)
    if len(streams) == 2 and news.shape[-2:] != (hyper.k, hyper.d_prime):
        raise ContractError(f"news window shape {news.shape[-2:]}, "
                            f"expected {(hyper.k, hyper.d_prime)}")
    hs, (h_price, *_), lstm_cache = lstm_forward(streams, params.lstm)
    if not np.isfinite(h_price).all():
        raise NumericError("non-finite value in price LSTM output")

    cache: dict = {"lstm": lstm_cache}
    if params.variant == VARIANT_NO_NEWS:
        fused = h_price
    else:
        if params.variant == VARIANT_NO_ATTENTION:
            context = hs[1].mean(axis=-2)
        else:
            context, _, att_cache = attention_forward(hs[1], params.attention)
            cache["attention"] = att_cache
        if not np.isfinite(context).all():
            raise NumericError("non-finite value in news context vector")
        fused = np.concatenate([h_price, context], axis=-1)

    prob, head_cache = head_forward(fused, params.head,
                                    dropout=hyper.dropout if train else 0.0, rng=rng)
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

    batch = d_fused.shape[:-1]  # (B,), or (F, B) for a stack
    d_price_hs = np.zeros((*batch, hyper.k, hyper.h))
    d_price_hs[..., -1, :] = d_fused[..., : hyper.h]
    d_hs = (d_price_hs,)
    if params.variant != VARIANT_NO_NEWS:
        d_context = d_fused[..., hyper.h :]
        k = hyper.k
        if params.variant == VARIANT_NO_ATTENTION:
            d_news_hs = np.broadcast_to(
                d_context[..., None, :] / k, (*batch, k, d_context.shape[-1])
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
    prices, news, _ = window.batch()
    prob, cache = forward_batch(prices, news, params, train=train, rng=rng)
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

    Raw news is projected onto the model's PCA basis; projected news must be on it.
    """
    if not len(windows):
        return np.empty(0)
    if windows.pca is not params.pca:  # reduce_samples refuses windows already projected
        windows = reduce_samples(windows, params.pca)
    chunk = max(1, PREDICT_STEPS // windows.k)
    return np.concatenate([forward_batch(*windows.batch(slice(i, i + chunk))[:2], params)[0]
                           for i in range(0, len(windows), chunk)])


class TrainStats(NamedTuple):
    """How one fold trained: the manifest's training diagnostics."""

    epochs: int                  # epochs run
    best_epoch: int              # the epoch whose parameters the model keeps
    stop: str                    # "patience" or "budget"
    max_grad_norm: list[float]   # per epoch, the largest pre-clip gradient norm
    single_class: bool           # its training partition held one class


class Fit(NamedTuple):
    """What train returns: one model and one TrainStats per fold, in fold
    order, and every fold's (epoch, train_loss, val_loss) rows, fold after
    fold."""

    models: list[ModelParams]
    history: list[tuple[int, float, float]]
    stats: list[TrainStats]

    def histories(self) -> list[list[tuple[int, float, float]]]:
        """`history` cut into each fold's rows."""
        ends = np.cumsum([s.epochs for s in self.stats]).tolist()
        return [self.history[lo:hi] for lo, hi in zip([0, *ends], ends)]


# Parameter values a training stack of F models of n values each may hold,
# F * n: its moments, gradients, snapshots and caches grow with F, so a cap
# bounds the memory that training folds together adds to training one.
STACK_VALUES = 2**15


def train(folds: list[Windows], config: TrainConfig, variant: str = VARIANT_FULL) -> Fit:
    """Mini-batch Adam on BCE with early stopping on a chronological tail,
    for every window set of `folds` in one loop.

    A model keeps its windows' `pca`, so predict projects raw news too.
    The last `validation_fraction` of `windows` (which must be in
    chronological order) is held out for validation and never shuffled into
    training. A model's ModelHyper takes k and d_prime (the news width) from
    its windows and its other fields from `config`. Each model holds its
    best-validation-loss parameters. A fold whose training partition is one
    class is reported in its TrainStats, not warned of: the caller words it.

    Folds of one ModelHyper (all, unless a PCA rank cap narrowed some) train
    as stacks of models of at most STACK_VALUES values. Each fold keeps its
    own generator, seeded with config.seed, and so its own permutations and
    dropout draws, and its own Adam state, clip norm, best snapshot and
    patience: its model, history and stats are bit for bit those of
    training it alone.
    """
    parts, hypers = [], []
    for windows in folds:
        n = len(windows)
        if n < 2:
            raise InsufficientDataError(f"need >= 2 samples to train, got {n}")
        if (np.diff(windows.anchor_years) < 0).any():
            raise ContractError("samples must be ordered chronologically")
        # validation_fraction < 0.5 leaves n >= 2 windows one to train on.
        n_train = n - max(1, math.ceil(config.validation_fraction * n))
        parts.append((windows, n_train))
        hypers.append(ModelHyper(k=windows.k, d_prime=windows.data.embeddings.shape[1],
                                 h=config.h, h_a=config.h_a, dropout=config.dropout,
                                 seed=config.seed))
    fits = [None] * len(parts)
    for hyper in dict.fromkeys(hypers):
        template = init_model(hyper, variant)  # every fold starts from its draw
        group = sorted((i for i, other in enumerate(hypers) if other == hyper),
                       key=lambda i: parts[i][1])
        # The largest folds first, in stacks of at most STACK_VALUES. A last
        # stack of one trains the draw itself, as training one model alone.
        size = max(1, STACK_VALUES // template.theta.size)
        for end in range(len(group), 0, -size):
            stack = group[max(0, end - size) : end]
            theta = (template.theta[None] if end == 1
                     else np.tile(template.theta, (len(stack), 1)))
            for i, fit in zip(stack, _fit_stack([parts[i] for i in stack], template, theta,
                                                config)):
                fits[i] = fit
    return Fit([model for model, _, _ in fits], [row for _, rows, _ in fits for row in rows],
               [stats for _, _, stats in fits])


@dataclass
class _Run:
    """One fold of a training stack, beside its rows of the stacked arrays."""

    fold: int                 # its place in the stack's parts, by training size
    train: Windows
    val: Windows
    rng: np.random.Generator
    history: list = field(default_factory=list)
    norms: list = field(default_factory=list)
    best: np.ndarray | None = None  # None: the initial parameters
    best_val: float = math.inf
    best_epoch: int = 0
    adam: AdamState | None = None
    loss_sum: float = 0.0     # this epoch's, over its minibatches


def _fit_stack(parts, template: ModelParams, theta: np.ndarray, config: TrainConfig):
    """Train the (windows, n_train) parts, in order of training size,
    as one stack of models of template's layout, from the initial (F, n) rows
    `theta`, which it updates in place; returns each part's (model,
    history, TrainStats).

    θ and its gradients are (F, n) arrays, one row per fold. Each epoch
    right-aligns the folds' full minibatches, so a fold with m of them runs
    at the epoch's last m full-batch steps, and the folds with a batch at a
    step are the block of the last rows: one forward and backward call per
    step. The ragged last batches all run after them, one call per run of
    rows of one batch size. A fold that stops early leaves the stack.
    """
    size, k, d_prime = config.batch_size, template.hyper.k, template.hyper.d_prime
    decayed = _bind(template, np.zeros(theta.shape[1], dtype=bool))
    decayed.head.w1[...] = True
    decayed.head.w2[...] = True
    runs = [_Run(i, windows[:n_train], windows[n_train:], np.random.default_rng(config.seed))
            for i, (windows, n_train) in enumerate(parts)]
    # Each fold clips and steps its own row with its own Adam state, whose
    # scratch is its gradient row (read before the step writes there) and a
    # row all share: an update touches one model's memory at a time.
    scratch = np.empty((len(theta) + 1, theta.shape[1]))
    grads, tmp = scratch[:-1], scratch[-1]
    for run, grad in zip(runs, grads):
        run.adam = AdamState(np.zeros(theta.shape[1]), np.zeros(theta.shape[1]),
                             decayed.theta, (grad, tmp), config.alpha, config.weight_decay)
    blocks, done = {}, [None] * len(parts)

    def block(lo, hi):
        """Rows lo:hi bound as a stack, or a lone row as one model: params,
        gradients, generators, and each row's (θ, gradient, run)."""
        if (lo, hi) not in blocks:
            rows = lo if hi - lo == 1 else slice(lo, hi)
            rngs = [run.rng for run in runs[lo:hi]]
            params = _bind(template, theta[rows])
            params.pca = runs[lo].train.pca if hi - lo == 1 else None  # read by evaluate_loss
            blocks[lo, hi] = (params, _bind(template, grads[rows]),
                              rngs[0] if hi - lo == 1 else rngs,
                              list(zip(theta[lo:hi], grads[lo:hi], runs[lo:hi])))
        return blocks[lo, hi]

    def step(lo, hi, prices, news, targets):
        """One minibatch of each of rows lo:hi, in one call per layer; a
        lone row runs as one model, without the model axis."""
        params, block_grads, rng, updates = block(lo, hi)
        if hi - lo == 1:
            prices, news, targets = prices[0], news[0], targets[0]
        probs, cache = forward_batch(prices, news, params, train=True, rng=rng)
        losses, d_preds = bce_loss(probs, targets, config.pos_weight)
        backward_batch(params, cache, d_preds, out=block_grads)
        del cache  # not held through the next forward or evaluate_loss
        for (row, grad, run), loss in zip(updates, losses.tolist() if hi - lo > 1 else [losses]):
            run.loss_sum += loss * targets.shape[-1]
            run.norms[-1] = max(run.norms[-1], clip_global_norm(grad, config.clip_norm))
            adam_step(row, grad, run.adam)

    for epoch in range(1, config.epochs + 1):
        orders = [run.rng.permutation(len(run.train)) for run in runs]
        cuts = [len(order) - len(order) % size for order in orders]  # rows in full batches
        span = max(cuts)
        # Each fold's full batches, right-aligned in one buffer per batch array.
        full = [np.empty((len(runs), span, *shape)) for shape in ((k, 1), (k, d_prime), ())]
        for f, (run, order, cut) in enumerate(zip(runs, orders, cuts)):
            run.loss_sum = 0.0
            run.norms.append(0.0)  # this epoch's largest pre-clip gradient norm
            for buf, arr in zip(full, run.train.batch(order[:cut])):
                buf[f, span - cut:] = arr
        for start in range(0, span, size):
            lo = sum(span - cut > start for cut in cuts)
            step(lo, len(runs), *(buf[lo:, start : start + size] for buf in full))
        del full  # not held through evaluate_loss
        for rest, rows in itertools.groupby(range(len(runs)),
                                            lambda f: len(orders[f]) - cuts[f]):
            if rest:
                rows = list(rows)
                tails = [runs[f].train.batch(orders[f][cuts[f]:]) for f in rows]
                step(rows[0], rows[-1] + 1, *map(np.stack, zip(*tails)))

        keep = []
        for f, run in enumerate(runs):
            val_loss = evaluate_loss(block(f, f + 1)[0], run.val, config.pos_weight)
            run.history.append((epoch, run.loss_sum / len(run.train), val_loss))
            if val_loss < run.best_val:
                run.best, run.best_val, run.best_epoch = theta[f].copy(), val_loss, epoch
            if epoch - run.best_epoch < config.patience and epoch < config.epochs:
                keep.append(f)
                continue
            if run.best is None:  # no finite validation loss: the initial draw
                run.best = init_model(template.hyper, template.variant).theta
            model = _bind(template, run.best)
            model.pca = run.train.pca
            stop = "budget" if epoch - run.best_epoch < config.patience else "patience"
            done[run.fold] = model, run.history, TrainStats(
                epoch, run.best_epoch, stop, run.norms,
                bool(run.train.targets.min() == run.train.targets.max()))
        if len(keep) < len(runs):  # the stopped folds leave the stack
            runs, theta, blocks = [runs[f] for f in keep], theta[keep], {}
            for run, grad in zip(runs, grads):  # the first rows of the gradients
                run.adam.scratch = (grad, tmp)
        if not runs:
            break
    return done


def write_history_csv(history: list[tuple[int, float, float]], path) -> None:
    write_csv(path, ["epoch", "train_loss", "val_loss"], history)


# --- checkpoint serialization -------------------------------------------------

# The PcaBasis arrays, in the order a checkpoint stores them.
_PCA_ARRAYS = ("mean", "components", "explained_variance")


def _encode_array(obj) -> dict:
    """json.dumps hook: an array as its shape and the base64 of its C-order
    little-endian float64 bytes, which load back bit for bit."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    data = np.ascontiguousarray(obj, dtype="<f8")
    return {"shape": list(obj.shape), "data": base64.b64encode(data).decode("ascii")}


def _decode_array(obj, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The stored array `name`, which must have `shape` (None: one axis of
    any length) and finite values."""
    stored = tuple(obj["shape"])
    raw = base64.b64decode(obj["data"], validate=True)
    shape = (len(raw) // 8,) if shape is None else shape
    if stored != shape or len(raw) != 8 * math.prod(shape):
        raise CheckpointIntegrityError(
            f"array {name!r}: shape {stored} with {len(raw)} bytes, model wants {shape}"
        )
    data = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.isfinite(data).all():
        raise CheckpointIntegrityError(f"array {name!r} contains non-finite values")
    return data


def _decode_norm_stat(rec, name: str) -> tuple[float, float]:
    """A series' stored (mean, std): finite numbers, not bools, std > 0."""
    mean, std = rec["mean"], rec["std"]
    for key, value in (("mean", mean), ("std", std)):
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise CheckpointIntegrityError(
                f"norm_stats {name!r}: {key} must be a finite number, got {value!r}")
    if std <= 0:
        raise CheckpointIntegrityError(f"norm_stats {name!r}: std must be > 0, got {std!r}")
    return float(mean), float(std)


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned JSON checkpoint; save -> load -> save is byte-identical.

    Every trainable array is stored under its flat_params name.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "variant": params.variant,
        "hyper": asdict(params.hyper),
        "pca": None,
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
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, default=_encode_array) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint, with integrity and version validation.

    The stored arrays must be exactly the model's, each with the shape the
    model implies: each trainable array the shape init_model(hyper, variant)
    gives it, and the PCA block mean (d,), components (d, d') and
    explained_variance (d',), where d is the stored mean's length and
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
            mean = _decode_array(p["mean"], "pca.mean")
            shapes = ((len(mean), hyper.d_prime), (hyper.d_prime,))
            fitted_on = p["fitted_on"]  # fit_pca needs at least 2 rows
            check_count("pca.fitted_on", fitted_on, 2, CheckpointIntegrityError)
            pca = PcaBasis(
                mean, *(_decode_array(p[name], f"pca.{name}", shape)
                        for name, shape in zip(_PCA_ARRAYS[1:], shapes)),
                fitted_on=fitted_on,
            )
        norm_stats = None
        if doc.get("norm_stats") is not None:
            norm_stats = {name: _decode_norm_stat(rec, name)
                          for name, rec in doc["norm_stats"].items()}
        params = init_model(hyper, doc["variant"], pca=pca, norm_stats=norm_stats)
        flat = flat_params(params)
        if extra := sorted(set(doc["arrays"]) - set(flat)):
            raise CheckpointIntegrityError(
                f"arrays the {params.variant} model does not have: {', '.join(extra)}")
        for name, arr in flat.items():
            arr[...] = _decode_array(doc["arrays"][name], name, arr.shape)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            ConfigError) as exc:
        # ValueError covers json.JSONDecodeError, UnicodeDecodeError and
        # binascii.Error; a missing array is a KeyError that names it, and an
        # integer too large for a float an OverflowError.
        raise CheckpointIntegrityError(f"malformed checkpoint: {exc!r}") from None
    return params
