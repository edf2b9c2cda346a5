"""Every integer setting of the pipeline goes through errors.check_count:
a float, a bool or a numeral string raises the site's typed error, and a
numpy integer is taken as the integer it is. Every real-valued setting and
stored number goes through errors.check_real: a bool, a numeral string, NaN,
an infinity and the first value past each finite bound raise the site's
typed error, and a numpy float or an int inside the interval is taken."""
import json
import math
import re
from argparse import Namespace

import numpy as np
import pytest

from conftest import planted_dataset
from spikecast import cli
from spikecast.agents import AgentConfig
from spikecast.backends import MockBackend
from spikecast.errors import (
    CheckpointIntegrityError, ConfigError, ParseError, RankError, ValidationError,
)
from spikecast.evaluation import (
    baseline_logreg, fit_logreg, fold_set, holdout_split, time_series_split,
)
from spikecast.ingest import RAW, PriceSeries, label_spikes
from spikecast.model import (
    ModelHyper, TrainConfig, init_model, load_checkpoint, make_windows, save_checkpoint,
)
from spikecast.pca import fit_pca
from spikecast.stores import EmbeddingStore

HYPER = dict(k=2, d_prime=2, h=3, h_a=3, dropout=0.1, seed=0)
ROWS = np.random.default_rng(0).normal(size=(8, 4))


def _checkpoint(fitted_on, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(ModelHyper(**HYPER), "full", pca=fit_pca(ROWS, 2)), path)
    doc = json.loads(path.read_text())
    doc["pca"]["fitted_on"] = fitted_on
    path.write_text(json.dumps(doc, default=int))  # a numpy integer is written as one
    load_checkpoint(path)


def _reduce(dim, tmp_path):
    store = EmbeddingStore(tmp_path / "embeddings.jsonl", load=False)
    for year, row in zip(range(1960, 1968), ROWS):
        store.put(year, row)
    store.write()
    cli._bind("pca")  # as `main` does before it runs the stage
    cli._cmd_reduce(Namespace(dim=dim, embeddings=store.path), tmp_path / "reduce")


# (site, error, least, apply(value, tmp_path))
SITES = [
    *((f"TrainConfig.{name}", ConfigError, least,
       lambda v, _, name=name: TrainConfig(**{name: v}))
      for name, least in (("seed", 0), ("h", 1), ("h_a", 1), ("batch_size", 1),
                          ("epochs", 1), ("patience", 1))),
    *((f"ModelHyper.{name}", ConfigError, least,
       lambda v, _, name=name: ModelHyper(**{**HYPER, name: v}))
      for name, least in (("k", 1), ("d_prime", 1), ("h", 1), ("h_a", 1), ("seed", 0))),
    ("make_windows.k", ConfigError, 1,
     lambda v, _: make_windows(planted_dataset(n=12, d=3), v)),
    ("load_checkpoint.pca.fitted_on", CheckpointIntegrityError, 2, _checkpoint),
    ("AgentConfig.max_retries", ConfigError, 1, lambda v, _: AgentConfig(max_retries=v)),
    ("AgentConfig.in_flight_limit", ConfigError, 1,
     lambda v, _: AgentConfig(in_flight_limit=v)),
    ("AgentConfig.years", ConfigError, 0, lambda v, _: AgentConfig(years=(1960, v))),
    ("time_series_split.n_folds", ConfigError, 1, lambda v, _: time_series_split(12, v)),
    ("MockBackend.dim", ConfigError, 1, lambda v, _: MockBackend(dim=v)),
    ("fit_pca.d_prime", RankError, 1, lambda v, _: fit_pca(ROWS, v)),
    ("reduce.--dim", ConfigError, 1, _reduce),
]
IDS = [site[0] for site in SITES]
# argparse hands `reduce` its --dim as an int; the library sites may get numpy's.
LIBRARY = SITES[:-1]


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("site,error,least,apply", SITES, ids=IDS)
def test_a_non_integer_raises_the_typed_error(site, error, least, apply, value, tmp_path):
    with pytest.raises(error, match=re.escape(f"must be an integer, got {value!r}") + "$"):
        apply(value, tmp_path)


@pytest.mark.parametrize("site,error,least,apply", SITES, ids=IDS)
def test_below_the_least_value_raises_the_typed_error(site, error, least, apply, tmp_path):
    with pytest.raises(error, match=rf"must be >= {least}, got {least - 1}$"):
        apply(least - 1, tmp_path)


@pytest.mark.parametrize("site,error,least,apply", LIBRARY, ids=IDS[:-1])
def test_a_numpy_integer_is_accepted(site, error, least, apply, tmp_path):
    apply(np.int64(max(least, 2)), tmp_path)


def _norm_stat(field, value, tmp_path):
    path = tmp_path / "model.json"
    params = init_model(ModelHyper(**HYPER), "no_news", norm_stats={"oil": (10.0, 2.5)})
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["norm_stats"]["oil"][field] = value
    path.write_text(json.dumps(doc))
    load_checkpoint(path)


def _summary_metric(value, tmp_path):
    src = tmp_path / "summary.json"
    src.write_text(json.dumps({"full": {"mean": {"auc": value}, "std": {"auc": 0.0}}}))
    cli._plot_ablation(src, tmp_path / "plot_ablation.csv")


SERIES = PriceSeries("avg", (1960, 1961, 1962), np.array([100.0, 109.0, 121.0]), RAW)
FOLDS = fold_set(make_windows(planted_dataset(n=14, d=3), 2), time_series_split(12, 2), 2)
BELOW_ZERO, PAST_HALF, PAST_ONE = (math.nextafter(x, to)
                                   for x, to in ((0.0, -1.0), (0.5, 1.0), (1.0, 2.0)))
# (site, error, bound, the first excluded finite values, values inside, apply(value, tmp_path))
REAL_SITES = [
    ("TrainConfig.alpha", ConfigError, "> 0", [0.0], [1e-3, 1],
     lambda v, _: TrainConfig(alpha=v)),
    ("TrainConfig.weight_decay", ConfigError, ">= 0", [BELOW_ZERO], [1e-4, 0],
     lambda v, _: TrainConfig(weight_decay=v)),
    ("TrainConfig.clip_norm", ConfigError, ">= 0", [BELOW_ZERO], [5.0, 0],
     lambda v, _: TrainConfig(clip_norm=v)),
    ("TrainConfig.pos_weight", ConfigError, "> 0", [0.0], [2.5, 1],
     lambda v, _: TrainConfig(pos_weight=v)),
    ("TrainConfig.validation_fraction", ConfigError, "in (0, 0.5)", [0.0, 0.5], [0.15],
     lambda v, _: TrainConfig(validation_fraction=v)),
    ("TrainConfig.dropout", ConfigError, "in [0, 1)", [BELOW_ZERO, 1.0], [0.3, 0],
     lambda v, _: TrainConfig(dropout=v)),
    ("ModelHyper.dropout", ConfigError, "in [0, 1)", [BELOW_ZERO, 1.0], [0.3, 0],
     lambda v, _: ModelHyper(**{**HYPER, "dropout": v})),
    ("holdout_split.fraction", ConfigError, "in (0, 0.5]", [0.0, PAST_HALF], [0.2, 0.5],
     lambda v, _: holdout_split(10, v)),
    ("_score.threshold", ConfigError, "in [0, 1]", [BELOW_ZERO, PAST_ONE], [0.5, 1],
     lambda v, _: baseline_logreg(FOLDS, threshold=v)),
    ("fit_logreg.l2", ConfigError, "> 0", [0.0], [1e-3, 1],
     lambda v, _: fit_logreg(ROWS, np.arange(8) % 2, l2=v)),
    ("label_spikes.threshold_pct", ValidationError, "> 0", [0.0], [10.0, 25],
     lambda v, _: label_spikes(SERIES, v)),
    ("load_checkpoint.norm_stats.mean", CheckpointIntegrityError, None, [], [10.0, -3],
     lambda v, tmp_path: _norm_stat("mean", v, tmp_path)),
    ("load_checkpoint.norm_stats.std", CheckpointIntegrityError, "> 0", [0.0], [2.5, 1],
     lambda v, tmp_path: _norm_stat("std", v, tmp_path)),
    ("report.--summary", ParseError, None, [], [0.75, 1], _summary_metric),
]
REAL_IDS = [site[0] for site in REAL_SITES]
PAST_BOUNDS = [(site, error, bound, value, apply)
               for site, error, bound, past, _, apply in REAL_SITES for value in past]
INSIDE = [(site, error, value, apply)
          for site, error, _, _, inside, apply in REAL_SITES
          for value in (np.float64(inside[0]), *inside[1:])]


@pytest.mark.parametrize("value", [True, "0.1", math.nan, math.inf, -math.inf],
                         ids=["bool", "str", "nan", "inf", "-inf"])
@pytest.mark.parametrize("site,error,bound,past,inside,apply", REAL_SITES, ids=REAL_IDS)
def test_a_non_finite_or_non_number_raises_the_typed_error(site, error, bound, past, inside,
                                                          apply, value, tmp_path):
    with pytest.raises(error, match=re.escape(f"must be a finite number, got {value!r}") + "$"):
        apply(value, tmp_path)


@pytest.mark.parametrize("site,error,bound,value,apply", PAST_BOUNDS,
                         ids=[f"{site}={value}" for site, _, _, value, _ in PAST_BOUNDS])
def test_the_first_value_past_a_bound_raises_the_typed_error(site, error, bound, value, apply,
                                                             tmp_path):
    with pytest.raises(error, match=re.escape(f"must be {bound}, got {value}") + "$"):
        apply(value, tmp_path)


@pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
@pytest.mark.parametrize("site,error,value,apply", INSIDE,
                         ids=[f"{site}={value!r}" for site, _, value, _ in INSIDE])
def test_a_numpy_float_or_an_int_inside_is_accepted(site, error, value, apply, tmp_path):
    apply(value, tmp_path)
