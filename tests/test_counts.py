"""Every integer setting of the pipeline goes through errors.check_count:
a float, a bool or a numeral string raises the site's typed error, and a
numpy integer is taken as the integer it is."""
import json
import re
from argparse import Namespace

import numpy as np
import pytest

from conftest import planted_dataset
from spikecast import cli
from spikecast.agents import AgentConfig
from spikecast.backends import MockBackend
from spikecast.errors import CheckpointIntegrityError, ConfigError, RankError
from spikecast.evaluation import time_series_split
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
