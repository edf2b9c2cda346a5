"""Every call site the benchmark wraps still exists where it looks for it.

`perfbench/tracing.py` and `perfbench/bench.py` replace package functions by
their "module:attribute[.attribute]" names for the length of a pass. A
rename or a move inside spikecast would otherwise show only when the
benchmark runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import tracing  # noqa: E402
from conftest import price_csv_text  # noqa: E402

SITES = sorted({
    site
    for table in (tracing.SPANS, tracing.COUNTED, bench.CHECKPOINTS)
    for sites in table.values()
    for site in sites
})


@pytest.mark.parametrize("site", SITES)
def test_site_resolves_to_callable(site):
    owner, attr = tracing._resolve(site)
    if isinstance(owner, type):
        # tracing.patched swaps the entry of the class's own __dict__; an
        # inherited method would be wrapped on the wrong class.
        assert attr in owner.__dict__, f"{site} is not defined in {owner.__name__}"
        target = owner.__dict__[attr]
    else:
        target = getattr(owner, attr)
    assert callable(target), f"{site} is not callable"


# Sites on spikecast.cli that no command calls.
UNCALLED = {"spikecast.cli:classification_metrics", "spikecast.cli:predict",
            "spikecast.cli:roc_auc"}

# Wraps every spikecast.cli site through tracing.patched, as a benchmark pass
# does, in an interpreter that has imported only spikecast.cli, then runs the
# stages; prints the package modules loaded before the wrapping, each
# stage's exit code and each site's call count.
CHILD = """
import json, sys
import spikecast.cli
import tracing
loaded = sorted(m for m in sys.modules if m.startswith("spikecast"))
stages, sites = json.loads(sys.argv[1]), sys.argv[2:]
calls = dict.fromkeys(sites, 0)

def make(site, fn):
    def wrapper(*args, **kwargs):
        calls[site] += 1
        return fn(*args, **kwargs)
    return wrapper

with tracing.patched({site: [site] for site in sites}, make):
    codes = [spikecast.cli.main(argv) for argv in stages]
print(json.dumps({"loaded": loaded, "codes": codes, "calls": calls}))
"""


def test_cli_sites_wrapped_before_first_use(tmp_path):
    """The names of spikecast.cli are imported on first use. A wrapper set
    on one before any command ran is the function the commands call."""
    prices = tmp_path / "prices.csv"
    prices.write_text(price_csv_text(n=30))
    model = ["--prices", prices, "--labels", tmp_path / "label" / "labels.csv",
             "--embeddings", tmp_path / "embed" / "embeddings.jsonl",
             "--k", "3", "--dim", "3", "--h", "4", "--h-a", "4",
             "--epochs", "2", "--patience", "2", "--dropout", "0.0"]
    stages = [
        ["label", "--in", prices],
        ["distill", "--years", "1960:1989", "--mock-dim", "8"],
        ["embed", "--summaries", tmp_path / "distill" / "summaries.jsonl",
         "--mock-dim", "8"],
        ["reduce", "--embeddings", tmp_path / "embed" / "embeddings.jsonl", "--dim", "3"],
        ["train", *model],
        ["ablate", *model, "--variants", "no_news,logreg", "--folds", "2"],
    ]
    stages = [[str(a) for a in argv] + ["--out", str(tmp_path / argv[0])]
              for argv in stages]
    sites = [site for site in SITES if site.startswith("spikecast.cli:")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(stages), *sites],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                          str(ROOT / "perfbench")])},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded"] == ["spikecast", "spikecast.cli", "spikecast.errors",
                             "spikecast.stores"]
    assert got["codes"] == [0] * len(stages), proc.stderr
    assert {site for site, n in got["calls"].items() if n == 0} == UNCALLED
