"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spikecast  # noqa: E402
import spikecast.cli  # noqa: E402
from spikecast.ingest import label_spikes, parse_price_table, raw_average  # noqa: E402

from bench import END_TO_END, run_pass  # noqa: E402
from checks import check_pass  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs, write_inputs  # noqa: E402

# Every stage and check, small enough to run in about a second.
TINY = Workload(
    name="tiny", why="tests",
    stages=("label", "distill", "embed", "reduce", "train", "eval", "ablate"),
    years=48, mock_dim=8, k=3, batch_size=4, epochs=1, dim=3, h=4, h_a=4,
    folds=2, variants=("full", "logreg"),
)


def _pass(tmp_path: Path, tracer: Tracer | None = None, name: str = "pass"):
    inputs = write_inputs(TINY, 3, tmp_path / "inputs")
    return run_pass(TINY, inputs, tmp_path / "inputs" / "prices.csv",
                    tmp_path / name, 0, tracer)


@pytest.mark.parametrize("workload", [TINY, *WORKLOADS.values()],
                         ids=lambda w: w.name)
def test_inputs_are_a_function_of_the_seed(workload):
    first = make_inputs(workload, 11)
    assert make_inputs(workload, 11) == first
    assert make_inputs(workload, 12) != first
    labels = label_spikes(raw_average(parse_price_table(first.prices_text)))
    assert list(labels.labels) == [int(s) for s in first.spikes[1:]]
    for lo in range(1, workload.years - 8):
        assert 0 < sum(first.spikes[lo:lo + 9]) < 9, "a 9-year run is single-class"


def test_clean_pass_passes_every_check(tmp_path):
    result = _pass(tmp_path)
    assert result.failures == []
    assert result.cpu_s > 0.0


def test_truncated_checkpoint_fails_the_pass(tmp_path, monkeypatch):
    save = spikecast.cli.save_checkpoint

    def save_truncated(params, path):
        save(params, path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])

    monkeypatch.setattr(spikecast.cli, "save_checkpoint", save_truncated)
    failures = _pass(tmp_path).failures
    assert failures and all(f.startswith("train:") for f in failures)


def test_non_orthonormal_basis_fails_the_pass(tmp_path, monkeypatch):
    fit = spikecast.cli.fit_pca

    def fit_stretched(rows, d_prime):
        basis = fit(rows, d_prime)
        return replace(basis, components=2.0 * basis.components)

    monkeypatch.setattr(spikecast.cli, "fit_pca", fit_stretched)
    failures = _pass(tmp_path).failures
    assert len(failures) == 1 and "not orthonormal" in failures[0]


def test_corrupted_artifact_on_disk_is_caught(tmp_path):
    assert _pass(tmp_path).failures == []
    inputs = make_inputs(TINY, 3)
    history = tmp_path / "pass" / "train" / "history.csv"
    history.write_text(history.read_text() + "2,nan,nan\n")
    assert any("history" in f for f in check_pass(TINY, inputs, tmp_path / "pass"))


def _bindings() -> dict[tuple[str, str], int]:
    """id of every module attribute and class attribute of the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "spikecast" or name.startswith("spikecast."):
            for attr, value in vars(module).items():
                out[(name, attr)] = id(value)
                if inspect.isclass(value):
                    for member, obj in vars(value).items():
                        out[(f"{name}.{attr}", member)] = id(obj)
    return out


def test_traced_pass_restores_every_function(tmp_path):
    before = _bindings()
    first, second = Tracer(), Tracer()
    assert _pass(tmp_path, first, "a").failures == []
    assert _pass(tmp_path, second, "b").failures == []
    assert _bindings() == before
    a, b = first.metrics(), second.metrics()
    counts = [k for k, unit in PER_LAYER.items() if unit != "s" and k in a]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["cli.main.calls"] == len(TINY.stages)
    assert a["model.epochs_run"] == 1 + 1 + 2 * 1  # train, eval, 2 CV folds
    assert a["agents.generate_calls"] == TINY.years
    assert a["nn.ops.sigmoid.calls"] > 0


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer._span("inner", lambda: None)
    outer = tracer._span("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.self_times() == {"outer": 10.0 - 2.0 - 2.0, "inner": 4.0}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_pause_leaves_time_out_of_open_spans():
    ticks = iter([0.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer._span("outer", lambda: tracer.pause(2.0))()
    assert tracer.self_times() == {"outer": 3.0}


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER


def test_package_comes_from_this_checkout():
    assert Path(spikecast.__file__).resolve().is_relative_to(HERE.parent / "src")
