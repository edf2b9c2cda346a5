"""End-to-end command-line runs in scratch directories."""
import ast
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikecast.cli
import spikecast.evaluation
import spikecast.model
from spikecast.agents import AgentConfig
from spikecast.backends import MockBackend
from spikecast.cli import (
    _LAZY,
    _dumps_indent2,
    _load_aligned,
    _train_config,
    build_parser,
    load_config_file,
    main,
)
from spikecast.errors import SpikecastError
from spikecast.evaluation import LOGREG_STEPS, LOGREG_TOL, holdout_split, time_series_split
from spikecast.ingest import DEFAULT_SPIKE_THRESHOLD_PCT
from spikecast.model import VARIANTS, TrainConfig, load_checkpoint, make_windows, save_checkpoint

from conftest import (assert_same_bits, brute_force_spikes, price_csv_text,
                      reference_holdout, window_years)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def child(*argv) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter that imports this checkout's package."""
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Price file plus the distill/embed artifacts every stage test needs."""
    root = tmp_path_factory.mktemp("corpus")
    prices = root / "prices.csv"
    prices.write_text(price_csv_text(n=30))

    assert run_cli("label", "--in", prices, "--out", root / "label") == 0
    assert run_cli(
        "distill", "--years", "1960:1989", "--mock-dim", "8",
        "--out", root / "distill",
    ) == 0
    assert run_cli(
        "embed", "--summaries", root / "distill" / "summaries.jsonl",
        "--mock-dim", "8", "--out", root / "embed",
    ) == 0
    return {
        "root": root,
        "prices": prices,
        "labels": root / "label" / "labels.csv",
        "summaries": root / "distill" / "summaries.jsonl",
        "embeddings": root / "embed" / "embeddings.jsonl",
    }


def model_args(corpus, out):
    return [
        "--prices", corpus["prices"], "--labels", corpus["labels"],
        "--embeddings", corpus["embeddings"], "--out", out,
        "--k", "3", "--dim", "3", "--h", "4", "--h-a", "4",
        "--epochs", "2", "--patience", "2", "--dropout", "0.0",
    ]


def pipeline_stages(corpus, run):
    """(command, *flags) of every command in pipeline order, --out left off:
    each stage reads the outputs of the earlier ones from run / <command>."""
    args = model_args(corpus, run)
    i = args.index("--out")
    del args[i:i + 2]
    args[args.index("--labels") + 1] = run / "label" / "labels.csv"
    args[args.index("--embeddings") + 1] = run / "embed" / "embeddings.jsonl"
    return [
        ("ingest", "--in", corpus["prices"]),
        ("label", "--in", corpus["prices"]),
        ("distill", "--years", "1960:1989", "--mock-dim", "8"),
        ("embed", "--summaries", run / "distill" / "summaries.jsonl", "--mock-dim", "8"),
        ("reduce", "--embeddings", run / "embed" / "embeddings.jsonl", "--dim", "3"),
        ("train", *args),
        ("eval", *args),
        ("ablate", *args, "--variants", "full,logreg", "--folds", "2"),
        ("report", "--labels", run / "label" / "labels.csv",
         "--summary", run / "ablate" / "summary.json", "--roc", run / "eval" / "roc.csv",
         "--history", run / "train" / "history.csv"),
    ]


def run_single_class_tail(corpus, tmp_path, command, out, *extra):
    """`command` run on labels whose last 12 years are all 0, in a child
    process, so that warnings reach stderr as they do for a user."""
    header, *rows = corpus["labels"].read_text().splitlines()
    rows[-12:] = [row[: row.rindex(",")] + ",0" for row in rows[-12:]]
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join([header, *rows]) + "\n")
    args = model_args(corpus, out)
    args[args.index("--labels") + 1] = labels
    return child("-m", "spikecast.cli", command, *args, *extra)


class TestIngest:
    def test_artifacts_and_manifest(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(price_csv_text(n=12))
        out = tmp_path / "run"
        assert run_cli("ingest", "--in", prices, "--out", out) == 0

        normalized = (out / "normalized.csv").read_text().splitlines()
        assert normalized[0] == "year,crude_oil,natural_gas,coal"
        assert len(normalized) == 13
        composite = (out / "composite.csv").read_text().splitlines()
        assert composite[0] == "year,value"
        assert len(composite) == 13
        float(composite[1].split(",")[1])

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        digest = "sha256:" + hashlib.sha256(prices.read_bytes()).hexdigest()
        assert manifest["inputs"][str(prices)] == digest
        assert sorted(manifest["outputs"]) == ["composite.csv", "normalized.csv"]
        assert manifest["seed"] == 0


class TestLabel:
    def test_labels_match_rule(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(price_csv_text(n=20))
        out = tmp_path / "run"
        assert run_cli("label", "--in", prices, "--out", out) == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "year,avg_price,pct_change,spike"

        rows = [line.split(",") for line in lines[1:]]
        averages = [float(r[1]) for r in rows]
        first_avg_text = prices.read_text().splitlines()[1].split(",")[1:]
        first_avg = sum(float(c) for c in first_avg_text) / 3
        expected = brute_force_spikes([first_avg] + averages)
        for i, row in enumerate(rows, start=1):
            if i in expected:
                assert int(row[3]) == expected[i], row

    def test_custom_threshold(self, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text(
            "year,a,b\n1960,10,10\n1961,11,11\n1962,20,20\n"
        )
        out = tmp_path / "strict"
        assert run_cli("label", "--in", prices, "--threshold", "5",
                       "--out", out) == 0
        rows = (out / "labels.csv").read_text().splitlines()[1:]
        assert [r.split(",")[3] for r in rows] == ["1", "1"]

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one(self, tmp_path, capsys, threshold):
        prices = tmp_path / "prices.csv"
        prices.write_text(price_csv_text(n=12))
        out = tmp_path / "run"
        assert run_cli("label", "--in", prices, "--threshold", threshold, "--out", out) == 1
        assert capsys.readouterr().err == (f"error: threshold_pct must be a finite number, "
                                           f"got {float(threshold)}\n")
        assert not (out / "labels.csv").exists()


class TestDistill:
    def test_deterministic_across_fresh_dirs(self, tmp_path):
        args = ["distill", "--years", "1970:1974", "--mock-dim", "8"]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        a = (tmp_path / "a" / "summaries.jsonl").read_bytes()
        b = (tmp_path / "b" / "summaries.jsonl").read_bytes()
        assert a == b
        records = [json.loads(line) for line in a.splitlines()]
        assert [r["year"] for r in records] == [1970, 1971, 1972, 1973, 1974]
        assert all(r["verified"] for r in records)

    def test_seed_changes_artifacts(self, tmp_path):
        args = ["distill", "--years", "1970:1972", "--mock-dim", "8"]
        run_cli(*args, "--seed", "1", "--out", tmp_path / "s1")
        run_cli(*args, "--seed", "2", "--out", tmp_path / "s2")
        assert (tmp_path / "s1" / "summaries.jsonl").read_bytes() != \
               (tmp_path / "s2" / "summaries.jsonl").read_bytes()

    def test_forced_rerun_with_another_seed_replaces_every_year(self, tmp_path):
        args = ["distill", "--years", "1970:1972", "--mock-dim", "8"]
        assert run_cli(*args, "--seed", "1", "--out", tmp_path / "run") == 0
        second = [*args, "--seed", "2", "--commodities", "wheat"]
        assert run_cli(*second, "--force", "--out", tmp_path / "run") == 0
        assert run_cli(*second, "--out", tmp_path / "fresh") == 0
        got = (tmp_path / "run" / "summaries.jsonl").read_bytes()
        assert got == (tmp_path / "fresh" / "summaries.jsonl").read_bytes()
        assert {(r["backend_id"], tuple(r["commodities"]))
                for r in map(json.loads, got.splitlines())} == {("mock-s2-d8", ("wheat",))}

    def test_forced_narrower_rerun_with_another_seed_drops_the_other_years(self, tmp_path):
        args = ["distill", "--mock-dim", "8"]
        assert run_cli(*args, "--years", "1970:1974", "--seed", "1",
                       "--out", tmp_path / "run") == 0
        second = [*args, "--years", "1970:1972", "--seed", "2"]
        assert run_cli(*second, "--force", "--out", tmp_path / "run") == 0
        assert run_cli(*second, "--out", tmp_path / "fresh") == 0
        got = (tmp_path / "run" / "summaries.jsonl").read_bytes()
        assert got == (tmp_path / "fresh" / "summaries.jsonl").read_bytes()
        assert [r["year"] for r in map(json.loads, got.splitlines())] == [1970, 1971, 1972]

    def test_rerun_without_force_goes_to_subdir(self, tmp_path):
        out = tmp_path / "run"
        args = ["distill", "--years", "1970:1971", "--mock-dim", "8", "--out", out]
        assert run_cli(*args) == 0
        first = (out / "summaries.jsonl").read_bytes()
        assert run_cli(*args) == 0
        assert (out / "summaries.jsonl").read_bytes() == first
        subdirs = [p for p in out.iterdir()
                   if p.is_dir() and p.name.startswith("distill-")]
        assert len(subdirs) == 1
        assert (subdirs[0] / "summaries.jsonl").read_bytes() == first

    @pytest.mark.parametrize("seed", ["99999999999999", "-99999999999999", "10" + "0" * 11])
    def test_seed_outside_the_clock_exits_one(self, tmp_path, capsys, seed):
        # The first two exceed timedelta's days, the last datetime's years.
        out = tmp_path / "run"
        assert run_cli("distill", "--years", "1960:1961", "--seed", seed, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: --seed {seed} is outside the mock clock's range\n")
        assert not (out / "summaries.jsonl").exists()

    def test_force_rerun_is_byte_stable(self, tmp_path):
        out = tmp_path / "run"
        args = ["distill", "--years", "1970:1971", "--mock-dim", "8", "--out", out]
        assert run_cli(*args) == 0
        first = (out / "summaries.jsonl").read_bytes()
        assert run_cli(*args, "--force") == 0
        assert (out / "summaries.jsonl").read_bytes() == first
        assert not any(p.is_dir() for p in out.iterdir())


class TestEmbed:
    def test_store_header_dim(self, corpus):
        header = json.loads(
            corpus["embeddings"].read_text().splitlines()[0]
        )
        assert header == {"format": "spikecast-embeddings/1", "dim": 8}

    def test_only_verified_years_embedded(self, corpus, tmp_path):
        lines = corpus["summaries"].read_text().splitlines()
        doctored = tmp_path / "summaries.jsonl"
        records = [json.loads(line) for line in lines]
        records[0]["verified"] = False
        doctored.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "embed"
        assert run_cli("embed", "--summaries", doctored, "--mock-dim", "8",
                       "--out", out) == 0
        years = [json.loads(line)["year"] for line in
                 (out / "embeddings.jsonl").read_text().splitlines()[1:]]
        assert records[0]["year"] not in years
        assert len(years) == len(records) - 1

    def test_no_verified_summaries_exits_one(self, tmp_path, capsys):
        store = tmp_path / "summaries.jsonl"
        record = {
            "year": 1970, "commodities": [], "summary": "x", "verified": False,
            "retries": 5, "backend_id": "m", "created_at": "t",
        }
        store.write_text(json.dumps(record) + "\n")
        assert run_cli("embed", "--summaries", store, "--out", tmp_path / "e") == 1
        assert "no verified" in capsys.readouterr().err

    def test_force_rerun_replaces_old_rows(self, corpus, tmp_path):
        out = tmp_path / "embed"
        records = corpus["summaries"].read_text().splitlines()
        assert len(records) == 30
        for count, extra in ((20, []), (5, ["--force"])):
            summaries = tmp_path / f"summaries{count}.jsonl"
            summaries.write_text("\n".join(records[:count]) + "\n")
            assert run_cli("embed", "--summaries", summaries, "--mock-dim", "8",
                           "--out", out, *extra) == 0
            rows = (out / "embeddings.jsonl").read_text().splitlines()[1:]
            assert [json.loads(r)["year"] for r in rows] == list(range(1960, 1960 + count))


class TestReduce:
    def test_reduces_to_requested_dim(self, corpus, tmp_path):
        out = tmp_path / "reduce"
        assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                       "--dim", "3", "--out", out) == 0
        lines = (out / "reduced.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["dim"] == 3
        basis = json.loads((out / "basis.json").read_text())
        assert basis["components_shape"] == [8, 3]

    def test_caps_at_feasible_rank(self, corpus, tmp_path):
        out = tmp_path / "reduce"
        with pytest.warns(UserWarning, match="capped at 8"):
            assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                           "--dim", "50", "--out", out) == 0
        lines = (out / "reduced.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["dim"] == 8  # embedding width is the cap

    @pytest.mark.parametrize("dim,capped", [(100, 8), (8, None), (3, None)])
    def test_a_cap_warns_and_is_recorded(self, corpus, tmp_path, dim, capped):
        out = tmp_path / "reduce"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                           "--dim", dim, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        basis = json.loads((out / "basis.json").read_text())
        assert basis["components_shape"] == [8, capped or dim]
        if capped is None:
            assert not caught and "stats" not in manifest
            return
        (warning,) = caught
        assert str(warning.message) == (f"reduced dimension capped at {capped} "
                                        f"(requested {dim}) by 30 train rows of width 8")
        assert manifest["stats"] == {"pca": {"requested": dim, "fitted": capped}}

    def test_force_rerun_at_another_dim(self, corpus, tmp_path):
        out = tmp_path / "reduce"
        for dim, extra in ((3, []), (5, ["--force"])):
            assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                           "--dim", dim, "--out", out, *extra) == 0
            header, *rows = map(json.loads,
                                (out / "reduced.jsonl").read_text().splitlines())
            assert header["dim"] == dim and len(rows) == 30
            assert all(len(r["values"]) == dim for r in rows)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_too_few_vectors_exits_one(self, corpus, tmp_path, capsys, rows):
        store = tmp_path / "embeddings.jsonl"
        store.write_text("".join(corpus["embeddings"].read_text().splitlines(True)[:1 + rows]))
        assert run_cli("reduce", "--embeddings", store, "--out", tmp_path / "o") == 1
        assert f"{rows} vectors cannot support" in capsys.readouterr().err

    def test_dim_below_one_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                       "--dim", "0", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "--dim must be >= 1, got 0" in err and "vectors" not in err

    def test_basis_json_is_json_indent_2(self, corpus, tmp_path):
        out = tmp_path / "reduce"
        assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                       "--dim", "3", "--out", out) == 0
        text = (out / "basis.json").read_text()
        doc = json.loads(text)
        assert list(doc) == ["mean", "components_shape", "components",
                             "explained_variance", "fitted_on"]
        assert text == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"mean": [-0.0, 5e-324, 1e-300, 1e16, 0.1, -2.5], "fitted_on": 64},
        {"components_shape": [16, 128], "components": [1.0, -1e-07, 123456789.0]},
        {"empty": [], "one": [0.5], "n": 3, "x": -0.0},
        {"explained_variance": []},
    ])
    def test_dumps_indent2_matches_json_indent(self, doc):
        assert _dumps_indent2(doc) == json.dumps(doc, indent=2)


class TestTrain:
    def test_artifacts(self, corpus, tmp_path):
        out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, out)) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["format"] == "spikecast-checkpoint/3"
        assert doc["variant"] == "full"
        assert doc["pca"] is not None
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 3  # exactly the two requested epochs

    def test_rerun_reproduces_checkpoint(self, corpus, tmp_path):
        out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, out)) == 0
        first = (out / "checkpoint.json").read_bytes()
        assert run_cli("train", *model_args(corpus, out), "--force") == 0
        assert (out / "checkpoint.json").read_bytes() == first

    def test_no_news_variant_skips_pca(self, corpus, tmp_path):
        out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, out),
                       "--variant", "no_news") == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["pca"] is None
        assert not [name for name in doc["arrays"] if name.startswith("news_lstm.")]

    def test_cap_and_single_class_warn_at_the_command(self, corpus, tmp_path):
        """fit_fold_pca and model.train report a capped basis and a
        single-class training part; the command words each, once, at its
        own line."""
        header, *rows = corpus["labels"].read_text().splitlines()
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join([header, *(row[: row.rindex(",")] + ",0"
                                               for row in rows)]) + "\n")
        args = model_args(corpus, tmp_path / "train")
        args[args.index("--labels") + 1] = labels
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", *args, "--dim", "10") == 0
        cli = str(SRC / "spikecast" / "cli.py")
        assert [(str(w.message), w.category, w.filename) for w in caught] == [
            ("reduced dimension capped at 8 (requested 10) by 28 train rows of width 8",
             UserWarning, cli),
            ("variant full: degenerate targets: training partition is single-class; "
             "training proceeds but the classifier cannot rank", UserWarning, cli),
        ]


class TestEval:
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_projects_the_news_once(self, corpus, tmp_path, monkeypatch, command):
        calls, transform_rows = [], spikecast.model.transform_rows
        monkeypatch.setattr(spikecast.model, "transform_rows", lambda basis, rows:
                            calls.append(rows.shape) or transform_rows(basis, rows))
        assert run_cli(command, *model_args(corpus, tmp_path / command)) == 0
        assert len(calls) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the price table is normalised as a whole "
                              "before the split, so a test year moves training inputs")
    @pytest.mark.filterwarnings("ignore::UserWarning")  # a 20-year table is tiny
    def test_a_test_year_moves_no_training_input(self, tmp_path, monkeypatch):
        """eval on a 20-year, two-commodity table: raising the last year's
        prices, which only the hold-out reads, must leave the inputs of every
        training window as they were."""
        run = tmp_path / "run"
        assert run_cli("distill", "--years", "1960:1979", "--mock-dim", "8",
                       "--out", run / "distill") == 0
        assert run_cli("embed", "--summaries", run / "distill" / "summaries.jsonl",
                       "--mock-dim", "8", "--out", run / "embed") == 0
        seen, train = [], spikecast.evaluation.train
        monkeypatch.setattr(spikecast.evaluation, "train", lambda folds, *args, **kw: (
            seen.append([part.batch()[:2] for part in folds]) or train(folds, *args, **kw)))
        for last in (1.0, 2.0):
            prices = tmp_path / f"prices-{last}.csv"
            prices.write_text("year,oil,gas\n" + "".join(
                f"{1960 + i},{(10 + 0.5 * i + i % 4) * scale},{(5 + i * 7 % 5) * scale}\n"
                for i in range(20) for scale in [last if i == 19 else 1.0]))
            assert run_cli("label", "--in", prices, "--out", tmp_path / f"label-{last}") == 0
            args = model_args({"prices": prices, "labels": tmp_path / f"label-{last}" / "labels.csv",
                               "embeddings": run / "embed" / "embeddings.jsonl"},
                              tmp_path / f"eval-{last}")
            assert run_cli("eval", *args, "--variant", "no_news") == 0
        base, raised = seen  # each fold's (prices, news) training inputs
        for (got_prices, got_news), (want_prices, want_news) in zip(raised, base, strict=True):
            assert_same_bits(got_news, want_news)
            assert_same_bits(got_prices, want_prices)

    def test_metrics_artifact(self, corpus, tmp_path):
        out = tmp_path / "eval"
        assert run_cli("eval", *model_args(corpus, out),
                       "--holdout", "0.25") == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["holdout_fraction"] == 0.25
        assert set(doc) >= {
            "variant", "n_train", "n_test", "auc", "accuracy",
            "precision_weighted", "recall_weighted", "f1_weighted",
            "confusion", "threshold",
        }
        assert sum(doc["confusion"].values()) == doc["n_test"]
        if doc["auc"] is not None:
            roc = (out / "roc.csv").read_text().splitlines()
            assert roc[0] == "fpr,tpr"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_reference_holdout(self, corpus, tmp_path, variant):
        out = tmp_path / "eval"
        argv = ["eval", *model_args(corpus, out), "--variant", variant,
                "--holdout", "0.3"]
        assert run_cli(*argv) == 0
        args = build_parser().parse_args([str(a) for a in argv])
        want = reference_holdout(
            make_windows(_load_aligned(args), args.k), args.holdout, variant,
            _train_config(args), args.dim, args.threshold,
            tmp_path / "roc.csv")
        assert want["auc"] is not None  # so roc.csv is compared too
        doc = json.loads((out / "metrics.json").read_text())
        assert doc == {"variant": variant, "holdout_fraction": 0.3, **want}
        assert (out / "roc.csv").read_bytes() == (tmp_path / "roc.csv").read_bytes()

    def test_single_class_tail_omits_auc(self, corpus, tmp_path):
        out = tmp_path / "eval"
        proc = run_single_class_tail(corpus, tmp_path, "eval", out)
        assert proc.returncode == 0, proc.stderr
        assert ("cli.py" in proc.stderr and "UserWarning: variant full hold-out: "
                "single-class test labels, AUC undefined\n" in proc.stderr)
        assert "mean" not in proc.stderr
        assert json.loads((out / "metrics.json").read_text())["auc"] is None
        assert not (out / "roc.csv").exists()


class TestAblate:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_report_and_summary(self, corpus, tmp_path):
        out = tmp_path / "ablate"
        assert run_cli("ablate", *model_args(corpus, out),
                       "--variants", "no_news,logreg", "--folds", "3") == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "variant,fold,auc,accuracy,precision_w,recall_w,f1_w"
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"no_news", "logreg"}
        assert len(lines) == 1 + 2 * 3
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"no_news", "logreg"}

    def test_single_class_fold_warns(self, corpus, tmp_path):
        out = tmp_path / "ablate"
        proc = run_single_class_tail(corpus, tmp_path, "ablate", out,
                                     "--variants", "logreg", "--folds", "3")
        assert proc.returncode == 0, proc.stderr
        for fold in (2, 3):  # the last 12 labels cover both test blocks
            assert (f"UserWarning: variant logreg fold {fold}: single-class test "
                    "labels, AUC excluded from the mean\n") in proc.stderr
        assert "cli.py" in proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["logreg"]["auc_folds_excluded"] == 2

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    @pytest.mark.parametrize("command,extra,fits", [
        ("ablate", ["--variants", "full,no_attention,no_news,logreg", "--folds", "3"], 3),
        ("eval", ["--variant", "no_news"], 0),
    ])
    def test_one_pca_fit_per_fold(self, corpus, tmp_path, monkeypatch, command, extra,
                                  fits):
        """The variants of one command share each fold's PCA basis; a variant
        without PCA fits none."""
        fit_fold_pca, parts = spikecast.evaluation.fit_fold_pca, []

        def counting(train_samples, *args, **kwargs):
            parts.append(len(train_samples))
            return fit_fold_pca(train_samples, *args, **kwargs)

        monkeypatch.setattr(spikecast.evaluation, "fit_fold_pca", counting)
        assert run_cli(command, *model_args(corpus, tmp_path / command), *extra) == 0
        assert len(parts) == len(set(parts)) == fits  # one fit per training part

    def test_unknown_variant_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("ablate", *model_args(corpus, tmp_path / "x"),
                       "--variants", "full,bogus") == 1
        assert "bogus" in capsys.readouterr().err

    def test_repeated_variant_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("ablate", *model_args(corpus, tmp_path / "x"),
                       "--variants", "no_news,logreg,no_news") == 1
        assert "repeated variants: no_news" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestManifestStats:
    """train, eval and ablate record in manifest.json how each fold trained
    and which PCA bases a rank cap narrowed, and ablate how Newton's method
    ended on each fold of the logistic baseline; distill records each year's
    retries and verdict; reduce records its rank cap (TestReduce); no other
    command writes a stats block."""

    KEYS = {"epochs", "best_epoch", "stop", "max_grad_norm", "single_class"}

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    @pytest.mark.parametrize("command,extra,folds", [
        ("train", ["--variant", "no_attention"], {"no_attention": 1}),
        ("eval", [], {"full": 1}),
        ("ablate", ["--variants", "no_news,logreg,no_pca", "--folds", "3"],
         {"no_news": 3, "no_pca": 3}),
    ])
    def test_training_stats(self, corpus, tmp_path, command, extra, folds):
        out = tmp_path / command
        assert run_cli(command, *model_args(corpus, out), *extra) == 0
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        assert list(stats) == ["logreg"] * (command == "ablate") + ["pca", "training"]
        assert stats["pca"] == {}  # --dim 3 of 8-wide news caps no basis
        assert {v: len(rows) for v, rows in stats["training"].items()} == folds
        for rows in stats["training"].values():
            for row in rows:
                assert set(row) == self.KEYS
                assert row["stop"] in ("patience", "budget")
                assert 1 <= row["best_epoch"] <= row["epochs"] <= 2
                assert len(row["max_grad_norm"]) == row["epochs"]
                assert isinstance(row["single_class"], bool)
        if command == "train":
            history = (out / "history.csv").read_text().splitlines()
            assert len(history) - 1 == stats["training"]["no_attention"][0]["epochs"]

    @pytest.mark.filterwarnings("ignore::UserWarning")  # the caps, and tiny folds
    @pytest.mark.parametrize("command,extra,caps", [
        ("train", ["--variant", "no_attention"], {"no_attention": [8]}),
        ("eval", ["--variant", "no_pca"], {}),
        ("ablate", ["--variants", "full,no_news,logreg", "--folds", "5"],
         {"full": [7, 8, 8, 8, 8], "logreg": [7, 8, 8, 8, 8]}),
    ])
    def test_pca_rank_caps(self, corpus, tmp_path, command, extra, caps):
        """--dim 10 on 8-wide news: every basis is capped at 8 or below; the
        first of 5 folds has 8 training years, so 7 at most."""
        out = tmp_path / command
        assert run_cli(command, *model_args(corpus, out), "--dim", "10", *extra) == 0
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        assert stats["pca"] == {
            variant: [{"fold": i, "requested": 10, "fitted": fitted}
                      for i, fitted in enumerate(fits, start=1)]
            for variant, fits in caps.items()}

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_logreg_stats(self, corpus, tmp_path):
        out = tmp_path / "ablate"
        assert run_cli("ablate", *model_args(corpus, out), "--variants", "logreg",
                       "--folds", "3") == 0
        rows = json.loads((out / "manifest.json").read_text())["stats"]["logreg"]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"steps", "max_grad", "single_class"}
            assert 1 <= row["steps"] < LOGREG_STEPS and 0 <= row["max_grad"] <= LOGREG_TOL
            assert isinstance(row["single_class"], bool)

    def test_distill_stats(self, corpus):
        doc = json.loads((corpus["root"] / "distill" / "manifest.json").read_text())
        records = [json.loads(line) for line in corpus["summaries"].read_text().splitlines()]
        assert list(doc["stats"]) == ["distill"]
        assert doc["stats"]["distill"] == [
            {"year": r["year"], "retries": r["retries"], "verified": r["verified"]}
            for r in records]

    @pytest.mark.parametrize("policy", ["skip", "placeholder"])
    def test_distill_stats_record_every_requested_year(self, tmp_path, monkeypatch, policy):
        """A year whose drafts were all rejected is recorded in the shape of
        a placeholder record, whether or not the policy stores one."""
        monkeypatch.setattr(spikecast.cli, "get_backend",
                            lambda *args, **kwargs: MockBackend(verdict_mode="reject"))
        out = tmp_path / "distill"
        with pytest.warns(UserWarning, match="no year produced a verified summary"):
            assert run_cli("distill", "--years", "1970:1972", "--max-retries", "2",
                           "--fallback-policy", policy, "--out", out) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["stats"]["distill"] == [
            {"year": year, "retries": 2, "verified": False} for year in (1970, 1971, 1972)]

    def test_other_commands_write_none(self, corpus):
        for stage in ("label", "embed"):
            doc = json.loads((corpus["root"] / stage / "manifest.json").read_text())
            assert "stats" not in doc


class TestGapYear:
    """A year empty in every price column: no label is taken across it, and
    no window spans it."""

    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_pipeline_runs_around_the_gap(self, tmp_path):
        rows = ["1975,,," if row.startswith("1975,") else row
                for row in price_csv_text(n=30).splitlines()]
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(rows) + "\n")
        run = tmp_path / "run"
        stages = pipeline_stages({"prices": prices, "labels": None, "embeddings": None}, run)
        for command, *flags in stages:
            assert run_cli(command, *flags, "--out", run / command) == 0, command

        label_years = [int(row.split(",")[0]) for row in
                       (run / "label" / "labels.csv").read_text().splitlines()[1:]]
        assert label_years == [*range(1961, 1975), *range(1977, 1990)]
        train_flags = next(flags for command, *flags in stages if command == "train")
        args = build_parser().parse_args(["train", *map(str, train_flags), "--out", "x"])
        samples = make_windows(_load_aligned(args), args.k)
        # The years 1961-1974 and 1977-1989 each give their length - k windows.
        assert len(samples) == (14 - 3) + (13 - 3)
        spans = np.column_stack([window_years(samples), samples.anchor_years + 1])
        assert (np.diff(spans, axis=1) == 1).all()
        assert not np.isin(spans, [1975, 1976]).any()


class TestReport:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    def test_bundles_plot_tables(self, corpus, tmp_path):
        train_out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, train_out)) == 0
        ablate_out = tmp_path / "ablate"
        assert run_cli("ablate", *model_args(corpus, ablate_out),
                       "--variants", "logreg", "--folds", "3") == 0
        out = tmp_path / "report"
        assert run_cli(
            "report", "--labels", corpus["labels"],
            "--summary", ablate_out / "summary.json",
            "--history", train_out / "history.csv",
            "--out", out,
        ) == 0
        assert (out / "plot_spikes.csv").exists()
        assert (out / "plot_history.csv").exists()
        ablation = (out / "plot_ablation.csv").read_text().splitlines()
        assert ablation[0] == "variant,mean_auc,std_auc,mean_f1_w,std_f1_w"
        assert ablation[1].startswith("logreg,")

    def test_no_sources_exits_one(self, tmp_path):
        assert run_cli("report", "--out", tmp_path / "r") == 1

    def test_first_bad_source_in_option_order_names_the_error(self, tmp_path, capsys):
        options = ("labels", "summary", "roc", "history")
        bad = {option: tmp_path / f"{option}.bad" for option in options}
        for path in bad.values():
            path.write_text("x\n")
        for i, first in enumerate(options):
            given = [a for option in reversed(options[i:]) for a in (f"--{option}", bad[option])]
            assert run_cli("report", *given, "--out", tmp_path / first) == 1
            err = capsys.readouterr().err
            assert [o for o in options if str(bad[o]) in err] == [first], err

    def test_wrong_header_exits_one(self, corpus, tmp_path, capsys):
        bogus = tmp_path / "roc.csv"
        bogus.write_text("x,y\n0,0\n")
        assert run_cli("report", "--roc", bogus, "--out", tmp_path / "r") == 1
        assert "fpr,tpr" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["not json\n", '{"full": [0.5]}\n'],
                             ids=["not-json", "block-not-object"])
    def test_malformed_summary_exits_one(self, tmp_path, capsys, text):
        summary = tmp_path / "summary.json"
        summary.write_text(text)
        assert run_cli("report", "--summary", summary, "--out", tmp_path / "r") == 1
        assert str(summary) in capsys.readouterr().err

    def test_missing_metrics_are_empty_cells(self, tmp_path):
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({
            "full": {"mean": {"f1_w": 0.5}, "std": {"f1_w": 0.25}},
            "logreg": {"mean": {"auc": 0.75, "f1_w": 1}, "std": {"auc": 0.0}},
            "no_news": {},
        }))
        assert run_cli("report", "--summary", summary, "--out", tmp_path / "r") == 0
        assert (tmp_path / "r" / "plot_ablation.csv").read_text() == (
            "variant,mean_auc,std_auc,mean_f1_w,std_f1_w\n"
            "full,,,0.5,0.25\n"
            "logreg,0.75,0.0,1.0,\n"
            "no_news,,,,\n"
        )

    @pytest.mark.parametrize("value", ['"high"', "[0.5]", "{}", "null", "1" + "0" * 400,
                                       "true", '"0.5"'],
                             ids=["string", "list", "object", "null", "huge-integer",
                                  "bool", "numeric-string"])
    def test_non_numeric_metric_exits_one(self, tmp_path, capsys, value):
        summary = tmp_path / "summary.json"
        summary.write_text('{"full": {"mean": {"f1_w": 0.5}, "std": {"auc": %s}}}' % value)
        assert run_cli("report", "--summary", summary, "--out", tmp_path / "r") == 1
        assert "not an ablation summary" in capsys.readouterr().err
        assert not (tmp_path / "r" / "plot_ablation.csv").exists()

    @pytest.mark.parametrize("key,text", [("auc", "NaN"), ("f1_w", "Infinity"),
                                          ("f1_w", "-Infinity")], ids=["nan", "inf", "-inf"])
    def test_non_finite_metric_exits_one(self, tmp_path, capsys, key, text):
        """Python's json reads NaN and Infinity; a summary holding one is refused
        rather than turned into an empty or an `inf` cell."""
        summary = tmp_path / "summary.json"
        summary.write_text('{"full": {"mean": {"auc": %(auc)s, "f1_w": %(f1_w)s}, "std": {}}}'
                           % {"auc": "0.75", "f1_w": "0.5", key: text})
        assert run_cli("report", "--summary", summary, "--out", tmp_path / "r") == 1
        assert capsys.readouterr().err == (
            f"error: {summary}: not an ablation summary: "
            f"full {key} must be a finite number, got {float(text)!r}\n")
        assert not (tmp_path / "r" / "plot_ablation.csv").exists()


class TestArtifactFiles:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_every_file_has_the_mode_open_gives(self, corpus, tmp_path, umask):
        """Every file of a full pipeline run, manifests included, has the mode
        open(path, "w") gives a new file: 0o666 less the umask."""
        run = tmp_path / "run"
        old = os.umask(umask)
        try:
            for command, *rest in pipeline_stages(corpus, run):
                assert run_cli(command, *rest, "--out", run / command) == 0, command
        finally:
            os.umask(old)
        modes = {p.relative_to(run).as_posix(): oct(p.stat().st_mode & 0o777)
                 for p in run.rglob("*") if p.is_file()}
        assert len(modes) == 26, sorted(modes)
        assert set(modes.values()) == {oct(0o666 & ~umask)}, modes


# spikecast modules each command loads besides the package, cli, errors and stores.
DATASET_MODULES = {"spikecast.ingest", "spikecast.model", "spikecast.evaluation",
                   "spikecast.pca", "spikecast.nn", "spikecast.nn.ops",
                   "spikecast.nn.lstm", "spikecast.nn.attention", "spikecast.nn.head",
                   "spikecast.nn.losses", "spikecast.nn.optim"}
COMMAND_MODULES = {
    "ingest": {"spikecast.ingest"},
    "label": {"spikecast.ingest"},
    "distill": {"spikecast.agents", "spikecast.backends"},
    "embed": {"spikecast.agents", "spikecast.backends"},
    "reduce": {"spikecast.pca"},
    "train": DATASET_MODULES,
    "eval": DATASET_MODULES,
    "ablate": DATASET_MODULES,
    "report": set(),
}


class TestColdStart:
    """Each command in a fresh interpreter. In this process, names that one
    test binds on spikecast.cli stay bound for the next, which would hide a
    command whose _COMMANDS entry misses a module."""

    def test_import_loads_no_pipeline_module(self):
        proc = child("-c", "import sys, spikecast.cli; "
                     "print(*sorted(m for m in sys.modules if m.startswith('spikecast')))")
        assert proc.stdout.split() == [
            "spikecast", "spikecast.cli", "spikecast.errors", "spikecast.stores"]

    def test_every_command_in_its_own_process(self, corpus, tmp_path):
        run = tmp_path / "run"
        for command, *rest in pipeline_stages(corpus, run):
            # -v writes "import 'name' # loader" for each module imported.
            proc = child("-v", "-m", "spikecast.cli", command, *rest, "--out", run / command)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert proc.stdout.startswith(f"{command}: wrote ")
            loaded = set(re.findall(r"^import '(spikecast\.[\w.]+)'", proc.stderr, re.M))
            assert loaded == {"spikecast.errors", "spikecast.stores",
                              *COMMAND_MODULES[command]}, command

    @pytest.mark.parametrize("helper,want", [
        ("len(_load_aligned(args))", "29"),  # 30 price years, the first unlabelled
        ("_train_config(args).epochs", "2"),
        ("_train_config(args).h", "4"),
    ])
    def test_helper_binds_its_own_names(self, corpus, tmp_path, helper, want):
        """Each helper alone, in an interpreter where main() never ran."""
        proc = child("-c", "import sys\n"
                     "from spikecast.cli import _load_aligned, _train_config, build_parser\n"
                     "args = build_parser().parse_args(sys.argv[1:])\n"
                     f"print({helper})", "train", *model_args(corpus, tmp_path / "train"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [want]


class TestLazyNames:
    def test_every_name_is_read_here_or_wrapped_by_the_benchmark(self, monkeypatch):
        """Each _LAZY name is read by cli.py outside the table, or is a
        spikecast.cli site that the benchmark wraps; any other is left over."""
        monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
        import bench
        import tracing
        tree = ast.parse((SRC / "spikecast" / "cli.py").read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        wrapped = {site.removeprefix("spikecast.cli:")
                   for table in (tracing.SPANS, tracing.COUNTED, bench.CHECKPOINTS)
                   for sites in table.values() for site in sites
                   if site.startswith("spikecast.cli:")}
        assert [name for names in _LAZY.values() for name in names
                if name not in read | wrapped] == []


class TestReadme:
    def test_library_use_block_runs(self, corpus, tmp_path, monkeypatch, capsys):
        """The README's "Library use" block, run in a directory holding the
        files it names, so the documented API cannot drift from the code."""
        text = (SRC.parent / "README.md").read_text()
        section = text[text.index("## Library use"):]
        start = section.index("```python\n") + len("```python\n")
        block = section[start : section.index("```", start)]
        (tmp_path / "runs" / "embed").mkdir(parents=True)
        shutil.copy(corpus["prices"], tmp_path / "prices.csv")
        shutil.copy(corpus["embeddings"], tmp_path / "runs" / "embed" / "embeddings.jsonl")
        monkeypatch.chdir(tmp_path)
        scope = {}
        exec(compile(block, "README.md", "exec"), scope)
        assert scope["params"].hyper.h == scope["params"].hyper.h_a == 16
        assert scope["params"].hyper.d_prime == 3
        want = scope["windows"].anchor_years[scope["probs"] > 0.5]
        assert capsys.readouterr().out == f"{want}\n"

    def test_src_line_count(self):
        """README's "`src/` holds N lines of Python." is the newline count of
        src/**/*.py."""
        text = (SRC.parent / "README.md").read_text()
        (stated,) = re.findall(r"`src/` holds ([\d,]+) lines of Python\.", text)
        lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
        assert int(stated.replace(",", "")) == lines


class TestExitCodes:
    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        assert run_cli("label", "--in", tmp_path / "nope.csv",
                       "--out", tmp_path / "o") == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self, tmp_path):
        assert run_cli("ingest", "--in", "x.csv", "--wat", "1") == 1

    def test_reversed_year_range(self, tmp_path):
        assert run_cli("distill", "--years", "1975:1970",
                       "--out", tmp_path / "o") == 1

    def test_unknown_backend(self, tmp_path):
        assert run_cli("distill", "--backend", "nosuch", "--years", "1970:1970",
                       "--out", tmp_path / "o") == 1

    def test_corrupt_store_is_runtime_error(self, tmp_path, capsys):
        store = tmp_path / "summaries.jsonl"
        store.write_text("definitely not json\n")
        assert run_cli("embed", "--summaries", store,
                       "--out", tmp_path / "o") == 2

    def test_malformed_prices_is_validation_error(self, tmp_path):
        bad = tmp_path / "prices.csv"
        bad.write_text("year,a\n1960,oops\n")
        assert run_cli("label", "--in", bad, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("text,message", [
        # Counted twice, the repeated column would label 1961 a spike.
        ("year,oil,oil,gas\n1960,10,10,100\n1961,30,30,100\n",
         "repeated commodity name(s) in header: ['oil']"),
        ("year,,gas\n1960,10,100\n1961,30,100\n",
         "empty commodity name in header column 2"),
    ], ids=["repeated", "empty"])
    def test_bad_commodity_name_exits_one(self, tmp_path, capsys, text, message):
        prices = tmp_path / "prices.csv"
        prices.write_text(text)
        assert run_cli("label", "--in", prices, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_repeated_label_year_exits_one(self, corpus, tmp_path, capsys):
        lines = corpus["labels"].read_text().splitlines()
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(lines + [lines[3]]) + "\n")
        repeated = lines[3].split(",")[0]
        args = model_args(corpus, tmp_path / "o")
        args[args.index("--labels") + 1] = labels
        assert run_cli("train", *args) == 1
        err = capsys.readouterr().err
        assert f"duplicate label year(s): [{repeated}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("store,argv", [
        ("summaries", ["embed", "--summaries"]),
        ("embeddings", ["reduce", "--embeddings"]),
    ])
    def test_repeated_store_year_is_corrupt_store(self, corpus, tmp_path, capsys,
                                                  store, argv):
        lines = corpus[store].read_text().splitlines()
        path = tmp_path / corpus[store].name
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        assert run_cli(*argv, path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{path.name}:{len(lines) + 1}: year" in err and "repeats" in err

    @pytest.mark.parametrize("store,argv", [
        ("summaries", ["embed", "--summaries"]),
        ("embeddings", ["reduce", "--embeddings"]),
        ("embeddings", ["train", "--embeddings"]),
    ])
    def test_store_year_beyond_int64_is_corrupt_store(self, corpus, tmp_path, capsys,
                                                      store, argv):
        lines = corpus[store].read_text().splitlines()
        record = json.loads(lines[-1])
        record["year"] = 10**30
        path = tmp_path / corpus[store].name
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        args = model_args(corpus, tmp_path / "o") if argv[0] == "train" else []
        if args:
            del args[args.index("--embeddings") : args.index("--embeddings") + 2]
        assert run_cli(*argv, path, *args, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (f"error: {path}:{len(lines) + 1}: year {10**30} "
                                           "does not fit a 64-bit integer\n")

    @pytest.mark.parametrize("flag,value", [
        ("--h", "0"), ("--h-a", "0"), ("--dropout", "1.0"),
        ("--alpha", "nan"), ("--clip-norm", "-1"), ("--weight-decay", "-1"),
        ("--pos-weight", "0"),
    ])
    def test_bad_model_flag_exits_one(self, corpus, tmp_path, capsys, flag, value):
        name = flag.lstrip("-").replace("-", "_")
        assert run_cli("train", *model_args(corpus, tmp_path / "o"),
                       flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "2", "-1"])
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_threshold_outside_unit_interval_exits_one(self, corpus, tmp_path, capsys,
                                                       monkeypatch, command, threshold):
        """eval and ablate reject the threshold before any model trains;
        train, which scores nothing, takes no --threshold at all."""
        trained = []
        monkeypatch.setattr(spikecast.evaluation, "train",
                            lambda *args, **kwargs: trained.append(args))
        monkeypatch.setattr(spikecast.cli, "train",
                            lambda *args, **kwargs: trained.append(args))
        out = tmp_path / "o"
        assert run_cli(command, *model_args(corpus, out), "--threshold", threshold) == 1
        err = capsys.readouterr().err
        if command == "train":
            assert err.startswith(f"error: unrecognized arguments: --threshold {threshold}\n")
            assert not out.exists()
        else:
            bound = "a finite number" if threshold in ("nan", "inf") else "in [0, 1]"
            assert err == f"error: threshold must be {bound}, got {float(threshold)}\n"
            assert list(out.iterdir()) == []  # no metrics.json, no manifest
        assert trained == []

    def test_train_takes_no_threshold(self, corpus, tmp_path, capsys):
        assert run_cli("train", *model_args(corpus, tmp_path / "o"), "--threshold", "0.5") == 1
        assert capsys.readouterr().err.startswith(
            "error: unrecognized arguments: --threshold 0.5\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_negative_seed_exits_one(self, corpus, tmp_path, capsys, command):
        assert run_cli(command, *model_args(corpus, tmp_path / "o"), "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["ingest", "--in", "{bad}"],
        ["label", "--in", "{bad}"],
        ["train", "--prices", "{bad}", "--labels", "{labels}",
         "--embeddings", "{embeddings}"],
        ["train", "--prices", "{prices}", "--labels", "{bad}",
         "--embeddings", "{embeddings}"],
        ["report", "--labels", "{bad}"],
        ["report", "--summary", "{bad}"],
        ["report", "--roc", "{bad}"],
        ["report", "--history", "{bad}"],
        ["distill", "--years", "1970:1970", "--config", "{bad}"],
    ], ids=["ingest", "label", "train-prices", "train-labels", "report-labels",
            "report-summary", "report-roc", "report-history", "config"])
    def test_non_utf8_input_exits_one(self, corpus, tmp_path, capsys, argv):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes("year,avg_price,pct_change,spike\n".encode("utf-16"))
        paths = {name: corpus[name] for name in ("prices", "labels", "embeddings")}
        argv = [a.format(bad=bad, **paths) for a in argv]
        assert run_cli(*argv, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


GOLDEN_HELP = Path(__file__).resolve().parent / "golden" / "help"
TOP_USAGE = (
    "usage: spikecast [-h]\n"
    "                 {ingest,label,distill,embed,reduce,train,eval,ablate,report}\n"
    "                 ...\n\n"
)


class TestParserText:
    """What the parser prints, pinned as text: help, and usage errors."""

    @pytest.mark.parametrize("command", [
        None, "ingest", "label", "distill", "embed", "reduce", "train", "eval",
        "ablate", "report",
    ])
    def test_help(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run_cli(*([command] if command else []), "--help")
        assert exc.value.code == 0
        golden = GOLDEN_HELP / f"{command or 'spikecast'}.txt"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("command", [
        "ingest", "label", "distill", "embed", "reduce", "train", "eval",
        "ablate", "report",
    ])
    def test_help_with_all_parsers(self, monkeypatch, capsys, tmp_path, command):
        # A config file makes main register all nine subcommands; the help
        # must read as it does with only the invoked one registered.
        monkeypatch.setenv("COLUMNS", "80")
        config = tmp_path / "empty.conf"
        config.write_text("")
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", config, "--help")
        assert exc.value.code == 0
        golden = GOLDEN_HELP / f"{command}.txt"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("argv,message", [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose "
                         "from 'ingest', 'label', 'distill', 'embed', 'reduce', "
                         "'train', 'eval', 'ablate', 'report')"),
        ([], "the following arguments are required: command"),
        (["ingest", "--in", "x.csv", "--wat", "1"], "unrecognized arguments: --wat 1"),
    ], ids=["unknown-command", "missing-command", "unknown-flag"])
    def test_usage_error(self, monkeypatch, capsys, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n{TOP_USAGE}"


def _param_default(fn, name):
    return inspect.signature(fn).parameters[name].default


# (commands, option dest, the library's default for it): every default the
# CLI writes a second time.
LIBRARY_DEFAULTS = [
    *((("train", "eval", "ablate"), f.name, f.default) for f in fields(TrainConfig)),
    *((("distill",), {"in_flight_limit": "in_flight"}.get(f.name, f.name), f.default)
      for f in fields(AgentConfig)),
    (("label",), "threshold", DEFAULT_SPIKE_THRESHOLD_PCT),
    (("eval",), "holdout", _param_default(holdout_split, "fraction")),
    (("ablate",), "folds", _param_default(time_series_split, "n_folds")),
    (("distill", "embed"), "mock_dim", _param_default(MockBackend, "dim")),
]
REQUIRED_FLAGS = {
    **dict.fromkeys(("train", "eval", "ablate"),
                    ["--prices", "p", "--labels", "l", "--embeddings", "e"]),
    "label": ["--in", "p"], "distill": [], "embed": ["--summaries", "s"],
}


class TestDefaults:
    @pytest.mark.parametrize("commands,dest,default", LIBRARY_DEFAULTS,
                             ids=[dest for _, dest, _ in LIBRARY_DEFAULTS])
    def test_cli_default_is_the_library_default(self, commands, dest, default):
        for command in commands:
            args = build_parser().parse_args([command, *REQUIRED_FLAGS[command]])
            got = vars(args)[dest]
            assert got == default and type(got) is type(default), (command, got)


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "epochs = 3\n"
            "k = 4   # trailing comment\n"
            'backend = "mock"\n'
            "\n"
        )
        assert load_config_file(cfg) == {
            "epochs": "3", "k": "4", "backend": "mock",
        }

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs 3\n")
        from spikecast.errors import ConfigError
        with pytest.raises(ConfigError, match=":1"):
            load_config_file(cfg)

    def test_file_overrides_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nk = 4\n")
        out = tmp_path / "train"
        args = [a for a in model_args(corpus, out)
                if True]  # keep list copy
        for flag in ("--k", "--epochs"):
            i = args.index(flag)
            del args[i:i + 2]
        assert run_cli("train", *args, "--config", cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3
        assert manifest["config"]["k"] == 4

    def test_flag_beats_file(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\n")
        out = tmp_path / "train"
        args = model_args(corpus, out)  # carries --epochs 2
        assert run_cli("train", *args, "--config", cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2

    def test_unknown_key_exits_one(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beans = 12\n")
        assert run_cli("train", *model_args(corpus, tmp_path / "t"),
                       "--config", cfg) == 1
        assert "beans" in capsys.readouterr().err

    def test_bad_value_exits_one(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        assert run_cli("train", *model_args(corpus, tmp_path / "t"),
                       "--config", cfg) == 1

    def test_file_sets_required_options(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{name} = {corpus[name]}\n"
                               for name in ("prices", "labels", "embeddings")))
        args = model_args(corpus, tmp_path / "train")
        del args[: args.index("--out")]  # --prices, --labels, --embeddings
        assert run_cli("train", *args, "--config", cfg) == 0
        manifest = json.loads((tmp_path / "train" / "manifest.json").read_text())
        assert manifest["config"]["prices"] == str(corpus["prices"])
        capsys.readouterr()
        cfg.write_text(f"prices = {corpus['prices']}\nlabels = {corpus['labels']}\n")
        assert run_cli("train", *args, "--config", cfg) == 1
        err = capsys.readouterr().err
        assert "the following arguments are required: --embeddings" in err

    def test_label_threshold_in_a_shared_config(self, corpus, tmp_path, capsys):
        """label's spike threshold in percent, in a file train, eval and ablate
        share: train, which takes no threshold, runs; eval rejects it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold = 25\n")
        out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, out), "--config", cfg) == 0
        assert "threshold" not in json.loads((out / "manifest.json").read_text())["config"]
        assert run_cli("label", "--in", corpus["prices"], "--config", cfg,
                       "--out", tmp_path / "label") == 0
        capsys.readouterr()
        assert run_cli("eval", *model_args(corpus, tmp_path / "eval"), "--config", cfg) == 1
        assert capsys.readouterr().err == (
            "error: threshold must be in [0, 1], got 25.0\n")

    def test_key_of_another_command_accepted(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("holdout = 0.3\n")
        out = tmp_path / "train"
        assert run_cli("train", *model_args(corpus, out), "--config", cfg) == 0
        assert "holdout" not in json.loads((out / "manifest.json").read_text())["config"]

    def test_bad_value_of_another_commands_key_exits_one(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = abc\n")
        assert run_cli("label", "--in", corpus["prices"], "--config", cfg,
                       "--out", tmp_path / "o") == 1
        assert "config key epochs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_key_exits_one_naming_both_lines(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\n# a comment\nk = 4\nepochs = 5\n")
        assert run_cli("train", *model_args(corpus, tmp_path / "t"), "--config", cfg) == 1
        assert f"{cfg}:4: key 'epochs' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("text,value", [
        *((t, True) for t in ("1", "true", "yes", "on", "TRUE", "On")),
        *((t, False) for t in ("0", "false", "no", "off", "False", "OFF")),
    ])
    def test_boolean_spellings(self, text, value):
        args = build_parser({"force": text}).parse_args(["label", "--in", "p.csv"])
        assert args.force is value

    @pytest.mark.parametrize("text", ["ture", "", "2", "y", "enabled"])
    def test_other_boolean_text_exits_one(self, corpus, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"force = {text}\n")
        assert run_cli("label", "--in", corpus["prices"], "--config", cfg,
                       "--out", tmp_path / "o") == 1
        assert f"config key force: {text!r} is not a boolean" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("distill", "--years", "1970:1970",
                       "--config", tmp_path / "nope.cfg",
                       "--out", tmp_path / "o") == 1


# Values a mutant puts in place of a JSON value: most have the wrong type
# for where they land, the rest a wrong value.
WRONG_VALUES = (None, True, "x", "0.5", -1, 2.5, 10**400, float("nan"), [], {})


def _json_paths(node, path):
    """The path of `node` and of every value under it."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _json_paths(value, (*path, key))


def _mutant(data, raw: bytes, suffix: str) -> bytes:
    """`raw` truncated, with one byte overwritten or two swapped, or, for a
    JSON document or a JSON-lines store, with one value replaced or one key
    of an object dropped."""
    kinds = ("truncate", "overwrite", "swap") + (("retype", "drop") if "json" in suffix else ())
    kind = data.draw(st.sampled_from(kinds))
    at = st.integers(0, len(raw) - 1)
    if kind == "truncate":
        return raw[:data.draw(at)]
    if kind == "overwrite":
        i = data.draw(at)
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1:]
    if kind == "swap":
        i, j = sorted((data.draw(at), data.draw(at)))
        return raw[:i] + raw[j:j + 1] + raw[i + 1:j] + raw[i:i + 1] + raw[j + 1:]
    docs = [json.loads(line) for line in (raw.splitlines() if suffix == ".jsonl" else [raw])]
    paths = list(_json_paths(docs, ()))[1:]
    if kind == "drop":  # a key of an object
        paths = [path for path in paths if isinstance(path[-1], str)]
    *parents, last = data.draw(st.sampled_from(paths))
    parent = docs
    for key in parents:
        parent = parent[key]
    if kind == "retype":
        parent[last] = data.draw(st.sampled_from(WRONG_VALUES))
    else:
        del parent[last]
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode()


@pytest.fixture(scope="module")
def valid_run(corpus, tmp_path_factory):
    """The inputs of every reader, from one small valid run over `corpus`."""
    root = tmp_path_factory.mktemp("valid-run")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # tiny folds may be single-class
        assert run_cli("train", *model_args(corpus, root / "train")) == 0
        assert run_cli("eval", *model_args(corpus, root / "eval"), "--variant", "no_news") == 0
        assert run_cli("ablate", *model_args(corpus, root / "ablate"),
                       "--variants", "logreg", "--folds", "3") == 0
    params = load_checkpoint(root / "train" / "checkpoint.json")
    params.norm_stats = {"composite": (10.0, 2.5)}  # so that mutants reach their reader
    save_checkpoint(params, root / "checkpoint.json")
    (root / "mutants").mkdir()
    config = root / "run.cfg"
    config.write_text("# shared by every command\nthreshold = 25\nseed = 3\n"
                      "epochs = 3\ndropout = 0.1\nforce = yes\n")
    return {"checkpoint": root / "checkpoint.json", "summaries": corpus["summaries"],
            "embeddings": corpus["embeddings"], "prices": corpus["prices"],
            "labels": corpus["labels"], "summary": root / "ablate" / "summary.json",
            "roc": root / "eval" / "roc.csv", "history": root / "train" / "history.csv",
            "config": config, "mutants": root / "mutants"}


def _read_checkpoint(path, corpus, out):
    try:
        load_checkpoint(path)
    except SpikecastError:
        pass


def _train_on_labels(path, corpus, out):
    args = model_args(corpus, out)
    args[args.index("--labels") + 1] = path
    return run_cli("train", *args)


# reader -> run(mutant, corpus, out): the library reader of a checkpoint,
# which no command reads, and for every other input a command that reads it.
READERS = {
    "checkpoint": _read_checkpoint,
    "summaries": lambda p, corpus, out: run_cli("embed", "--summaries", p, "--mock-dim", "8",
                                                "--out", out),
    "embeddings": lambda p, corpus, out: run_cli("reduce", "--embeddings", p, "--dim", "3",
                                                 "--out", out),
    "prices": lambda p, corpus, out: run_cli("label", "--in", p, "--out", out),
    "labels": _train_on_labels,
    **{f"report --{option}": (lambda p, corpus, out, option=option:
                              run_cli("report", f"--{option}", p, "--out", out))
       for option in ("labels", "summary", "roc", "history")},
    "config": lambda p, corpus, out: run_cli("label", "--in", corpus["prices"], "--config", p,
                                             "--out", out),
}


class TestMalformedInput:
    @pytest.mark.filterwarnings("ignore::UserWarning")  # tiny folds may be single-class
    @pytest.mark.parametrize("reader", READERS)
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_a_mutant_fails_with_a_typed_error_or_an_exit_code(self, corpus, valid_run,
                                                               reader, data):
        """A truncated, byte-changed or retyped input ends in exit 0, 1 or 2
        through `main`, or a SpikecastError from the library reader, never a
        raw exception."""
        source = valid_run[reader.removeprefix("report --")]
        mutant = valid_run["mutants"] / source.name
        mutant.write_bytes(_mutant(data, source.read_bytes(), source.suffix))
        out = valid_run["mutants"] / "out"
        shutil.rmtree(out, ignore_errors=True)
        assert READERS[reader](mutant, corpus, out) in (None, 0, 1, 2)
