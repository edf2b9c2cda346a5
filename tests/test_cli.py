"""End-to-end command-line runs in scratch directories."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spikecast.cli import (
    _dumps_indent2,
    _hyper,
    _load_aligned,
    _train_config,
    build_parser,
    load_config_file,
    main,
)
from spikecast.model import VARIANTS, make_windows

from conftest import brute_force_spikes, price_csv_text, reference_holdout

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


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


def run_single_class_tail(corpus, tmp_path, command, out, *extra):
    """`command` run on labels whose last 12 years are all 0, in a child
    process, so that warnings reach stderr as they do for a user."""
    header, *rows = corpus["labels"].read_text().splitlines()
    rows[-12:] = [row[: row.rindex(",")] + ",0" for row in rows[-12:]]
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join([header, *rows]) + "\n")
    args = model_args(corpus, out)
    args[args.index("--labels") + 1] = labels
    return subprocess.run(
        [sys.executable, "-m", "spikecast.cli", command, *map(str, args), *extra],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


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
        assert run_cli("reduce", "--embeddings", corpus["embeddings"],
                       "--dim", "50", "--out", out) == 0
        lines = (out / "reduced.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["dim"] == 8  # embedding width is the cap

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
        assert doc["format"] == "spikecast-checkpoint/2"
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


class TestEval:
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
            _train_config(args), _hyper(args), args.dim, args.threshold,
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

    def test_unknown_variant_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("ablate", *model_args(corpus, tmp_path / "x"),
                       "--variants", "full,bogus") == 1
        assert "bogus" in capsys.readouterr().err

    def test_repeated_variant_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("ablate", *model_args(corpus, tmp_path / "x"),
                       "--variants", "no_news,logreg,no_news") == 1
        assert "repeated variants: no_news" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


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

    def test_missing_config_file(self, tmp_path):
        assert run_cli("distill", "--years", "1970:1970",
                       "--config", tmp_path / "nope.cfg",
                       "--out", tmp_path / "o") == 1
