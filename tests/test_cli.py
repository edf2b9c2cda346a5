"""End-to-end command-line runs in scratch directories."""
import hashlib
import json

import pytest

from spikecast.cli import load_config_file, main

from conftest import brute_force_spikes, price_csv_text


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

    def test_unknown_variant_exits_one(self, corpus, tmp_path, capsys):
        assert run_cli("ablate", *model_args(corpus, tmp_path / "x"),
                       "--variants", "full,bogus") == 1
        assert "bogus" in capsys.readouterr().err


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

    def test_missing_config_file(self, tmp_path):
        assert run_cli("distill", "--years", "1970:1970",
                       "--config", tmp_path / "nope.cfg",
                       "--out", tmp_path / "o") == 1
