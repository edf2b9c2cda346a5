"""tests/artifact_digests.py, run on one tiny input."""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import artifact_digests  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(name="tiny", why="tests", stages=(), years=30, mock_dim=8, k=3,
                batch_size=4, epochs=1, dim=3, h=4, h_a=4, folds=2)


def test_digests_cover_every_artifact_but_manifests(tmp_path):
    artifact_digests.run(TINY, 3, tmp_path)
    got = artifact_digests.digests(tmp_path)
    assert sorted(got) == [
        "ablate/report.csv", "ablate/summary.json", "distill/summaries.jsonl",
        "embed/embeddings.jsonl",
        *(f"eval-{v}/{name}" for v in ("full", "no_attention", "no_news", "no_pca")
          for name in ("metrics.json", "roc.csv")),
        "ingest/composite.csv", "ingest/normalized.csv",
        "inputs/prices.csv", "label/labels.csv", "reduce/basis.json",
        "reduce/reduced.jsonl",
        *(f"report/plot_{name}.csv" for name in ("ablation", "history", "roc", "spikes")),
        *(f"train-{v}/{name}" for v in ("full", "no_attention", "no_news", "no_pca")
          for name in ("checkpoint.json", "history.csv")),
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in got.values())
    report = (tmp_path / "ablate" / "report.csv").read_text()
    assert {line.split(",")[0] for line in report.splitlines()[1:]} == {
        "full", "no_attention", "no_pca", "no_news", "logreg"}
    assert (tmp_path / "train-full" / "manifest.json").exists()
    for plot, source in (("roc", "eval-full/roc.csv"), ("history", "train-full/history.csv")):
        assert got[f"report/plot_{plot}.csv"] == got[source]


def test_main_prints_one_line_per_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(artifact_digests.WORKLOADS, "tiny", TINY)
    assert artifact_digests.main(["--workloads", "tiny", "--seeds", "3",
                                  "--root", str(tmp_path / "digests")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 30
    assert all(re.fullmatch("[0-9a-f]{64}  tiny-seed3/[^ ]+", line) for line in lines)
