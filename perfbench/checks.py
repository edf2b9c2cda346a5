"""Output checks run on every pass; any message they return fails the pass."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from spikecast.model import load_checkpoint, save_checkpoint

from workloads import FIRST_YEAR, Inputs, Workload


def digests(root: Path) -> dict[str, str]:
    """sha256 of every artifact under a pass root; manifests hold paths and
    wall-clock stamps, so they are left out."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"header {reader.fieldnames}, expected {header}")
        return list(reader)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _label(w: Workload, inputs: Inputs, d: Path) -> None:
    rows = _rows(d / "labels.csv", ["year", "avg_price", "pct_change", "spike"])
    got = [(int(r["year"]), int(r["spike"])) for r in rows]
    want = [(FIRST_YEAR + i, int(s)) for i, s in enumerate(inputs.spikes) if i > 0]
    if got != want:
        raise ValueError("spike labels differ from the planted ones")


def _distill(w: Workload, inputs: Inputs, d: Path) -> None:
    records = _jsonl(d / "summaries.jsonl")
    years = [r["year"] for r in records]
    if years != list(range(FIRST_YEAR, FIRST_YEAR + w.years)):
        raise ValueError(f"{len(years)} summaries, expected {w.years} years")
    if not all(r["verified"] for r in records):
        raise ValueError("unverified summary from the accepting mock backend")


def _embedding_rows(path: Path, years: int, dim: int) -> np.ndarray:
    header, *records = _jsonl(path)
    if header.get("dim") != dim or len(records) != years:
        raise ValueError(f"{path.name}: {len(records)} rows of dim "
                         f"{header.get('dim')}, expected {years} of {dim}")
    rows = np.array([r["values"] for r in records], dtype=float)
    if rows.shape != (years, dim) or not np.isfinite(rows).all():
        raise ValueError(f"{path.name}: malformed or non-finite rows")
    return rows


def _embed(w: Workload, inputs: Inputs, d: Path) -> None:
    _embedding_rows(d / "embeddings.jsonl", w.years, w.mock_dim)


def _reduce(w: Workload, inputs: Inputs, d: Path) -> None:
    doc = json.loads((d / "basis.json").read_text())
    comps = np.array(doc["components"], dtype=float).reshape(doc["components_shape"])
    dim = comps.shape[1]
    if not np.allclose(comps.T @ comps, np.eye(dim), rtol=0.0, atol=1e-9):
        raise ValueError("basis columns are not orthonormal")
    # Oracle of acceptance criterion 3: eigenvalues of the population
    # covariance of the rows the basis was fitted on.
    rows = _embedding_rows(d.parent / "embed" / "embeddings.jsonl",
                           w.years, w.mock_dim)
    centered = rows - rows.mean(axis=0)
    oracle = np.linalg.eigh(centered.T @ centered / len(rows))[0][::-1][:dim]
    got = np.array(doc["explained_variance"], dtype=float)
    if not np.allclose(got, oracle, rtol=1e-8, atol=1e-12 * oracle[0]):
        raise ValueError("explained variance differs from numpy.linalg.eigh")
    _embedding_rows(d / "reduced.jsonl", w.years, dim)


def _train(w: Workload, inputs: Inputs, d: Path) -> None:
    path = d / "checkpoint.json"
    again = d.parent / "checkpoint.resaved.json"
    try:
        save_checkpoint(load_checkpoint(path), again)
        if again.read_bytes() != path.read_bytes():
            raise ValueError("checkpoint save -> load -> save is not byte-identical")
    finally:
        again.unlink(missing_ok=True)
    rows = _rows(d / "history.csv", ["epoch", "train_loss", "val_loss"])
    if [int(r["epoch"]) for r in rows] != list(range(1, w.epochs + 1)):
        raise ValueError(f"history has {len(rows)} epochs, budget is {w.epochs}")
    if not all(math.isfinite(float(r[k])) for r in rows
               for k in ("train_loss", "val_loss")):
        raise ValueError("non-finite loss in history")


def _eval(w: Workload, inputs: Inputs, d: Path) -> None:
    auc = json.loads((d / "metrics.json").read_text())["auc"]
    points = [(float(r["fpr"]), float(r["tpr"]))
              for r in _rows(d / "roc.csv", ["fpr", "tpr"])]
    area = sum((x1 - x0) * (y0 + y1) / 2.0
               for (x0, y0), (x1, y1) in zip(points, points[1:]))
    if auc is None or abs(area - auc) > 1e-9:
        raise ValueError(f"area under roc.csv {area!r} != metrics.json auc {auc!r}")


def _ablate(w: Workload, inputs: Inputs, d: Path) -> None:
    rows = _rows(d / "report.csv",
                 ["variant", "fold", "auc", "accuracy", "precision_w",
                  "recall_w", "f1_w"])
    want = [(v, str(f)) for v in w.variants for f in range(1, w.folds + 1)]
    if [(r["variant"], r["fold"]) for r in rows] != want:
        raise ValueError("report.csv rows differ from variants x folds")
    summary = json.loads((d / "summary.json").read_text())
    if sorted(summary) != sorted(w.variants) or any(
            block["n_folds"] != w.folds for block in summary.values()):
        raise ValueError("summary.json does not cover every variant and fold")


CHECKS = {"label": _label, "distill": _distill, "embed": _embed,
          "reduce": _reduce, "train": _train, "eval": _eval, "ablate": _ablate}


def check_pass(w: Workload, inputs: Inputs, root: Path) -> list[str]:
    """Failure messages for one pass's artifacts; empty when all are correct."""
    failures = []
    for stage in w.stages:
        d = root / stage
        try:
            manifest = json.loads((d / "manifest.json").read_text())
            if manifest["command"] != stage:
                raise ValueError(f"manifest records {manifest['command']!r}")
            CHECKS[stage](w, inputs, d)
        except Exception as exc:  # any unreadable or wrong artifact fails the pass
            failures.append(f"{stage}: {type(exc).__name__}: {exc}")
    return failures
