"""Benchmark workloads: seeded input generation and each workload's stage argv.

A workload fixes the amount of work in one pass (years, embedding width,
window length, batch size, epoch budget) and the stage sequence that drives
the `spikecast` CLI. The workload seed is the only source of variation: it
picks the price path and the program seed handed to every stage, so the same
seed always yields the same inputs and the same artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMODITIES = ("crude_oil", "natural_gas", "coal")
FIRST_YEAR = 1900
# Every block of BLOCK consecutive label years holds one or two spikes, so
# any 9 consecutive targets (a CV test fold, a hold-out tail) hold both
# classes and every AUC the pipeline computes is defined.
BLOCK = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    years: int
    mock_dim: int
    k: int
    batch_size: int
    epochs: int
    dim: int = 16
    h: int = 32
    h_a: int = 32
    folds: int = 5
    variants: tuple[str, ...] = ("full", "no_attention", "no_news", "logreg")

    @property
    def work(self) -> str:
        """One-line statement of the work in one pass."""
        return (f"{self.years} years, mock-dim {self.mock_dim}, k={self.k}, "
                f"batch {self.batch_size}, {self.epochs} epochs, "
                f"stages {'/'.join(self.stages)}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cv-paper",
            why="the paper's ablation table at its shapes; nn kernels, Adam "
                "and the training loop dominate, PCA at d=16 is a few percent",
            stages=("label", "distill", "embed", "ablate"),
            years=64, mock_dim=16, k=5, batch_size=8, epochs=5,
        ),
        Workload(
            name="wide-news",
            why="one model on 128-wide embeddings; three d=128 PCA fits "
                "dominate, so it moves with PCA and store width, not kernels",
            stages=("label", "distill", "embed", "reduce", "train", "eval"),
            years=64, mock_dim=128, k=5, batch_size=8, epochs=2,
        ),
        Workload(
            name="sgd-long",
            why="160 years, 16-step windows, batch size 1: per-sample and "
                "long-recurrence cost and one Adam step per window",
            stages=("label", "distill", "embed", "train", "eval"),
            years=160, mock_dim=16, k=16, batch_size=1, epochs=1,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    prices_text: str
    program_seed: int
    spikes: tuple[bool, ...]   # planted label per year; year 0 has none


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Price table and program seed, a pure function of (workload, seed).

    Label years come in blocks of BLOCK with one or two spikes each. A spike
    year moves the cross-commodity average up by at least 31 percent, any
    other year by at most 16 percent, so the CLI's 25 percent rule recovers
    exactly the planted labels.
    """
    rng = np.random.default_rng([seed, workload.years])
    spikes = np.zeros(workload.years, dtype=bool)
    for lo in range(1, workload.years, BLOCK):
        size = min(BLOCK, workload.years - lo)
        picks = rng.choice(size, size=min(size, int(rng.integers(1, 3))),
                           replace=False)
        spikes[lo + picks] = True
    prices = np.array([20.0, 5.0, 40.0]) * rng.uniform(0.8, 1.2, size=3)
    lines = ["year," + ",".join(COMMODITIES)]
    for i in range(workload.years):
        if i > 0:
            common = (rng.uniform(1.35, 1.70) if spikes[i]
                      else rng.uniform(0.72, 1.12))
            prices = prices * common * rng.uniform(0.97, 1.03, size=3)
        lines.append(f"{FIRST_YEAR + i}," + ",".join(f"{p:.6f}" for p in prices))
    return Inputs(prices_text="\n".join(lines) + "\n",
                  program_seed=int(rng.integers(0, 2**16)),
                  spikes=tuple(bool(s) for s in spikes))


def write_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    inputs = make_inputs(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "prices.csv").write_text(inputs.prices_text)
    return inputs


def stage_argv(workload: Workload, stage: str, prices: Path, root: Path,
               program_seed: int) -> list[str]:
    """Command line of one stage, writing under root/<stage>."""
    last = FIRST_YEAR + workload.years - 1
    common = ["--seed", str(program_seed), "--out", str(root / stage)]
    backend = ["--backend", "mock", "--mock-dim", str(workload.mock_dim)]
    embeddings = root / "embed" / "embeddings.jsonl"
    # patience == epochs: early stopping never changes the work in a pass.
    model = [
        "--prices", str(prices), "--labels", str(root / "label" / "labels.csv"),
        "--embeddings", str(embeddings),
        "--k", str(workload.k), "--dim", str(workload.dim),
        "--h", str(workload.h), "--h-a", str(workload.h_a),
        "--batch-size", str(workload.batch_size),
        "--epochs", str(workload.epochs), "--patience", str(workload.epochs),
    ]
    if stage == "label":
        return ["label", "--in", str(prices)] + common
    if stage == "distill":
        return (["distill", "--years", f"{FIRST_YEAR}:{last}", "--in-flight", "1"]
                + backend + common)
    if stage == "embed":
        return (["embed", "--summaries", str(root / "distill" / "summaries.jsonl")]
                + backend + common)
    if stage == "reduce":
        return (["reduce", "--embeddings", str(embeddings),
                 "--dim", str(workload.dim)] + common)
    if stage in ("train", "eval"):
        return [stage] + model + common
    if stage == "ablate":
        return (["ablate"] + model + ["--variants", ",".join(workload.variants),
                                      "--folds", str(workload.folds)] + common)
    raise ValueError(f"unknown stage {stage!r}")
