"""sha256 of every artifact the pipeline writes for benchmark workloads' inputs.

    python tests/artifact_digests.py --workloads cv-paper,wide-news,sgd-long \
        --seeds 1,2,3 --root /tmp/digests > digests.txt

For each workload and seed it writes the inputs through perfbench/workloads.py
(which it only reads), then runs ingest, label, distill, embed, reduce, train
and eval (each once per model variant), ablate (every model variant and the
logistic baseline) and report (all four inputs) through `spikecast.cli.main`
in this process. It prints one `sha256  relpath` line per file under --root
except the manifests, which hold clocks, sorted by path. Run it in two checkouts and diff the outputs to see
whether a change moved any artifact's bytes. Not a test module: pytest does
not collect it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # one BLAS thread, as the benchmark runs, before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spikecast.cli  # noqa: E402
from spikecast import BASELINE_VARIANT, VARIANTS  # noqa: E402
from workloads import WORKLOADS, Workload, stage_argv, write_inputs  # noqa: E402

STAGES = ("ingest", "label", "distill", "embed", "reduce", "train", "eval", "ablate",
          "report")


def unbenched_argv(stage: str, prices: Path, root: Path) -> list[str]:
    """Command line of ingest or report, which no workload runs, without
    --seed and --out. report reads the full variant's roc and history."""
    if stage == "ingest":
        return ["ingest", "--in", str(prices)]
    return ["report", "--labels", str(root / "label" / "labels.csv"),
            "--summary", str(root / "ablate" / "summary.json"),
            "--roc", str(root / "eval-full" / "roc.csv"),
            "--history", str(root / "train-full" / "history.csv")]


def run(workload: Workload, seed: int, root: Path) -> None:
    """Write workload's inputs for `seed` and every stage's artifacts under
    root: one directory per stage, and one per variant for train and eval."""
    inputs = write_inputs(workload, seed, root / "inputs")
    prices = root / "inputs" / "prices.csv"
    for stage in STAGES:
        if stage in ("ingest", "report"):
            argv = unbenched_argv(stage, prices, root) + [
                "--seed", str(inputs.program_seed), "--out", str(root / stage)]
        else:
            argv = stage_argv(workload, stage, prices, root, inputs.program_seed)
        if stage == "ablate":
            runs = [argv + ["--variants", ",".join(VARIANTS + (BASELINE_VARIANT,))]]
        elif stage in ("train", "eval"):
            runs = [argv + ["--variant", v, "--out", str(root / f"{stage}-{v}")]
                    for v in VARIANTS]
        else:
            runs = [argv]
        for args in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = spikecast.cli.main(args)
            if code != 0:
                raise RuntimeError(f"{' '.join(args)}: exit code {code}")


def digests(root: Path) -> dict[str, str]:
    """relpath -> sha256 hex of every file under root but the manifests."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="artifact_digests.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--root", required=True, help="work directory, replaced")
    args = parser.parse_args(argv)
    root = Path(args.root)
    shutil.rmtree(root, ignore_errors=True)
    for name in args.workloads.split(","):
        for seed in args.seeds.split(","):
            run(WORKLOADS[name], int(seed), root / f"{name}-seed{seed}")
    for relpath, digest in digests(root).items():
        print(f"{digest}  {relpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
