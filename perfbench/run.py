"""spikecast benchmark entry point.

    python3 perfbench/run.py --workload cv-paper --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its `src/`.
The last line of standard output is the JSON result; see perfbench/README.md.
"""
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: the matrices are tiny, and extra threads only add noise on
# a small shared machine. Must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(workload: str, seed: str, directory: str) -> float:
    """CPU seconds to import spikecast and generate and write the inputs."""
    start = time.process_time()
    import spikecast.cli  # noqa: F401
    from workloads import WORKLOADS, write_inputs
    write_inputs(WORKLOADS[workload], int(seed), Path(directory))
    return time.process_time() - start


if __name__ == "__main__":
    if not (ROOT / "src" / "spikecast" / "__init__.py").is_file():
        print(f"error: no spikecast package under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if sys.argv[1:2] == ["--setup"]:
        # Child mode used by the benchmark to time its own set-up.
        print(setup(*sys.argv[2:5]))
        sys.exit(0)
    from bench import main
    sys.exit(main(sys.argv[1:], ROOT))
