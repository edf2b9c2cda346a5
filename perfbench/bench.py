"""Benchmark runner: set-up, one warm-up pass, timed passes, optional tracing.

A pass runs the workload's stage sequence through `spikecast.cli.main` in
this process, into a fresh output root, then checks every artifact. Time is
process CPU time, scaled by interleaved calibrations (see `Pass`): on a
shared virtual machine both wall and CPU time move by tens of percent
between passes with what other tenants run.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spikecast.cli

from checks import check_pass, digests
from tracing import (LAYERS, PER_LAYER, Tracer, is_count, patched, summarize,
                     write_spans)
from workloads import WORKLOADS, Inputs, Workload, stage_argv, write_inputs

END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUPS = 7          # set-up is timed at least this many times; median reported
MIN_TIMED = 2       # timed passes per run, even when one outlasts --seconds
# calibrate() on this benchmark's reference machine (2-vCPU VM, quiet spell).
REFERENCE_CALIBRATION_S = 0.012
SEGMENT_S = 0.5     # CPU seconds of work between two calibrations, at least
# Calls after which an untraced pass may calibrate: the long-running steps
# inside the stages, so that a segment rarely outlasts a slow spell.
CHECKPOINTS = {
    "model.train": ["spikecast.cli:train", "spikecast.evaluation:train"],
    "pca.fit_pca": ["spikecast.cli:fit_pca", "spikecast.evaluation:fit_pca"],
}


def calibrate(iterations: int = 2_000) -> float:
    """CPU seconds of a fixed mix of interpreter and small-array work, the
    kind a pass is made of; it tracks how fast this machine runs right now.
    The median of three samples shrugs off a single interrupted one."""
    w = np.random.default_rng(0).normal(size=(32, 128)) * 0.1
    samples = []
    for _ in range(3):
        h = np.zeros(32)
        start = time.process_time()
        for _ in range(iterations):
            g = 1.0 / (1.0 + np.exp(-(h @ w)))
            h = np.tanh(g[:32] * g[32:64] + g[64:96])
        samples.append(time.process_time() - start)
    return statistics.median(samples)


@dataclass
class Pass:
    """One pass. Its time is cut into segments of at least SEGMENT_S CPU
    seconds, with a calibration before the first and after each; a segment's
    CPU time is scaled by the mean of the calibrations either side of it, so
    a slow spell of a shared host cancels out. Calibrations are not counted,
    in the pass or in any span open around them."""

    index: int
    tracer: Tracer | None = None
    cpu_s: float = 0.0        # CPU seconds of the stages
    scaled_s: float = 0.0     # the same, scaled to the reference machine
    wall_s: float = 0.0
    calibrations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def start(self) -> None:
        self.calibrations.append(calibrate())
        self._cpu, self._wall = time.process_time(), time.perf_counter()

    def checkpoint(self, last: bool = False) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        segment = cpu - self._cpu
        if segment < SEGMENT_S and not last:
            return
        self.calibrations.append(calibrate())
        self.cpu_s += segment
        self.wall_s += wall - self._wall
        self.scaled_s += segment * 2 * REFERENCE_CALIBRATION_S / sum(
            self.calibrations[-2:])
        self._cpu, self._wall = time.process_time(), time.perf_counter()
        if self.tracer is not None:
            self.tracer.pause(self._cpu - cpu)


def _checkpointing(p: Pass):
    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            p.checkpoint()
            return result
        return wrapper
    return make


def run_pass(w: Workload, inputs: Inputs, prices: Path, root: Path,
             index: int, tracer: Tracer | None = None) -> Pass:
    """One pass of the stage sequence into `root`, timed, then checked."""
    result = Pass(index=index, tracer=tracer)
    out, err = io.StringIO(), io.StringIO()
    traced = tracer.installed() if tracer else contextlib.nullcontext()
    with traced, patched(CHECKPOINTS, _checkpointing(result)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result.start()
        try:
            for stage in w.stages:
                argv = stage_argv(w, stage, prices, root, inputs.program_seed)
                code = spikecast.cli.main(argv)
                if code != 0:
                    result.failures.append(f"{stage}: exit code {code}")
                    break
                result.checkpoint(last=stage == w.stages[-1])
        except Exception:  # a crashing stage fails the pass, not the run
            result.failures.append(traceback.format_exc(limit=-3))
    if result.failures:
        result.failures.append(err.getvalue()[-2000:])
    else:
        result.failures = check_pass(w, inputs, root)
    if tracer is not None:
        result.layers = tracer.metrics(scale=result.scaled_s / result.cpu_s)
    return result


def setup_once(w: Workload, seed: int, directory: Path, expected: bytes) -> float:
    """CPU seconds of one set-up in a fresh interpreter, which must write
    the same inputs as this process did."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--setup",
         w.name, str(seed), str(directory)],
        capture_output=True, text=True, timeout=120, check=True)
    if (directory / "prices.csv").read_bytes() != expected:
        raise RuntimeError(f"set-up wrote different inputs for seed {seed}")
    shutil.rmtree(directory)
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _cpu_ticks() -> list[int] | None:
    """Aggregate CPU ticks from /proc/stat (user ... steal), if available."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(root: Path, seed: int, load_start, ticks_start) -> dict:
    ticks_end = _cpu_ticks()
    steal = None
    if ticks_start and ticks_end:
        delta = [b - a for a, b in zip(ticks_start, ticks_end)]
        steal = round(delta[7] / sum(delta), 4) if sum(delta) else 0.0
    return {
        "seed": seed,
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(v, 2) for v in load_start],
        "loadavg_end": [round(v, 2) for v in os.getloadavg()],
        "cpu_steal_share": steal,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} of {len(values)}, "
            f"min {min(values):.4f}, max {max(values):.4f}")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    load_start, ticks_start = os.getloadavg(), _cpu_ticks()
    work = root / ".perfbench" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(w, args.seed, work / "inputs")
    prices = work / "inputs" / "prices.csv"
    print(f"workload {w.name}: {w.work}", flush=True)
    calibrate()  # the first call pays for page faults and numpy start-up

    setups: list[float] = []
    passes: list[Pass] = []
    spans: list[tuple[int, list]] = []
    reference: dict[str, str] = {}
    started = 0.0
    while True:
        index = len(passes)
        # One set-up per pass spreads the set-up samples over the run.
        setup = setup_once(w, args.seed, work / "setup", prices.read_bytes())
        # Pass 0 warms up untimed; with --trace 1 the timed passes alternate
        # untraced, traced, so the overhead is measured in the same run.
        tracer = Tracer() if args.trace and index > 0 and index % 2 == 0 else None
        root_i = work / f"pass-{index}"
        p = run_pass(w, inputs, prices, root_i, index, tracer)
        setups.append(setup * REFERENCE_CALIBRATION_S / p.calibrations[0])
        digest = digests(root_i)
        if index == 0:
            reference = digest
            started = time.perf_counter()
        elif digest != reference:
            changed = sorted(k for k in set(digest) | set(reference)
                             if digest.get(k) != reference.get(k))
            p.failures.append(f"artifacts differ from pass 0: {changed}")
        if tracer is not None:
            spans.append((index, tracer.spans))
            first = next((q for q in passes if q.traced), p)
            moved = [k for k in p.layers if is_count(k) and p.layers[k] != first.layers[k]]
            if moved:
                p.failures.append(f"counts differ from pass {first.index}: {moved}")
        if not p.failures:
            shutil.rmtree(root_i)
        passes.append(p)
        print(f"pass {index}{' warm-up' if index == 0 else ''}"
              f"{' traced' if p.traced else ''}: cpu {p.cpu_s:.3f} s, "
              f"scaled {p.scaled_s:.3f} s, wall {p.wall_s:.3f} s, "
              f"calibration {statistics.median(p.calibrations):.4f} s, "
              f"{'FAILED' if p.failures else 'ok'}", flush=True)
        for message in p.failures:
            print(f"  {message.strip()}", file=sys.stderr)
        timed = passes[1:]
        n_traced = sum(1 for q in timed if q.traced)
        enough = (len(timed) - n_traced >= MIN_TIMED - args.trace
                  and n_traced >= args.trace)
        # Stop when the next pass would end after --seconds.
        if enough and (time.perf_counter() - started
                       + statistics.median(q.wall_s for q in timed) > args.seconds):
            break
    while len(setups) < SETUPS:
        setup = setup_once(w, args.seed, work / "setup", prices.read_bytes())
        setups.append(setup * REFERENCE_CALIBRATION_S / calibrate())

    failed = sum(1 for p in passes if p.failures)
    plain = [p for p in passes[1:] if not p.traced]
    traced = [p for p in passes if p.traced]
    calibrations = [c for p in passes for c in p.calibrations]
    cpu = [p.scaled_s for p in plain]
    print(f"calibration {_spread(calibrations)} s; times are scaled to a machine "
          f"where it takes {REFERENCE_CALIBRATION_S} s")
    print(f"setup_s {_spread(setups)} s")
    print(f"cpu_s {_spread(cpu)} s")
    print(f"unscaled CPU per pass {_spread([p.cpu_s for p in plain])} s")
    print(f"wall_s {_spread([p.wall_s for p in plain])} s (unscaled)")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
    print(f"failed_ratio {failed}/{len(passes)} = {failed / len(passes):.4f}")
    if args.trace:
        values = summarize([p.layers for p in traced])
        values["trace.cpu_s"] = statistics.median(p.scaled_s for p in traced)
        values["trace.overhead_ratio"] = values["trace.cpu_s"] / statistics.median(cpu)
        units = PER_LAYER
        write_spans(work / "spans.jsonl", spans)
        for layer in sorted(LAYERS, key=lambda k: -values[f"{k}.self_s"]):
            share = values[f"{layer}.self_s"] / values["trace.cpu_s"]
            print(f"layer {layer}: self {values[f'{layer}.self_s']:.4f} s, "
                  f"{share:.1%} of a traced pass")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print("provenance " + json.dumps(provenance(root, args.seed, load_start,
                                                ticks_start)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
