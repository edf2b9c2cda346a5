"""Traced passes: wrap each layer's public functions from outside the package.

A span is recorded at every call of a wrapped function: name, start, end and
the index of the enclosing span. Each function is wrapped at the name its
caller looks up (`spikecast.model.lstm_forward`, not `spikecast.nn.lstm`),
because the package binds most of them with `from ... import`. Spans stay in
memory and are written out when the benchmark ends; `Tracer.installed()`
puts every original function back when the pass is over.

Times are process CPU seconds, the clock the end-to-end `cpu_s` uses.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# span name -> the call sites it wraps, as "module:attribute[.attribute]".
SPANS = {
    "cli.main": ["spikecast.cli:main"],
    "ingest.parse_price_table": ["spikecast.cli:parse_price_table"],
    "ingest.align_dataset": ["spikecast.cli:align_dataset"],
    "agents.orchestrate": ["spikecast.cli:orchestrate"],
    "agents.embed_summaries": ["spikecast.cli:embed_summaries"],
    "backends.mock.generate": ["spikecast.backends:MockBackend.generate"],
    "backends.mock.verify": ["spikecast.backends:MockBackend.verify"],
    "backends.mock.embed": ["spikecast.backends:MockBackend.embed"],
    "stores.summary.load": ["spikecast.stores:SummaryStore._load"],
    "stores.summary.write": ["spikecast.stores:SummaryStore.write"],
    "stores.embedding.load": ["spikecast.stores:EmbeddingStore._load"],
    "stores.embedding.write": ["spikecast.stores:EmbeddingStore.write"],
    "pca.fit_pca": ["spikecast.cli:fit_pca", "spikecast.evaluation:fit_pca"],
    "pca.transform": ["spikecast.cli:transform"],
    "pca.transform_rows": ["spikecast.model:transform_rows"],
    "evaluation.fit_fold_pca": ["spikecast.cli:fit_fold_pca",
                                "spikecast.evaluation:fit_fold_pca"],
    "evaluation.run_cv": ["spikecast.cli:run_cv"],
    "evaluation.baseline_logreg": ["spikecast.cli:baseline_logreg"],
    "evaluation.roc_auc": ["spikecast.cli:roc_auc", "spikecast.evaluation:roc_auc"],
    "evaluation.classification_metrics": [
        "spikecast.cli:classification_metrics",
        "spikecast.evaluation:classification_metrics",
    ],
    "model.train": ["spikecast.cli:train", "spikecast.evaluation:train"],
    "model.forward": ["spikecast.model:model_forward"],
    "model.backward": ["spikecast.model:model_backward"],
    "model.evaluate_loss": ["spikecast.model:evaluate_loss"],
    "model.predict": ["spikecast.cli:predict", "spikecast.evaluation:predict"],
    "model.save_checkpoint": ["spikecast.cli:save_checkpoint"],
    "nn.lstm.forward": ["spikecast.model:lstm_forward"],
    "nn.lstm.backward": ["spikecast.model:lstm_backward"],
    "nn.attention.forward": ["spikecast.model:attention_forward"],
    "nn.attention.backward": ["spikecast.model:attention_backward"],
    "nn.head.forward": ["spikecast.model:head_forward"],
    "nn.head.backward": ["spikecast.model:head_backward"],
    "nn.losses.bce": ["spikecast.model:bce_loss"],
    "nn.optim.adam_step": ["spikecast.model:adam_step"],
    "nn.optim.clip": ["spikecast.model:clip_global_norm"],
}

# Counted, not timed: a span per call would cost more than the function.
COUNTED = {
    "nn.ops.sigmoid": ["spikecast.nn.lstm:sigmoid", "spikecast.nn.head:sigmoid",
                       "spikecast.evaluation:sigmoid"],
    "cli.get_backend": ["spikecast.cli:get_backend"],
}

# Functions only some workloads call. Their self time would read 0 on every
# run of the others, so they report calls only and their time shows in
# their layer's `<layer>.self_s`.
PARTIAL = ("pca.transform", "model.save_checkpoint", "evaluation.run_cv",
           "evaluation.baseline_logreg")


def layer_of(span: str) -> str:
    parts = span.split(".")
    return ".".join(parts[:2]) if parts[0] == "nn" else parts[0]


LAYERS = tuple(dict.fromkeys(layer_of(s) for s in SPANS))

# metric name -> unit, in the order the benchmark prints them.
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = "count"
    if _span not in PARTIAL:
        PER_LAYER[f"{_span}.self_s"] = "s"
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "nn.ops.sigmoid.calls": "count",
    "model.optimizer_steps": "count",
    "model.window_epochs": "count",
    "model.epochs_run": "count",
    "model.best_epoch": "count",
    "model.useful_epoch_ratio": "ratio",
    "model.save_checkpoint.bytes": "bytes",
    "stores.summary.bytes": "bytes",
    "stores.embedding.bytes": "bytes",
    "pca.rank_caps": "count",
    "agents.generate_calls": "count",
    "agents.verify_calls": "count",
    "agents.accept_ratio": "ratio",
    "trace.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _resolve(site: str):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(table: dict[str, list[str]], make):
    """Replace each call site of each name in `table` by make(name, original)
    for the duration of the block; every original is put back afterwards."""
    saved = []
    try:
        for name, sites in table.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Hooks run after the wrapped call returns: (tracer, args, kwargs, result).
def _after_forward(tracer, args, kwargs, result):
    if kwargs.get("train", args[2] if len(args) > 2 else False):
        tracer.counts["model.window_epochs"] += 1


def _after_train(tracer, args, kwargs, result):
    history = result[1]
    vals = [val for _, _, val in history]
    tracer.counts["model.epochs_run"] += len(history)
    tracer.counts["model.best_epoch"] += vals.index(min(vals)) + 1


def _after_fit_fold_pca(tracer, args, kwargs, result):
    requested = kwargs.get("d_prime", args[1] if len(args) > 1 else None)
    if result[1].d_prime < requested:
        tracer.counts["pca.rank_caps"] += 1


def _after_save_checkpoint(tracer, args, kwargs, result):
    tracer.counts["model.save_checkpoint.bytes"] += _file_bytes(args[1])


def _after_store_write(key):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += _file_bytes(args[0].path)
    return hook


def _after_orchestrate(tracer, args, kwargs, result):
    tracer.counts["agents.accepted"] += sum(1 for s in result.values() if s.verified)


def _after_get_backend(tracer, args, kwargs, result):
    tracer.backends.append(result)


HOOKS = {
    "model.forward": _after_forward,
    "model.train": _after_train,
    "evaluation.fit_fold_pca": _after_fit_fold_pca,
    "model.save_checkpoint": _after_save_checkpoint,
    "stores.summary.write": _after_store_write("stores.summary.bytes"),
    "stores.embedding.write": _after_store_write("stores.embedding.bytes"),
    "agents.orchestrate": _after_orchestrate,
    "cli.get_backend": _after_get_backend,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.backends: list = []
        self._stack: list[int] = []

    def _span(self, name, fn):
        after = HOOKS.get(name)
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        after = HOOKS.get(name)
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block, then restore."""
        with patched(SPANS, self._span), patched(COUNTED, self._counter):
            yield self

    def pause(self, seconds: float) -> None:
        """Leave the last `seconds` out of every open span."""
        for index in self._stack:
            self.spans[index][1] += seconds

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Counts and self times of this pass, keyed like PER_LAYER; times
        are multiplied by `scale`."""
        calls = Counter(span[0] for span in self.spans)
        self_s = Counter({name: t * scale for name, t in self.self_times().items()})
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            if name not in PARTIAL:
                out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, t in self_s.items()
                                         if layer_of(name) == layer)
        for key in ("nn.ops.sigmoid.calls", "model.window_epochs",
                    "model.epochs_run", "model.best_epoch",
                    "model.save_checkpoint.bytes", "stores.summary.bytes",
                    "stores.embedding.bytes", "pca.rank_caps"):
            out[key] = self.counts[key]
        generate = sum(sum(b.generate_calls.values()) for b in self.backends)
        out["model.optimizer_steps"] = calls["nn.optim.adam_step"]
        out["model.useful_epoch_ratio"] = (
            self.counts["model.best_epoch"] / self.counts["model.epochs_run"]
            if self.counts["model.epochs_run"] else 0.0)
        out["agents.generate_calls"] = generate
        out["agents.verify_calls"] = sum(sum(b.verify_calls.values())
                                         for b in self.backends)
        out["agents.accept_ratio"] = (self.counts["agents.accepted"] / generate
                                      if generate else 0.0)
        return out


def is_count(metric: str) -> bool:
    return PER_LAYER[metric] != "s"


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each time; counts, which every pass
    must repeat exactly, from the first."""
    return {name: (statistics.median(p[name] for p in passes)
                   if PER_LAYER[name] == "s" else value)
            for name, value in passes[0].items()}


def write_spans(path, traced: list[tuple[int, list[list]]]) -> None:
    """One JSON line per span: pass index, name, start, end, parent index."""
    with open(path, "w") as fh:
        for index, spans in traced:
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
