"""Command-line pipeline driver.

One subcommand per pipeline stage, shared --seed/--config/--out flags, and a
manifest written next to every artifact recording the command, the effective
configuration, and content digests of all inputs. Exit codes: 0 success,
1 validation or usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from functools import partial
from importlib import import_module
from pathlib import Path

from . import BASELINE_VARIANT, VARIANTS, __version__
from .errors import (ConfigError, ContractError, InvalidDraftError, ParseError, RankError,
                     SpikecastError, UndefinedMetricError, ValidationError, check_count)
from .stores import EmbeddingStore, SummaryStore, atomic_write, utc_now, write_csv, write_json

# The names this module takes from the pipeline modules, by module. A module is
# imported at the first use of its names (_bind and __getattr__ below), so a
# stage process loads only the modules its command runs.
# predict, roc_auc, classification_metrics: benchmark call sites only, dropped by ROADMAP item 1b.
_LAZY = {
    "agents": ("AgentConfig", "embed_summaries", "orchestrate"),
    "backends": ("get_backend",),
    "evaluation": ("SINGLE_CLASS", "baseline_logreg", "classification_metrics",
                   "fit_fold_pca", "fold_set", "holdout_split", "roc_auc", "run_cv",
                   "time_series_split", "write_report_csv", "write_roc_csv",
                   "write_summary_json"),
    "ingest": ("SpikeLabelSet", "align_dataset", "composite_average", "duplicates",
               "label_spikes", "normalize_table", "parse_price_table", "pct_changes",
               "raw_average"),
    "model": ("PCA_VARIANTS", "TrainConfig", "make_windows", "predict", "reduce_samples",
              "save_checkpoint", "train", "write_history_csv"),
    "pca": ("cap_message", "fit_pca", "transform"),
}


def _bind(*modules: str) -> None:
    """Import `modules` and make their _LAZY names globals, for the bare-name
    calls below. A name already set, such as a benchmark wrapper or a test
    double, is kept."""
    for module in modules:
        imported = import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    """PEP 562: the first lookup of a _LAZY name binds its module's names."""
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


LABELS_HEADER = ("year", "avg_price", "pct_change", "spike")
VALIDATION_ERRORS = (
    ParseError, ValidationError, ConfigError, ContractError, RankError,
    InvalidDraftError, UndefinedMetricError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_years(text: str) -> tuple[int, ...]:
    """'1960:1962' -> (1960, 1961, 1962); a single year is accepted."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad year range {text!r}, want LO:HI")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"year range {text!r} is reversed")
    return tuple(range(lo, hi + 1))


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return names


def _mock_clock(seed: int):
    """Fixed timestamp per seed so offline artifacts are bit-reproducible."""
    try:
        stamp = (datetime(2026, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=seed)).isoformat()
    except OverflowError:  # beyond timedelta's days or datetime's years
        raise ConfigError(f"--seed {seed} is outside the mock clock's range") from None
    return lambda: stamp


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _resolve_out(args) -> Path:
    """Honor prior runs: reuse a manifest-bearing directory only with --force."""
    out = Path(args.out)
    if (out / "manifest.json").exists() and not args.force:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        out = out / f"{args.command}-{stamp}"
    out.mkdir(parents=True, exist_ok=True)
    return out


_SKIP_SNAPSHOT = {"command", "config", "force", "func"}


def _write_manifest(args, out: Path, inputs: list[Path], outputs: list[str],
                    started: str, stats: dict | None) -> None:
    doc = {
        "command": args.command,
        # json writes a tuple as a list, and sorts the keys.
        "config": {k: v for k, v in vars(args).items() if k not in _SKIP_SNAPSHOT},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "seed": args.seed,
        "version": __version__,
        "started_at": started,
        "finished_at": utc_now(),
    }
    if stats is not None:  # what the run did beyond its artifacts
        doc["stats"] = stats
    write_json(out / "manifest.json", doc)


def _read_text(path) -> str:
    """Contents of a UTF-8 text input file; any other encoding is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


# --- subcommand bodies ---------------------------------------------------------

def _cmd_ingest(args, out: Path):
    normalized = normalize_table(parse_price_table(_read_text(args.infile)))
    write_csv(out / "normalized.csv", ["year", *normalized.commodities],
              ([year, *row] for year, row in zip(normalized.years, normalized.values)))
    composite = composite_average(normalized)
    write_csv(out / "composite.csv", ["year", "value"],
              zip(composite.years, composite.values))
    return ["normalized.csv", "composite.csv"], None


def _cmd_label(args, out: Path):
    table = parse_price_table(_read_text(args.infile))
    averages = raw_average(table)
    labels = label_spikes(averages, threshold_pct=args.threshold)
    changes = pct_changes(averages)
    by_year = {y: v for y, v in zip(averages.years, averages.values)}
    write_csv(out / "labels.csv", LABELS_HEADER,
              ([year, by_year[year], changes[year], int(spike)]
               for year, spike in zip(labels.years, labels.labels)))
    return ["labels.csv"], None


def _read_labels_csv(path) -> SpikeLabelSet:
    rows = list(csv.DictReader(_read_text(path).splitlines()))
    if not rows or tuple(rows[0]) != LABELS_HEADER:
        raise ParseError(f"{path}: expected header {','.join(LABELS_HEADER)}")
    try:
        years = tuple(int(r["year"]) for r in rows)
        labels = tuple(int(r["spike"]) for r in rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return SpikeLabelSet(years=years, labels=labels)


def _cmd_distill(args, out: Path):
    backend = get_backend(args.backend, seed=args.seed, dim=args.mock_dim)
    config = AgentConfig(
        max_retries=args.max_retries,
        years=args.years,
        in_flight_limit=args.in_flight,
        fallback_policy=args.fallback_policy,
        commodities=args.commodities,
    )
    clock = _mock_clock(args.seed) if args.backend == "mock" else utc_now
    store = SummaryStore(out / "summaries.jsonl")
    summaries = orchestrate(config, backend, store, clock)
    # A year that ended without a summary spent every retry.
    return ["summaries.jsonl"], {"distill": [
        {"year": year, "retries": s.retries, "verified": s.verified}
        if (s := summaries.get(year)) else
        {"year": year, "retries": args.max_retries, "verified": False}
        for year in sorted(config.years)]}


def _cmd_embed(args, out: Path):
    backend = get_backend(args.backend, seed=args.seed, dim=args.mock_dim)
    store = SummaryStore(args.summaries)
    verified = [r for r in store.records() if r.verified]
    if not verified:
        raise ValidationError(f"{args.summaries}: no verified summaries to embed")
    # A fresh store: a --force rerun replaces the old rows, not merges with them.
    embed_summaries(verified, backend,
                    EmbeddingStore(out / "embeddings.jsonl", load=False))
    return ["embeddings.jsonl"], None


def _cmd_reduce(args, out: Path):
    check_count("--dim", args.dim, 1)
    years, rows = EmbeddingStore(args.embeddings).matrix()
    cap = min(args.dim, rows.shape[1], rows.shape[0] - 1)
    if cap < 1:
        raise ValidationError(
            f"{args.embeddings}: {rows.shape[0]} vectors cannot support "
            "any reduced dimension"
        )
    basis = fit_pca(rows, cap)
    stats = None
    if cap < args.dim:
        warnings.warn(cap_message(basis, args.dim))
        stats = {"pca": {"requested": args.dim, "fitted": cap}}
    reduced = EmbeddingStore(out / "reduced.jsonl", dim=cap, load=False)
    for year, row in zip(years, rows):
        reduced.put(year, transform(basis, row))
    reduced.write()

    doc = {
        "mean": basis.mean.tolist(),
        "components_shape": list(basis.components.shape),
        "components": basis.components.reshape(-1).tolist(),
        "explained_variance": basis.explained_variance.tolist(),
        "fitted_on": basis.fitted_on,
    }
    with atomic_write(out / "basis.json") as fh:
        fh.write(_dumps_indent2(doc) + "\n")
    return ["reduced.jsonl", "basis.json"], stats


def _dumps_indent2(doc: dict) -> str:
    """json.dumps(doc, indent=2) for a dict of scalars and lists of scalars,
    from the C encoder, which json.dumps only runs without indent: a
    separator of ",\n    " lays a list out one item a line."""
    def value(v):
        text = json.dumps(v, separators=(",\n    ", ": "))
        return f"[\n    {text[1:-1]}\n  ]" if isinstance(v, list) and v else text

    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {value(v)}"
                               for k, v in doc.items()) + "\n}"


def _load_aligned(args):
    _bind("ingest")
    table = parse_price_table(_read_text(args.prices))
    composite = composite_average(normalize_table(table))
    labels = _read_labels_csv(args.labels)
    years, vectors = EmbeddingStore(args.embeddings).matrix()
    return align_dataset(composite, labels, years, vectors)


def _train_config(args) -> TrainConfig:
    _bind("model")
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _model_stats(args, per_variant) -> dict:
    """The manifest's stats block of train, eval and ablate: each variant's
    TrainStats fold by fold, the logistic baseline's LogregStats if it ran,
    and each basis a rank cap fitted below --dim. per_variant holds
    (variant, [(TrainStats or LogregStats, PcaBasis) per fold]), the basis
    None where the variant reads none."""
    doc = {"training": {}, "pca": {}}
    for variant, folds in per_variant:
        rows = [stats._asdict() for stats, _ in folds]
        if variant == BASELINE_VARIANT:
            doc["logreg"] = rows
        else:
            doc["training"][variant] = rows
        capped = [{"fold": i, "requested": args.dim, "fitted": basis.d_prime}
                  for i, (_, basis) in enumerate(folds, start=1)
                  if basis is not None and basis.d_prime < args.dim]
        if capped:
            doc["pca"][variant] = capped
    return doc


def _cmd_train(args, out: Path):
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    if args.variant in PCA_VARIANTS:
        basis = fit_fold_pca(samples, args.dim)[1]
        if basis.d_prime < args.dim:
            warnings.warn(cap_message(basis, args.dim))
        samples = reduce_samples(samples, basis)
    fit = train([samples], _train_config(args), variant=args.variant)
    if fit.stats[0].single_class:
        warnings.warn(f"variant {args.variant}: {SINGLE_CLASS}")
    save_checkpoint(fit.models[0], out / "checkpoint.json")
    write_history_csv(fit.history, out / "history.csv")
    return ["checkpoint.json", "history.csv"], _model_stats(
        args, [(args.variant, [(fit.stats[0], samples.pca)])])


def _cmd_eval(args, out: Path):
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    report = run_cv(fold_set(samples, holdout_split(len(samples), args.holdout), args.dim),
                    args.variant, _train_config(args), threshold=args.threshold)
    (fold,) = report.folds
    outputs = ["metrics.json"]
    if fold.auc is not None:
        write_roc_csv(fold.scores, samples.targets[-fold.n_test:], out / "roc.csv")
        outputs.append("roc.csv")
    block = fold.metrics
    tp, fp, fn, tn = block.confusion
    doc = {
        "variant": args.variant,
        "holdout_fraction": args.holdout,
        "n_train": fold.n_train,
        "n_test": fold.n_test,
        "auc": fold.auc,
        "accuracy": block.accuracy,
        "precision_weighted": block.precision_weighted,
        "recall_weighted": block.recall_weighted,
        "f1_weighted": block.f1_weighted,
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "threshold": block.threshold,
    }
    write_json(out / "metrics.json", doc)
    return outputs, _model_stats(args, [(args.variant, [(fold.train_stats, fold.pca_basis)])])


def _cmd_ablate(args, out: Path):
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    folds = fold_set(samples, time_series_split(len(samples), args.folds), args.dim)
    reports = [baseline_logreg(folds, threshold=args.threshold) if variant == BASELINE_VARIANT
               else run_cv(folds, variant, _train_config(args), threshold=args.threshold)
               for variant in args.variants]
    write_report_csv(reports, out / "report.csv")
    write_summary_json(reports, out / "summary.json")
    return ["report.csv", "summary.json"], _model_stats(args, (
        (rep.variant, [(f.train_stats, f.pca_basis) for f in rep.folds]) for rep in reports))


def _copy_csv(src, dst: Path, header: str) -> None:
    text = _read_text(src)
    first = text.splitlines()[0] if text else ""
    if first != header:
        raise ParseError(f"{src}: expected header {header!r}, got {first!r}")
    with atomic_write(dst) as fh:
        fh.write(text)


def _metric(value) -> float:  # a JSON number, not a boolean or a numeric string
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"metric {value!r} is not a number")
    return float(value)


def _plot_ablation(src, dst: Path) -> None:
    rows = []
    try:
        doc = json.loads(_read_text(src))
        for variant in sorted(doc):
            mean, std = doc[variant].get("mean", {}), doc[variant].get("std", {})
            rows.append([variant] + [_metric(b[key]) if key in b else None
                                     for key in ("auc", "f1_w") for b in (mean, std)])
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{src}: not an ablation summary: {exc}") from None
    write_csv(dst, ["variant", "mean_auc", "std_auc", "mean_f1_w", "std_f1_w"], rows)


# report's (option, plot file, writer(src, dst)), in the order it reads them.
_PLOTS = (
    ("labels", "plot_spikes.csv", partial(_copy_csv, header=",".join(LABELS_HEADER))),
    ("summary", "plot_ablation.csv", _plot_ablation),
    ("roc", "plot_roc.csv", partial(_copy_csv, header="fpr,tpr")),
    ("history", "plot_history.csv", partial(_copy_csv, header="epoch,train_loss,val_loss")),
)


def _cmd_report(args, out: Path):
    plots = [(src, name, write) for option, name, write in _PLOTS
             if (src := getattr(args, option))]
    if not plots:
        raise ConfigError("report needs at least one of --labels/--summary/--roc/--history")
    for src, name, write in plots:
        write(src, out / name)
    return [name for _, name, _ in plots], None


# command -> (body, its input files, the _LAZY modules it runs)
_DATASET = (lambda a: [a.prices, a.labels, a.embeddings],
            ("ingest", "model", "evaluation", "pca"))
_COMMANDS = {
    "ingest": (_cmd_ingest, lambda a: [a.infile], ("ingest",)),
    "label": (_cmd_label, lambda a: [a.infile], ("ingest",)),
    "distill": (_cmd_distill, lambda a: [], ("agents", "backends")),
    "embed": (_cmd_embed, lambda a: [a.summaries], ("agents", "backends")),
    "reduce": (_cmd_reduce, lambda a: [a.embeddings], ("pca",)),
    "train": (_cmd_train, *_DATASET),
    "eval": (_cmd_eval, *_DATASET),
    "ablate": (_cmd_ablate, *_DATASET),
    "report": (_cmd_report,
               lambda a: [src for option, _, _ in _PLOTS if (src := getattr(a, option))], ()),
}


# --- config file ----------------------------------------------------------------

def load_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines, each key once; '#' comments and blank lines ignored."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("'\"")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _apply_config(subparsers: dict[str, argparse.ArgumentParser],
                  overrides: dict[str, str]) -> None:
    """Make each override the default of every option with its name, coerced
    the way that option coerces its command-line value; an option the file
    sets is no longer required."""
    applied = set()
    for sp in subparsers.values():
        for action in sp._actions:
            raw = overrides.get(action.dest)
            if raw is None or action.dest == "help":
                continue
            if isinstance(action, argparse._StoreTrueAction):
                if raw.lower() not in _BOOLEANS:
                    raise ConfigError(f"config key {action.dest}: {raw!r} is not a boolean "
                                      "(1/true/yes/on or 0/false/no/off)")
                action.default = _BOOLEANS[raw.lower()]
            elif action.type is None:
                action.default = raw
            else:
                try:
                    action.default = action.type(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"config key {action.dest}: {exc}") from None
            action.required = False
            applied.add(action.dest)
    unknown = sorted(set(overrides) - applied)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


# --- parser assembly -------------------------------------------------------------

# Each subcommand's options as (flag, add_argument keywords), in help order.
_COMMON_OPTIONS = (
    ("--seed", dict(type=int, default=0)),
    ("--config", dict(default=None, help="flat key = value file")),
    ("--out", dict(default="run", help="output directory")),
    ("--force", dict(action="store_true",
                     help="write into an existing run directory")),
)
_BACKEND_OPTIONS = (
    ("--backend", dict(default="mock")),
    ("--mock-dim", dict(dest="mock_dim", type=int, default=64)),
)
_MODEL_OPTIONS = _COMMON_OPTIONS + (
    ("--k", dict(type=int, default=5)),
    ("--dim", dict(type=int, default=16, help="reduced news dimension")),
    ("--h", dict(type=int, default=32)),
    ("--h-a", dict(dest="h_a", type=int, default=32)),
    ("--dropout", dict(type=float, default=0.3)),
    ("--alpha", dict(type=float, default=1e-3)),
    ("--batch-size", dict(dest="batch_size", type=int, default=8)),
    ("--epochs", dict(type=int, default=100)),
    ("--patience", dict(type=int, default=10)),
    ("--weight-decay", dict(dest="weight_decay", type=float, default=1e-4)),
    ("--validation-fraction", dict(dest="validation_fraction", type=float,
                                   default=0.15)),
    ("--clip-norm", dict(dest="clip_norm", type=float, default=5.0)),
    ("--pos-weight", dict(dest="pos_weight", type=float, default=None)),
    ("--threshold", dict(type=float, default=0.5, help="classification threshold")),
    ("--prices", dict(required=True)),
    ("--labels", dict(required=True)),
    ("--embeddings", dict(required=True)),
)
_VARIANT_OPTION = ("--variant", dict(choices=VARIANTS, default="full"))

_OPTIONS = {
    "ingest": _COMMON_OPTIONS + (("--in", dict(dest="infile", required=True)),),
    "label": _COMMON_OPTIONS + (
        ("--in", dict(dest="infile", required=True)),
        ("--threshold", dict(type=float, default=25.0,
                             help="spike threshold in percent")),
    ),
    "distill": _COMMON_OPTIONS + _BACKEND_OPTIONS + (
        ("--years", dict(type=_parse_years, default=tuple(range(1960, 2024)),
                         help="inclusive LO:HI range")),
        ("--max-retries", dict(dest="max_retries", type=int, default=5)),
        ("--fallback-policy", dict(dest="fallback_policy",
                                   choices=("skip", "placeholder"), default="skip")),
        ("--commodities", dict(type=_parse_names,
                               default=("crude oil", "natural gas", "coal"))),
        ("--in-flight", dict(dest="in_flight", type=int, default=1)),
    ),
    "embed": _COMMON_OPTIONS + _BACKEND_OPTIONS + (
        ("--summaries", dict(required=True)),
    ),
    "reduce": _COMMON_OPTIONS + (
        ("--embeddings", dict(required=True)),
        ("--dim", dict(type=int, default=16)),
    ),
    # train fits and saves one model and scores nothing, so takes no --threshold.
    "train": tuple(o for o in _MODEL_OPTIONS if o[0] != "--threshold") + (_VARIANT_OPTION,),
    "eval": _MODEL_OPTIONS + (
        _VARIANT_OPTION,
        ("--holdout", dict(type=float, default=0.20)),
    ),
    "ablate": _MODEL_OPTIONS + (
        ("--variants", dict(type=_parse_names, default=VARIANTS)),
        ("--folds", dict(type=int, default=5)),
    ),
    "report": _COMMON_OPTIONS + tuple(
        (f"--{option}", dict(default=None)) for option, _, _ in _PLOTS),
}


def build_parser(overrides: dict[str, str] | None = None,
                 command: str | None = None) -> _Parser:
    """The CLI parser: every subcommand, or only `command` when it is given."""
    parser = _Parser(prog="spikecast", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    sp = {}
    for name in (command,) if command else _OPTIONS:
        sp[name] = subs.add_parser(name)
        for flag, kwargs in _OPTIONS[name]:
            sp[name].add_argument(flag, **kwargs)
    if command:
        # Usage lines list every command, as they do when all are registered.
        subs.metavar = "{" + ",".join(_OPTIONS) + "}"
    if overrides:
        _apply_config(sp, overrides)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", default=None)
        known, _ = pre.parse_known_args(argv)
        overrides = load_config_file(known.config) if known.config else {}
        # Every subcommand's parser is built only for an unknown command or
        # a config file, whose keys may belong to any command.
        own = argv and argv[0] in _OPTIONS and known.config is None
        parser = build_parser(overrides, argv[0] if own else None)
        args = parser.parse_args(argv)
        body, input_paths, modules = _COMMANDS[args.command]
        _bind(*modules)

        if args.command == "ablate":
            bad = [v for v in args.variants if v not in VARIANTS + (BASELINE_VARIANT,)]
            if bad:
                raise ConfigError(f"unknown variants: {', '.join(bad)}")
            if repeated := duplicates(args.variants):
                raise ConfigError(f"repeated variants: {', '.join(repeated)}")

        started = utc_now()
        inputs = input_paths(args)
        for p in inputs:
            if not Path(p).exists():
                raise ValidationError(f"input file not found: {p}")
        out = _resolve_out(args)
        outputs, stats = body(args, out)
        _write_manifest(args, out, inputs, outputs, started, stats)
        print(f"{args.command}: wrote {', '.join(sorted(outputs))} to {out}")
        return 0
    except (UsageError, *VALIDATION_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpikecastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
