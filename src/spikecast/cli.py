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
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .agents import AgentConfig, embed_summaries, orchestrate
from .backends import get_backend
from .errors import (
    ConfigError,
    ContractError,
    InvalidDraftError,
    ParseError,
    RankError,
    SpikecastError,
    UndefinedMetricError,
    ValidationError,
)
# predict, roc_auc, classification_metrics: benchmark call sites only, dropped by ROADMAP item 2.
from .evaluation import (
    BASELINE_VARIANT,
    baseline_logreg,
    classification_metrics,  # noqa: F401
    fit_fold_pca,
    holdout_split,
    roc_auc,  # noqa: F401
    run_cv,
    time_series_split,
    write_report_csv,
    write_roc_csv,
    write_summary_json,
)
from .ingest import (
    SpikeLabelSet,
    composite_average,
    duplicates,
    label_spikes,
    normalize_table,
    parse_price_table,
    pct_changes,
    raw_average,
    align_dataset,
)
from .model import (
    PCA_VARIANTS,
    ModelHyper,
    TrainConfig,
    VARIANTS,
    make_windows,
    predict,  # noqa: F401
    save_checkpoint,
    train,
    write_history_csv,
)
from .pca import fit_pca, transform
from .stores import EmbeddingStore, SummaryStore

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


def _utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _mock_clock(seed: int):
    """Fixed timestamp per seed so offline artifacts are bit-reproducible."""
    stamp = (datetime(2026, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=seed)).isoformat()
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
                    started: str) -> None:
    snapshot = {}
    for key, value in sorted(vars(args).items()):
        if key in _SKIP_SNAPSHOT:
            continue
        if isinstance(value, tuple):
            value = list(value)
        snapshot[key] = value
    doc = {
        "command": args.command,
        "config": snapshot,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "seed": args.seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _utc_stamp(),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def _read_text(path) -> str:
    """Contents of a UTF-8 text input file; any other encoding is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


# --- subcommand bodies ---------------------------------------------------------

def _cmd_ingest(args, out: Path) -> list[str]:
    table = parse_price_table(_read_text(args.infile))
    normalized = normalize_table(table)
    lines = ["year," + ",".join(normalized.commodities)]
    for i, year in enumerate(normalized.years):
        cells = [
            "" if np.isnan(v) else _fmt(v) for v in normalized.values[i]
        ]
        lines.append(f"{year}," + ",".join(cells))
    (out / "normalized.csv").write_text("\n".join(lines) + "\n")

    composite = composite_average(normalized)
    lines = ["year,value"]
    lines += [f"{y},{_fmt(v)}" for y, v in zip(composite.years, composite.values)]
    (out / "composite.csv").write_text("\n".join(lines) + "\n")
    return ["normalized.csv", "composite.csv"]


def _cmd_label(args, out: Path) -> list[str]:
    table = parse_price_table(_read_text(args.infile))
    averages = raw_average(table)
    labels = label_spikes(averages, threshold_pct=args.threshold)
    changes = pct_changes(averages)
    by_year = {y: v for y, v in zip(averages.years, averages.values)}
    lines = ["year,avg_price,pct_change,spike"]
    for year, spike in zip(labels.years, labels.labels):
        lines.append(
            f"{year},{_fmt(by_year[year])},{_fmt(changes[year])},{int(spike)}"
        )
    (out / "labels.csv").write_text("\n".join(lines) + "\n")
    return ["labels.csv"]


def _read_labels_csv(path) -> SpikeLabelSet:
    rows = list(csv.DictReader(_read_text(path).splitlines()))
    expected = ["year", "avg_price", "pct_change", "spike"]
    if not rows or list(rows[0].keys()) != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)}")
    try:
        years = tuple(int(r["year"]) for r in rows)
        labels = tuple(int(r["spike"]) for r in rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return SpikeLabelSet(years=years, labels=labels)


def _cmd_distill(args, out: Path) -> list[str]:
    backend = get_backend(args.backend, seed=args.seed, dim=args.mock_dim)
    config = AgentConfig(
        max_retries=args.max_retries,
        years=args.years,
        in_flight_limit=args.in_flight,
        fallback_policy=args.fallback_policy,
        commodities=args.commodities,
    )
    clock = _mock_clock(args.seed) if args.backend == "mock" else None
    store = SummaryStore(out / "summaries.jsonl")
    orchestrate(config, backend, store, clock)
    return ["summaries.jsonl"]


def _cmd_embed(args, out: Path) -> list[str]:
    backend = get_backend(args.backend, seed=args.seed, dim=args.mock_dim)
    store = SummaryStore(args.summaries)
    verified = [r for r in store.records() if r.verified]
    if not verified:
        raise ValidationError(f"{args.summaries}: no verified summaries to embed")
    # A fresh store: a --force rerun replaces the old rows, not merges with them.
    embed_summaries(verified, backend,
                    EmbeddingStore(out / "embeddings.jsonl", load=False))
    return ["embeddings.jsonl"]


def _cmd_reduce(args, out: Path) -> list[str]:
    if args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    years, rows = EmbeddingStore(args.embeddings).matrix()
    cap = min(args.dim, rows.shape[1], rows.shape[0] - 1)
    if cap < 1:
        raise ValidationError(
            f"{args.embeddings}: {rows.shape[0]} vectors cannot support "
            "any reduced dimension"
        )
    basis = fit_pca(rows, cap)
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
    (out / "basis.json").write_text(_dumps_indent2(doc) + "\n")
    return ["reduced.jsonl", "basis.json"]


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
    table = parse_price_table(_read_text(args.prices))
    composite = composite_average(normalize_table(table))
    labels = _read_labels_csv(args.labels)
    years, vectors = EmbeddingStore(args.embeddings).matrix()
    return align_dataset(composite, labels, years, vectors)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _hyper(args) -> ModelHyper:
    # k and d_prime are rebound from the samples inside train()
    return ModelHyper(k=args.k, d_prime=args.dim, h=args.h, h_a=args.h_a,
                      dropout=args.dropout, seed=args.seed)


def _cmd_train(args, out: Path) -> list[str]:
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    basis = None
    if args.variant in PCA_VARIANTS:
        _, basis = fit_fold_pca(samples, args.dim)
    params, history = train(
        samples, _train_config(args), hyper=_hyper(args),
        variant=args.variant, pca=basis,
    )
    save_checkpoint(params, out / "checkpoint.json")
    write_history_csv(history, out / "history.csv")
    return ["checkpoint.json", "history.csv"]


def _cmd_eval(args, out: Path) -> list[str]:
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    report = run_cv(samples, args.variant, _train_config(args),
                    holdout_split(len(samples), args.holdout), hyper=_hyper(args),
                    d_prime=args.dim, threshold=args.threshold)
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
    with open(out / "metrics.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outputs


def _cmd_ablate(args, out: Path) -> list[str]:
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    plan = time_series_split(len(samples), args.folds)
    reports = []
    for variant in args.variants:
        if variant == BASELINE_VARIANT:
            reports.append(baseline_logreg(
                samples, plan, d_prime=args.dim, threshold=args.threshold,
            ))
        else:
            reports.append(run_cv(
                samples, variant, _train_config(args), plan, hyper=_hyper(args),
                d_prime=args.dim, threshold=args.threshold,
            ))
    write_report_csv(reports, out / "report.csv")
    write_summary_json(reports, out / "summary.json")
    return ["report.csv", "summary.json"]


def _copy_csv(src: Path, dst: Path, expected_header: str) -> None:
    text = _read_text(src)
    first = text.splitlines()[0] if text else ""
    if first != expected_header:
        raise ParseError(f"{src}: expected header {expected_header!r}, got {first!r}")
    dst.write_text(text)


def _cmd_report(args, out: Path) -> list[str]:
    chosen = [name for name in ("labels", "summary", "roc", "history")
              if getattr(args, name) is not None]
    if not chosen:
        raise ConfigError("report needs at least one of --labels/--summary/--roc/--history")
    outputs = []
    if args.labels:
        _copy_csv(Path(args.labels), out / "plot_spikes.csv",
                  "year,avg_price,pct_change,spike")
        outputs.append("plot_spikes.csv")
    if args.summary:
        lines = ["variant,mean_auc,std_auc,mean_f1_w,std_f1_w"]
        try:
            doc = json.loads(_read_text(args.summary))
            for variant in sorted(doc):
                mean, std = doc[variant].get("mean", {}), doc[variant].get("std", {})
                cells = [
                    "" if "auc" not in mean else _fmt(mean["auc"]),
                    "" if "auc" not in std else _fmt(std["auc"]),
                    "" if "f1_w" not in mean else _fmt(mean["f1_w"]),
                    "" if "f1_w" not in std else _fmt(std["f1_w"]),
                ]
                lines.append(f"{variant}," + ",".join(cells))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.summary}: not an ablation summary: {exc}") from None
        (out / "plot_ablation.csv").write_text("\n".join(lines) + "\n")
        outputs.append("plot_ablation.csv")
    if args.roc:
        _copy_csv(Path(args.roc), out / "plot_roc.csv", "fpr,tpr")
        outputs.append("plot_roc.csv")
    if args.history:
        _copy_csv(Path(args.history), out / "plot_history.csv",
                  "epoch,train_loss,val_loss")
        outputs.append("plot_history.csv")
    return outputs


_COMMANDS = {
    "ingest": (_cmd_ingest, lambda a: [a.infile]),
    "label": (_cmd_label, lambda a: [a.infile]),
    "distill": (_cmd_distill, lambda a: []),
    "embed": (_cmd_embed, lambda a: [a.summaries]),
    "reduce": (_cmd_reduce, lambda a: [a.embeddings]),
    "train": (_cmd_train, lambda a: [a.prices, a.labels, a.embeddings]),
    "eval": (_cmd_eval, lambda a: [a.prices, a.labels, a.embeddings]),
    "ablate": (_cmd_ablate, lambda a: [a.prices, a.labels, a.embeddings]),
    "report": (_cmd_report, lambda a: [p for p in (a.labels, a.summary, a.roc, a.history) if p]),
}


# --- config file ----------------------------------------------------------------

def load_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments and blank lines ignored."""
    values = {}
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
        values[key] = value
    return values


def _apply_config(subparsers: dict[str, argparse.ArgumentParser],
                  overrides: dict[str, str]) -> None:
    """Make each override the default of every option with its name, coerced
    the way that option coerces its command-line value."""
    applied = set()
    for sp in subparsers.values():
        for action in sp._actions:
            raw = overrides.get(action.dest)
            if raw is None or action.dest == "help":
                continue
            if isinstance(action, argparse._StoreTrueAction):
                action.default = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is None:
                action.default = raw
            else:
                try:
                    action.default = action.type(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"config key {action.dest}: {exc}") from None
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
    "train": _MODEL_OPTIONS + (_VARIANT_OPTION,),
    "eval": _MODEL_OPTIONS + (
        _VARIANT_OPTION,
        ("--holdout", dict(type=float, default=0.20)),
    ),
    "ablate": _MODEL_OPTIONS + (
        ("--variants", dict(type=_parse_names, default=VARIANTS)),
        ("--folds", dict(type=int, default=5)),
    ),
    "report": _COMMON_OPTIONS + tuple(
        (flag, dict(default=None))
        for flag in ("--labels", "--summary", "--roc", "--history")
    ),
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

        if args.command == "ablate":
            bad = [v for v in args.variants if v not in VARIANTS + (BASELINE_VARIANT,)]
            if bad:
                raise ConfigError(f"unknown variants: {', '.join(bad)}")
            if repeated := duplicates(args.variants):
                raise ConfigError(f"repeated variants: {', '.join(repeated)}")

        started = _utc_stamp()
        body, input_paths = _COMMANDS[args.command]
        inputs = input_paths(args)
        for p in inputs:
            if not Path(p).exists():
                raise ValidationError(f"input file not found: {p}")
        out = _resolve_out(args)
        outputs = body(args, out)
        _write_manifest(args, out, inputs, outputs, started)
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
