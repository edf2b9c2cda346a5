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
from .evaluation import (
    BASELINE_VARIANT,
    baseline_logreg,
    classification_metrics,
    fit_fold_pca,
    holdout_split,
    roc_auc,
    run_cv,
    unique_year_rows,
    write_report_csv,
    write_roc_csv,
    write_summary_json,
)
from .ingest import (
    PriceSeries,
    SpikeLabelSet,
    composite_average,
    label_spikes,
    normalize_table,
    parse_price_table,
    pct_changes,
    raw_average,
    align_dataset,
)
from .model import (
    ModelHyper,
    TrainConfig,
    VARIANTS,
    make_windows,
    predict,
    reduce_samples,
    save_checkpoint,
    train,
    write_history_csv,
)
from .pca import fit_pca, transform
from .stores import EmbeddingStore, EmbeddingVector, SummaryStore

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


# --- subcommand bodies ---------------------------------------------------------

def _cmd_ingest(args, out: Path) -> list[str]:
    table = parse_price_table(Path(args.infile).read_text())
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
    table = parse_price_table(Path(args.infile).read_text())
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
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = ["year", "avg_price", "pct_change", "spike"]
    if not rows or list(rows[0].keys()) != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)}")
    try:
        years = tuple(int(r["year"]) for r in rows)
        labels = tuple(int(r["spike"]) for r in rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return SpikeLabelSet(years=years, labels=labels, threshold_pct=25.0)


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
    embed_summaries(verified, backend, EmbeddingStore(out / "embeddings.jsonl"))
    return ["embeddings.jsonl"]


def _cmd_reduce(args, out: Path) -> list[str]:
    store = EmbeddingStore(args.embeddings)
    records = store.records()
    if not records:
        raise ValidationError(f"{args.embeddings}: empty embedding store")
    rows = np.array([r.values for r in records])
    cap = min(args.dim, rows.shape[1], rows.shape[0] - 1)
    if cap < 1:
        raise ValidationError(
            f"{args.embeddings}: {rows.shape[0]} vectors cannot support "
            "any reduced dimension"
        )
    basis = fit_pca(rows, cap)
    reduced = EmbeddingStore(out / "reduced.jsonl", dim=cap)
    for r in records:
        vec = transform(basis, np.asarray(r.values))
        reduced.put(EmbeddingVector(year=r.year, dim=cap,
                                    values=tuple(float(v) for v in vec)))
    reduced.write()

    doc = {
        "mean": [float(v) for v in basis.mean],
        "components_shape": list(basis.components.shape),
        "components": [float(v) for v in basis.components.reshape(-1)],
        "explained_variance": [float(v) for v in basis.explained_variance],
        "fitted_on": basis.fitted_on,
    }
    with open(out / "basis.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return ["reduced.jsonl", "basis.json"]


def _load_aligned(args):
    table = parse_price_table(Path(args.prices).read_text())
    composite = composite_average(normalize_table(table))
    labels = _read_labels_csv(args.labels)
    store = EmbeddingStore(args.embeddings)
    return align_dataset(composite, labels, store.records())


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        alpha=args.alpha,
        batch_size=args.batch_size,
        epochs=args.epochs,
        patience=args.patience,
        weight_decay=args.weight_decay,
        seed=args.seed,
        validation_fraction=args.validation_fraction,
        pos_weight=args.pos_weight,
        clip_norm=args.clip_norm,
    )


def _hyper(args) -> ModelHyper:
    # k and d_prime are rebound from the samples inside train()
    return ModelHyper(k=args.k, d_prime=args.dim, h=args.h, h_a=args.h_a,
                      dropout=args.dropout, seed=args.seed)


def _cmd_train(args, out: Path) -> list[str]:
    dataset = _load_aligned(args)
    samples = make_windows(dataset, args.k)
    basis = None
    if args.variant not in ("no_pca", "no_news"):
        _, basis = fit_fold_pca(samples, args.dim)
        samples = reduce_samples(samples, basis)
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
    train_s, test_s = holdout_split(samples, args.holdout)
    basis = None
    if args.variant not in ("no_pca", "no_news"):
        _, basis = fit_fold_pca(train_s, args.dim)
        train_s = reduce_samples(train_s, basis)
        test_s = reduce_samples(test_s, basis)
    params, _ = train(
        train_s, _train_config(args), hyper=_hyper(args),
        variant=args.variant, pca=basis,
    )
    scores = predict(params, test_s)
    labels = np.array([s.target for s in test_s])
    block = classification_metrics(scores, labels, args.threshold)
    outputs = ["metrics.json"]
    try:
        auc = roc_auc(scores, labels)
        write_roc_csv(scores, labels, out / "roc.csv")
        outputs.append("roc.csv")
    except UndefinedMetricError:
        auc = None
        print("warning: hold-out test labels are single-class; AUC omitted",
              file=sys.stderr)
    tp, fp, fn, tn = block.confusion
    doc = {
        "variant": args.variant,
        "holdout_fraction": args.holdout,
        "n_train": len(train_s),
        "n_test": len(test_s),
        "auc": auc,
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
    reports = []
    for variant in args.variants:
        if variant == BASELINE_VARIANT:
            reports.append(baseline_logreg(
                samples, n_folds=args.folds, d_prime=args.dim,
                threshold=args.threshold,
            ))
        else:
            reports.append(run_cv(
                samples, variant, _train_config(args), hyper=_hyper(args),
                n_folds=args.folds, d_prime=args.dim, threshold=args.threshold,
            ))
    write_report_csv(reports, out / "report.csv")
    write_summary_json(reports, out / "summary.json")
    return ["report.csv", "summary.json"]


def _copy_csv(src: Path, dst: Path, expected_header: str) -> None:
    text = Path(src).read_text()
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
        doc = json.loads(Path(args.summary).read_text())
        lines = ["variant,mean_auc,std_auc,mean_f1_w,std_f1_w"]
        for variant in sorted(doc):
            block = doc[variant]
            mean, std = block.get("mean", {}), block.get("std", {})
            cells = [
                "" if "auc" not in mean else _fmt(mean["auc"]),
                "" if "auc" not in std else _fmt(std["auc"]),
                "" if "f1_w" not in mean else _fmt(mean["f1_w"]),
                "" if "f1_w" not in std else _fmt(std["f1_w"]),
            ]
            lines.append(f"{variant}," + ",".join(cells))
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
        text = Path(path).read_text()
    except OSError as exc:
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
    known: set[str] = set()
    coercers: dict[str, object] = {}
    for sp in subparsers.values():
        for action in sp._actions:
            if action.dest in ("help", "command"):
                continue
            known.add(action.dest)
            if action.type is not None:
                coercers.setdefault(action.dest, action.type)
            elif isinstance(action, argparse._StoreTrueAction):
                coercers.setdefault(action.dest, "bool")
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for sp in subparsers.values():
        dests = {a.dest for a in sp._actions}
        defaults = {}
        for key, raw in overrides.items():
            if key not in dests:
                continue
            coerce = coercers.get(key)
            if coerce == "bool":
                defaults[key] = raw.lower() in ("1", "true", "yes", "on")
            elif coerce is not None:
                try:
                    defaults[key] = coerce(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"config key {key}: {exc}") from None
            else:
                defaults[key] = raw
        if defaults:
            sp.set_defaults(**defaults)


# --- parser assembly -------------------------------------------------------------

def build_parser(overrides: dict[str, str] | None = None) -> _Parser:
    parser = _Parser(prog="spikecast", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--config", default=None, help="flat key = value file")
    common.add_argument("--out", default="run", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="write into an existing run directory")

    backendish = _Parser(add_help=False)
    backendish.add_argument("--backend", default="mock")
    backendish.add_argument("--mock-dim", dest="mock_dim", type=int, default=64)

    trainish = _Parser(add_help=False)
    trainish.add_argument("--k", type=int, default=5)
    trainish.add_argument("--dim", type=int, default=16,
                          help="reduced news dimension")
    trainish.add_argument("--h", type=int, default=32)
    trainish.add_argument("--h-a", dest="h_a", type=int, default=32)
    trainish.add_argument("--dropout", type=float, default=0.3)
    trainish.add_argument("--alpha", type=float, default=1e-3)
    trainish.add_argument("--batch-size", dest="batch_size", type=int, default=8)
    trainish.add_argument("--epochs", type=int, default=100)
    trainish.add_argument("--patience", type=int, default=10)
    trainish.add_argument("--weight-decay", dest="weight_decay", type=float, default=1e-4)
    trainish.add_argument("--validation-fraction", dest="validation_fraction",
                          type=float, default=0.15)
    trainish.add_argument("--clip-norm", dest="clip_norm", type=float, default=5.0)
    trainish.add_argument("--pos-weight", dest="pos_weight", type=float, default=None)
    trainish.add_argument("--threshold", type=float, default=0.5,
                          help="classification threshold")

    sp = {}
    sp["ingest"] = subs.add_parser("ingest", parents=[common])
    sp["ingest"].add_argument("--in", dest="infile", required=True)

    sp["label"] = subs.add_parser("label", parents=[common])
    sp["label"].add_argument("--in", dest="infile", required=True)
    sp["label"].add_argument("--threshold", type=float, default=25.0,
                             help="spike threshold in percent")

    sp["distill"] = subs.add_parser("distill", parents=[common, backendish])
    sp["distill"].add_argument("--years", type=_parse_years,
                               default=tuple(range(1960, 2024)),
                               help="inclusive LO:HI range")
    sp["distill"].add_argument("--max-retries", dest="max_retries", type=int, default=5)
    sp["distill"].add_argument("--fallback-policy", dest="fallback_policy",
                               choices=("skip", "placeholder"), default="skip")
    sp["distill"].add_argument("--commodities", type=_parse_names,
                               default=("crude oil", "natural gas", "coal"))
    sp["distill"].add_argument("--in-flight", dest="in_flight", type=int, default=1)

    sp["embed"] = subs.add_parser("embed", parents=[common, backendish])
    sp["embed"].add_argument("--summaries", required=True)

    sp["reduce"] = subs.add_parser("reduce", parents=[common])
    sp["reduce"].add_argument("--embeddings", required=True)
    sp["reduce"].add_argument("--dim", type=int, default=16)

    for name in ("train", "eval", "ablate"):
        sp[name] = subs.add_parser(name, parents=[common, trainish])
        sp[name].add_argument("--prices", required=True)
        sp[name].add_argument("--labels", required=True)
        sp[name].add_argument("--embeddings", required=True)
    sp["train"].add_argument("--variant", choices=VARIANTS, default="full")
    sp["eval"].add_argument("--variant", choices=VARIANTS, default="full")
    sp["eval"].add_argument("--holdout", type=float, default=0.20)
    sp["ablate"].add_argument("--variants", type=_parse_names,
                              default=VARIANTS)
    sp["ablate"].add_argument("--folds", type=int, default=5)

    sp["report"] = subs.add_parser("report", parents=[common])
    sp["report"].add_argument("--labels", default=None)
    sp["report"].add_argument("--summary", default=None)
    sp["report"].add_argument("--roc", default=None)
    sp["report"].add_argument("--history", default=None)

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
        parser = build_parser(overrides)
        args = parser.parse_args(argv)

        if args.command == "ablate":
            bad = [v for v in args.variants if v not in VARIANTS + (BASELINE_VARIANT,)]
            if bad:
                raise ConfigError(f"unknown variants: {', '.join(bad)}")

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SpikecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
