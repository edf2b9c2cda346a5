"""Year-keyed JSONL stores for summaries and embeddings, and the artifact writer.

Both stores keep one record per year and always serialize in ascending year
order with a fixed field order, so rewriting an unchanged store reproduces
the exact same bytes.
"""
from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import StoreError, ValidationError

SUMMARY_FIELDS = (
    "year", "commodities", "summary", "verified", "retries",
    "backend_id", "created_at",
)
EMBEDDING_FORMAT = "spikecast-embeddings/1"
_KINDS = {int: "an integer", bool: "true or false", str: "a string", list: "a list"}
_NUMBERS = frozenset((int, float))


@contextmanager
def atomic_write(path):
    """A text handle on a temporary file, one per process and thread, that
    os.replace swaps for `path` when the block ends; the new file has the mode
    open(path, "w") gives. On a failed write or replace the old file keeps its
    bytes, the temporary file is removed and an OSError becomes a StoreError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """The header line, then one line per row: a float cell is
    repr(float(v)), None or NaN an empty cell, anything else str(v)."""
    lines = [",".join(header), *(",".join(map(_cell, row)) for row in rows)]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def utc_now() -> str:
    """The time in UTC, ISO 8601: a summary's created_at, a manifest's clock."""
    return datetime.now(timezone.utc).isoformat()


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must have exactly the JSON type `kind`: a boolean is
    not an integer, and a number is not a string."""
    value = obj[key]
    if type(value) is not kind:
        raise ValidationError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


@dataclass(frozen=True)
class NewsSummary:
    """One year's summary record, draft or verified."""

    year: int
    commodities: tuple[str, ...]
    summary: str
    verified: bool
    retries: int
    backend_id: str
    created_at: str

    def __post_init__(self):
        if self.retries < 0:
            raise ValidationError(f"retries must be >= 0, got {self.retries}")
        if self.verified and not self.summary.strip():
            raise ValidationError("a verified summary must have non-empty text")


class _YearStore:
    """The JSONL format both stores share: one JSON object per line, at most
    one record per year, written in ascending year order and swapped into
    place atomically. With load=False the store starts empty and its first
    write replaces whatever file is at `path`."""

    def __init__(self, path, load: bool = True):
        self.path = Path(path)
        self._records: dict[int, object] = {}
        if load and self.path.exists():
            self._load()

    def _entries(self) -> list[tuple[int, object]]:
        """(line number, parsed JSON) for every non-blank line of the file."""
        try:
            lines = self.path.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc
        entries = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entries.append((lineno, json.loads(line)))
            except ValueError as exc:  # JSONDecodeError, or an over-long integer
                raise StoreError(f"{self.path}:{lineno}: invalid JSON: {exc}") from None
        return entries

    def _check_new(self, year: int) -> None:
        """A year must fit the int64 year arrays built from a store, and a
        file holds each year once; a repeat would silently replace."""
        if not -(2**63) <= year < 2**63:
            raise ValidationError(f"year {year} does not fit a 64-bit integer")
        if year in self._records:
            raise ValidationError(f"year {year} repeats an earlier line")

    def _dump(self, objects) -> None:
        """Write one JSON line per object, in order."""
        with atomic_write(self.path) as fh:
            fh.writelines(json.dumps(obj) + "\n" for obj in objects)


class SummaryStore(_YearStore):
    """One summary per year; load-merge-rewrite with byte-stable output."""

    def __init__(self, path):
        self._lock = threading.Lock()
        super().__init__(path)

    def _load(self) -> None:
        for lineno, obj in self._entries():
            if not isinstance(obj, dict) or set(obj) != set(SUMMARY_FIELDS):
                raise StoreError(
                    f"{self.path}:{lineno}: record fields must be exactly "
                    f"{SUMMARY_FIELDS}"
                )
            try:
                commodities = _field(obj, "commodities", list)
                if not all(type(c) is str for c in commodities):
                    raise ValidationError(
                        f"commodities must be a list of strings, got {commodities!r}")
                rec = NewsSummary(
                    year=_field(obj, "year", int),
                    commodities=tuple(commodities),
                    summary=_field(obj, "summary", str),
                    verified=_field(obj, "verified", bool),
                    retries=_field(obj, "retries", int),
                    backend_id=_field(obj, "backend_id", str),
                    created_at=_field(obj, "created_at", str),
                )
                self._check_new(rec.year)
            except ValidationError as exc:
                raise StoreError(f"{self.path}:{lineno}: {exc}") from None
            self._records[rec.year] = rec

    def get(self, year: int) -> NewsSummary | None:
        return self._records.get(year)

    def records(self) -> list[NewsSummary]:
        return [self._records[y] for y in sorted(self._records)]

    def verified_years(self) -> set[int]:
        return {y for y, r in self._records.items() if r.verified}

    def upsert(self, summary: NewsSummary) -> None:
        """Insert or replace a year's record.

        A record identical to the stored one except for created_at keeps the
        original timestamp, so re-running a pipeline that reaches the same
        outcome never changes the store's bytes.
        """
        with self._lock:
            old = self._records.get(summary.year)
            if old is not None and replace(old, created_at=summary.created_at) == summary:
                return
            self._records[summary.year] = summary

    def retain(self, keep: Callable[[NewsSummary], bool]) -> None:
        """Drop every record for which keep(record) is false."""
        with self._lock:
            self._records = {y: r for y, r in self._records.items() if keep(r)}

    def write(self) -> None:
        self._dump({name: getattr(r, name) for name in SUMMARY_FIELDS}
                   for r in self.records())


class EmbeddingStore(_YearStore):
    """Header line fixing the dimension, then one float64 row per year."""

    def __init__(self, path, dim: int | None = None, load: bool = True):
        self.dim = dim
        super().__init__(path, load)

    def _load(self) -> None:
        entries = self._entries()
        if not entries:
            return
        lineno, header = entries[0]
        if (lineno != 1 or not isinstance(header, dict)
                or header.get("format") != EMBEDDING_FORMAT):
            raise StoreError(
                f"{self.path}:1: expected header with format={EMBEDDING_FORMAT!r}"
            )
        stored_dim = header.get("dim")
        if type(stored_dim) is not int or stored_dim < 1:
            raise StoreError(
                f"{self.path}:1: header dim must be a positive integer, "
                f"got {stored_dim!r}"
            )
        if self.dim is not None and stored_dim != self.dim:
            raise StoreError(
                f"{self.path}: store dim {stored_dim} != requested {self.dim}"
            )
        self.dim = stored_dim
        for lineno, obj in entries[1:]:
            try:
                if not isinstance(obj, dict):
                    raise ValidationError("record is not a JSON object")
                year = _field(obj, "year", int)
                dim = _field(obj, "dim", int)
                if dim != self.dim:
                    raise ValidationError(f"dim {dim} != store dim {self.dim}")
                values = _field(obj, "values", list)
                if len(values) != dim:
                    raise ValidationError(f"year {year}: {len(values)} values, dim {dim}")
                if not _NUMBERS.issuperset(map(type, values)):
                    raise ValidationError(f"year {year}: embedding values must be numbers")
                self._check_new(year)
                self.put(year, values)
            except (KeyError, ValidationError, StoreError) as exc:
                raise StoreError(f"{self.path}:{lineno}: {exc}") from None

    def put(self, year: int, values) -> None:
        """Store `values` as `year`'s row, a float64 copy that must be finite
        and as wide as the store; an earlier row for the year is replaced."""
        try:
            row = np.array(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"year {year}: bad embedding values: {exc}") from None
        if row.ndim != 1 or not row.size or not np.isfinite(row).all():
            raise ValidationError(f"year {year}: embedding is not a non-empty finite vector")
        if self.dim is None:
            self.dim = row.size
        if row.size != self.dim:
            raise StoreError(f"year {year}: dim {row.size} != store dim {self.dim}")
        self._records[int(year)] = row

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(years (n,), vectors (n, dim)), both in ascending year order."""
        years = sorted(self._records)
        vectors = np.array([self._records[y] for y in years])
        return np.array(years, dtype=int), vectors.reshape(len(years), self.dim or 0)

    def write(self) -> None:
        if self.dim is None:
            raise StoreError("cannot write an embedding store with no dimension")
        header = {"format": EMBEDDING_FORMAT, "dim": self.dim}
        self._dump([header] + [
            {"year": y, "dim": self.dim, "values": self._records[y].tolist()}
            for y in sorted(self._records)
        ])
