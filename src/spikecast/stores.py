"""Year-keyed JSONL persistence for news summaries and embeddings.

Both stores keep one record per year and always serialize in ascending year
order with a fixed field order, so rewriting an unchanged store reproduces
the exact same bytes.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import StoreError, ValidationError

SUMMARY_FIELDS = (
    "year", "commodities", "summary", "verified", "retries",
    "backend_id", "created_at",
)
EMBEDDING_FORMAT = "spikecast-embeddings/1"


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


@dataclass(frozen=True)
class EmbeddingVector:
    """Dense representation of one year's verified summary."""

    year: int
    dim: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if len(self.values) != self.dim:
            raise ValidationError(
                f"year {self.year}: {len(self.values)} values for dim {self.dim}"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError(f"year {self.year}: non-finite embedding values")


class _YearStore:
    """The JSONL format both stores share: one JSON object per line, at most
    one record per year, written in ascending year order and swapped into
    place atomically."""

    def __init__(self, path):
        self.path = Path(path)
        self._records: dict[int, object] = {}
        if self.path.exists():
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
            except json.JSONDecodeError as exc:
                raise StoreError(f"{self.path}:{lineno}: invalid JSON: {exc}") from None
        return entries

    def __len__(self) -> int:
        return len(self._records)

    def get(self, year: int):
        return self._records.get(year)

    def records(self) -> list:
        return [self._records[y] for y in sorted(self._records)]

    def _dump(self, encode, *header: dict) -> None:
        """Write the header objects, then encode(record) for each year."""
        lines = [json.dumps(obj) for obj in header]
        lines += [json.dumps(encode(r)) for r in self.records()]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=f".{self.path.name}.")
            with os.fdopen(fd, "w") as fh:
                fh.write("".join(line + "\n" for line in lines))
            os.replace(tmp, self.path)
        except OSError as exc:
            raise StoreError(f"cannot write {self.path}: {exc}") from exc


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
                rec = NewsSummary(
                    year=int(obj["year"]),
                    commodities=tuple(str(c) for c in obj["commodities"]),
                    summary=str(obj["summary"]),
                    verified=bool(obj["verified"]),
                    retries=int(obj["retries"]),
                    backend_id=str(obj["backend_id"]),
                    created_at=str(obj["created_at"]),
                )
            except (TypeError, ValueError, ValidationError) as exc:
                raise StoreError(f"{self.path}:{lineno}: {exc}") from None
            self._records[rec.year] = rec

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

    def write(self) -> None:
        self._dump(lambda r: {name: getattr(r, name) for name in SUMMARY_FIELDS})


class EmbeddingStore(_YearStore):
    """Header line fixing the dimension, then one vector per year."""

    def __init__(self, path, dim: int | None = None):
        self.dim = dim
        super().__init__(path)

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
                rec = EmbeddingVector(
                    year=int(obj["year"]),
                    dim=int(obj["dim"]),
                    values=tuple(float(v) for v in obj["values"]),
                )
            except (KeyError, TypeError, ValueError, ValidationError) as exc:
                raise StoreError(f"{self.path}:{lineno}: {exc}") from None
            if rec.dim != self.dim:
                raise StoreError(
                    f"{self.path}:{lineno}: dim {rec.dim} != store dim {self.dim}"
                )
            self._records[rec.year] = rec

    def put(self, vector: EmbeddingVector) -> None:
        if self.dim is None:
            self.dim = vector.dim
        if vector.dim != self.dim:
            raise StoreError(
                f"year {vector.year}: dim {vector.dim} != store dim {self.dim}"
            )
        self._records[vector.year] = vector

    def write(self) -> None:
        if self.dim is None:
            raise StoreError("cannot write an embedding store with no dimension")
        self._dump(
            lambda r: {"year": r.year, "dim": r.dim,
                       "values": [float(v) for v in r.values]},
            {"format": EMBEDDING_FORMAT, "dim": self.dim},
        )
