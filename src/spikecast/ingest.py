"""Price table parsing, normalization, composite series, and spike labels."""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateSeriesError,
    InsufficientDataError,
    KindError,
    ParseError,
    ValidationError,
    check_real,
)

DEFAULT_SPIKE_THRESHOLD_PCT = 25.0

RAW = "raw"
NORMALIZED = "normalized"


def duplicates(values) -> list:
    """The values that occur more than once, sorted."""
    return sorted(v for v, count in Counter(values).items() if count > 1)


@dataclass(frozen=True)
class PriceTable:
    """Year-by-commodity price matrix; missing cells are NaN."""

    years: tuple[int, ...]
    commodities: tuple[str, ...]
    values: np.ndarray  # shape (n_years, n_commodities), float64, NaN = missing

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.years), len(self.commodities)):
            raise ValidationError(
                f"value matrix shape {values.shape} does not match "
                f"{len(self.years)} years x {len(self.commodities)} commodities"
            )
        if dupes := duplicates(self.years):
            raise ValidationError(f"duplicate year(s) in price table: {dupes}")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise ValidationError("years must be strictly increasing")
        present = values[~np.isnan(values)]
        if present.size and not np.isfinite(present).all():
            raise ValidationError("present prices must be finite")


@dataclass(frozen=True)
class PriceSeries:
    """Single named series, either raw prices or z-units."""

    commodity: str
    years: tuple[int, ...]
    values: np.ndarray  # NaN = missing
    kind: str = RAW

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        if values.ndim != 1 or len(values) != len(self.years):
            raise ValidationError("values length must equal years length")
        if dupes := duplicates(self.years):
            raise ValidationError(
                f"duplicate year(s) in series {self.commodity!r}: {dupes}")
        if self.kind not in (RAW, NORMALIZED):
            raise ValidationError(f"unknown series kind {self.kind!r}")


@dataclass(frozen=True)
class SpikeLabelSet:
    """Binary spike labels for the years where the rule is defined."""

    years: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.years) != len(self.labels):
            raise ValidationError("labels length must equal years length")
        if any(v not in (0, 1) for v in self.labels):
            raise ValidationError("labels must be 0 or 1")
        if dupes := duplicates(self.years):
            raise ValidationError(f"duplicate label year(s): {dupes}")

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.years, self.labels))


@dataclass(frozen=True)
class AlignedDataset:
    """Model-ready (price, embedding, label) triples keyed by year."""

    years: tuple[int, ...]
    prices: np.ndarray        # (n,)
    labels: np.ndarray        # (n,) int in {0,1}
    embeddings: np.ndarray    # (n, d)

    def __len__(self) -> int:
        return len(self.years)


def parse_price_table(text: str) -> PriceTable:
    """Parse a CSV document with a `year` column followed by commodity columns.

    Empty cells are recorded as missing (NaN). Raises ParseError with the
    offending 1-based line number for malformed rows, and ValidationError
    for duplicate years.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty document") from None
    if not header or header[0].strip() != "year":
        raise ParseError("first header column must be 'year'")
    commodities = tuple(name.strip() for name in header[1:])
    if not commodities:
        raise ParseError("no commodity columns in header")
    if "" in commodities:
        raise ParseError(f"empty commodity name in header column {commodities.index('') + 2}")
    # A repeated column would count twice in every average.
    if dupes := duplicates(commodities):
        raise ParseError(f"repeated commodity name(s) in header: {dupes}")

    years: list[int] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            year = int(row[0].strip())
        except ValueError:
            raise ParseError(f"line {lineno}: bad year {row[0]!r}") from None
        cells: list[float] = []
        for name, cell in zip(commodities, row[1:]):
            cell = cell.strip()
            if not cell:
                cells.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-numeric cell {cell!r} in column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite cell in column {name!r}")
            cells.append(value)
        years.append(year)
        rows.append(cells)

    if not rows:
        raise ParseError("no data rows")
    order = np.argsort(years)
    values = np.asarray(rows, dtype=float)[order]
    return PriceTable(tuple(years[i] for i in order), commodities, values)


def series_stats(values: np.ndarray, name: str) -> tuple[float, float]:
    """Mean and population std (1/N) of the present values of the series
    `name`: the z-score fit. It needs two present values that differ."""
    x = values[~np.isnan(values)]
    if x.size < 2:
        raise InsufficientDataError(
            f"series {name!r} has {x.size} present value(s); need >= 2"
        )
    mu, sigma = float(x.mean()), float(x.std())
    if sigma <= 0.0:
        raise DegenerateSeriesError(f"series {name!r} is constant (sigma = 0)")
    return mu, sigma


def normalize_table(table: PriceTable) -> PriceTable:
    """Z-score every commodity column independently, to mean 0 and population
    std 1 over its present values; missing cells stay NaN."""
    if not table.commodities:
        raise ValidationError("empty table")
    mu, sigma = np.array([series_stats(col, name) for col, name
                          in zip(table.values.T, table.commodities)]).T
    return PriceTable(table.years, table.commodities, (table.values - mu) / sigma)


def _yearly_mean(table: PriceTable, name: str, kind: str) -> PriceSeries:
    """Per-year mean of present cells; drops years where every cell is missing."""
    if not table.commodities or not table.years:
        raise ValidationError("empty table")
    keep = (~np.isnan(table.values)).any(axis=1)
    means = np.nanmean(table.values[keep], axis=1)
    years = tuple(y for y, k in zip(table.years, keep) if k)
    return PriceSeries(name, years, means, kind)


def composite_average(table: PriceTable) -> PriceSeries:
    """Per-year mean of present z-scores; the input must already be normalized
    per commodity (see normalize_table)."""
    return _yearly_mean(table, "composite", NORMALIZED)


def raw_average(table: PriceTable) -> PriceSeries:
    """Per-year mean of present raw prices (the averaged-price series for labeling)."""
    return _yearly_mean(table, "average", RAW)


def pct_changes(series: PriceSeries) -> dict[int, float]:
    """Percentage change of each year over the calendar year before it, where
    both values are present and the earlier one is positive. The years must
    ascend; a year whose row before is not the year before gets no change."""
    years, v = np.asarray(series.years), series.values
    prev, cur = v[:-1], v[1:]
    defined = (np.diff(years) == 1) & (prev > 0) & ~np.isnan(cur)
    prev, cur = prev[defined], cur[defined]
    return dict(zip(years[1:][defined].tolist(), ((cur - prev) / prev * 100.0).tolist()))


def label_spikes(
    series: PriceSeries, threshold_pct: float = DEFAULT_SPIKE_THRESHOLD_PCT
) -> SpikeLabelSet:
    """Label year y as a spike iff its price exceeds year y-1's by more than threshold_pct.

    The comparison is strict: a change of exactly threshold_pct is labeled 0.
    Years whose calendar predecessor is missing from the series, or has a
    missing or <= 0 value, carry no label, as does the first year.
    """
    if series.kind == NORMALIZED:
        raise KindError(
            "spike labeling requires raw prices; percentage change on "
            "z-scores is undefined across zero"
        )
    check_real("threshold_pct", threshold_pct, "(0, inf)", ValidationError)
    changes = pct_changes(series)
    years = tuple(sorted(changes))
    labels = tuple(1 if changes[y] > threshold_pct else 0 for y in years)
    return SpikeLabelSet(years, labels)


def _rows_of(years, wanted: np.ndarray) -> np.ndarray:
    """Index in `years` (distinct, any order) of each of `wanted`."""
    order = np.argsort(years, kind="stable")
    return order[np.searchsorted(years, wanted, sorter=order)]


def align_dataset(
    prices: PriceSeries,
    labels: SpikeLabelSet,
    years: np.ndarray,
    vectors: np.ndarray,
) -> AlignedDataset:
    """Intersect the three sources by year, ordered ascending.

    `years` (n,) and `vectors` (n, d) are the embeddings, one row per year,
    as EmbeddingStore.matrix hands them out. Raises AlignmentError (listing
    the per-source year ranges) when the intersection is empty.
    """
    years = np.asarray(years)
    if vectors.ndim != 2 or len(vectors) != len(years):
        raise ValidationError(
            f"embedding matrix {vectors.shape} needs one row for each of {len(years)} years")
    price_years = np.asarray(prices.years)[~np.isnan(prices.values)].tolist()
    emb_years = years.tolist()
    common = sorted(set(price_years).intersection(labels.years, emb_years))
    if not common:
        def _span(ys):
            return f"{min(ys)}..{max(ys)}" if ys else "none"
        raise AlignmentError(
            "no common years: "
            f"prices {_span(price_years)}, "
            f"labels {_span(labels.years)}, "
            f"embeddings {_span(emb_years)}"
        )
    wanted = np.array(common)
    return AlignedDataset(
        years=tuple(common),
        prices=prices.values[_rows_of(prices.years, wanted)],
        labels=np.array(labels.labels, dtype=int)[_rows_of(labels.years, wanted)],
        embeddings=vectors[_rows_of(years, wanted)],
    )
