"""Price parsing, normalization, spike labeling, and alignment."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    brute_force_spikes,
    reference_align_dataset,
    reference_load_embeddings,
)
from spikecast.errors import (
    AlignmentError,
    DegenerateSeriesError,
    InsufficientDataError,
    KindError,
    ParseError,
    StoreError,
    ValidationError,
)
from spikecast.ingest import (
    NORMALIZED,
    RAW,
    PriceSeries,
    SpikeLabelSet,
    align_dataset,
    composite_average,
    label_spikes,
    normalize_table,
    parse_price_table,
    pct_changes,
    raw_average,
    series_stats,
    zscore_normalize,
)
from spikecast.stores import EmbeddingStore


class TestParse:
    def test_happy_path(self, small_table_text):
        table = parse_price_table(small_table_text)
        assert table.years == (1960, 1961, 1962, 1963, 1964)
        assert table.commodities == ("oil", "gas")
        assert table.values[0, 0] == 10.0
        assert np.isnan(table.values[2, 1])  # empty cell stays missing

    def test_unordered_rows_are_sorted(self):
        table = parse_price_table("year,a\n1962,3\n1960,1\n1961,2\n")
        assert table.years == (1960, 1961, 1962)
        assert list(table.values[:, 0]) == [1.0, 2.0, 3.0]

    def test_duplicate_year_rejected(self):
        with pytest.raises(ValidationError, match="1961"):
            parse_price_table("year,a\n1961,1\n1961,2\n")

    def test_bad_cell_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_price_table("year,a\n1960,1\n1961,oops\n")

    def test_header_must_start_with_year(self):
        with pytest.raises(ParseError):
            parse_price_table("date,a\n1960,1\n")

    def test_no_data_rows(self):
        with pytest.raises(ParseError):
            parse_price_table("year,a\n")

    def test_column_accessor(self, small_table_text):
        series = parse_price_table(small_table_text).column("gas")
        assert series.kind == RAW
        assert series.values[0] == 2.0
        assert np.isnan(series.values[2])


class TestZscore:
    def test_moments(self):
        s = PriceSeries("x", range(1960, 1970), np.arange(10.0) * 3 + 5, RAW)
        z = zscore_normalize(s)
        assert z.kind == NORMALIZED
        assert abs(z.values.mean()) < 1e-12
        assert abs(z.values.std() - 1.0) < 1e-12  # population std

    def test_missing_preserved(self):
        vals = np.array([1.0, np.nan, 3.0, 5.0])
        z = zscore_normalize(PriceSeries("x", range(1960, 1964), vals, RAW))
        assert np.isnan(z.values[1])
        observed = z.values[~np.isnan(z.values)]
        assert abs(observed.mean()) < 1e-12

    def test_too_few_observations(self):
        s = PriceSeries("x", (1960, 1961), np.array([1.0, np.nan]), RAW)
        with pytest.raises(InsufficientDataError):
            zscore_normalize(s)

    def test_constant_series(self):
        s = PriceSeries("x", range(1960, 1965), np.full(5, 7.0), RAW)
        with pytest.raises(DegenerateSeriesError):
            zscore_normalize(s)

    def test_normalized_input_accepted_and_idempotent(self):
        s = PriceSeries("x", range(1960, 1970), np.arange(10.0), RAW)
        z1 = zscore_normalize(s)
        z2 = zscore_normalize(z1)
        assert np.allclose(z1.values, z2.values, atol=1e-12)

    @given(
        scale=st.floats(0.01, 1e4),
        shift=st.floats(-1e4, 1e4),
        data=st.lists(st.floats(0.1, 1e5), min_size=3, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, scale, shift, data):
        vals = np.asarray(data)
        if vals.std() < 1e-9 or (scale * vals).std() < 1e-9:
            return
        years = range(1960, 1960 + len(vals))
        z1 = zscore_normalize(PriceSeries("x", years, vals, RAW))
        z2 = zscore_normalize(PriceSeries("x", years, scale * vals + shift, RAW))
        assert np.allclose(z1.values, z2.values, rtol=1e-6, atol=1e-6)

    def test_series_stats_population(self):
        s = PriceSeries("x", range(1960, 1964), np.array([1.0, 2.0, 3.0, 4.0]), RAW)
        mean, std = series_stats(s)
        assert mean == 2.5
        assert abs(std - np.std([1, 2, 3, 4])) < 1e-15


class TestComposite:
    def test_composite_is_mean_of_present(self, small_table_text):
        table = normalize_table(parse_price_table(small_table_text))
        comp = composite_average(table)
        assert comp.kind == NORMALIZED
        i = comp.years.index(1962)  # gas missing that year
        oil_norm = table.values[2, 0]
        assert comp.values[i] == pytest.approx(oil_norm)

    def test_all_missing_year_dropped(self):
        table = parse_price_table("year,a,b\n1960,1,2\n1961,,\n1962,5,6\n1963,2,1\n")
        comp = raw_average(table)
        assert 1961 not in comp.years
        assert comp.kind == RAW

    def test_raw_average_values(self):
        table = parse_price_table("year,a,b\n1960,10,20\n1961,30,10\n")
        avg = raw_average(table)
        assert list(avg.values) == [15.0, 20.0]


class TestLabels:
    def test_strict_boundary(self):
        s = PriceSeries("avg", (1960, 1961), np.array([100.0, 125.0]), RAW)
        labels = label_spikes(s)
        assert labels.as_dict() == {1961: 0}  # exactly +25% is not a spike

    def test_just_over_boundary(self):
        s = PriceSeries("avg", (1960, 1961), np.array([100.0, 125.0001]), RAW)
        assert label_spikes(s).as_dict() == {1961: 1}

    def test_missing_prev_skipped(self):
        vals = np.array([100.0, np.nan, 200.0, 240.0])
        labels = label_spikes(PriceSeries("avg", range(1960, 1964), vals, RAW))
        # 1961 has no value, 1962 has no usable predecessor
        assert set(labels.years) == {1963}

    def test_nonpositive_prev_skipped(self):
        vals = np.array([0.0, 50.0, 70.0])
        labels = label_spikes(PriceSeries("avg", range(1960, 1963), vals, RAW))
        assert set(labels.years) == {1962}

    def test_normalized_series_rejected(self):
        s = PriceSeries("avg", (1960, 1961), np.array([0.0, 1.0]), NORMALIZED)
        with pytest.raises(KindError):
            label_spikes(s)

    def test_custom_threshold(self):
        s = PriceSeries("avg", (1960, 1961, 1962), np.array([100.0, 109.0, 121.0]), RAW)
        assert label_spikes(s, threshold_pct=10.0).as_dict() == {1961: 0, 1962: 1}

    @given(
        data=st.lists(st.floats(0.5, 500.0), min_size=2, max_size=50),
        threshold=st.floats(1.0, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_elementwise_rule(self, data, threshold):
        vals = np.asarray(data)
        years = tuple(range(1960, 1960 + len(vals)))
        got = label_spikes(PriceSeries("avg", years, vals, RAW), threshold)
        want = brute_force_spikes(vals, threshold)
        assert got.as_dict() == {years[i]: v for i, v in want.items()}

    def test_pct_changes(self):
        s = PriceSeries("avg", (1960, 1961), np.array([100.0, 150.0]), RAW)
        assert pct_changes(s) == {1961: pytest.approx(50.0)}

    def test_repeated_year_rejected(self):
        with pytest.raises(ValidationError, match=r"duplicate label year\(s\): \[1961\]"):
            SpikeLabelSet(years=(1960, 1961, 1962, 1961), labels=(0, 1, 0, 0))

    def test_repeated_price_year_rejected(self):
        # align_dataset would take one of the repeated years' prices silently.
        with pytest.raises(ValidationError, match=r"series 'c': \[1960\]"):
            PriceSeries("c", (1960, 1960), [1.0, 2.0])
        with pytest.raises(ValidationError, match=r"\[1961, 1963\]"):
            PriceSeries("c", (1961, 1962, 1963, 1961, 1963), np.arange(5.0), RAW)


class TestAlign:
    def _embs(self, years, d=2):
        """Embedding pair with a distinct row per year: row i is i + 0.5."""
        years = np.array(years)
        return years, np.arange(len(years) * d, dtype=float).reshape(-1, d) // d + 0.5

    def test_intersection(self):
        prices = PriceSeries("c", (1960, 1961, 1962), np.array([0.1, 0.2, 0.3]), NORMALIZED)
        labels = SpikeLabelSet(years=(1961, 1962, 1963), labels=(0, 1, 0))
        ds = align_dataset(prices, labels, *self._embs((1960, 1961, 1962)))
        assert ds.years == (1961, 1962)
        assert list(ds.labels) == [0, 1]
        assert ds.embeddings.shape == (2, 2)
        assert ds.embeddings[:, 0].tolist() == [1.5, 2.5]
        assert len(ds) == 2

    def test_empty_intersection_reports_spans(self):
        prices = PriceSeries("c", (1960, 1961), np.array([0.1, 0.2]), NORMALIZED)
        labels = SpikeLabelSet(years=(1970, 1971), labels=(0, 1))
        with pytest.raises(AlignmentError) as err:
            align_dataset(prices, labels, *self._embs((1980,)))
        msg = str(err.value)
        assert "1960..1961" in msg and "1970..1971" in msg and "1980" in msg

    def test_dim_mismatch(self, tmp_path):
        """Rows of two widths cannot reach alignment: the store refuses the
        second width, and align_dataset refuses a matrix that does not hold
        one row per year."""
        store = EmbeddingStore(tmp_path / "e.jsonl")
        store.put(1960, (0.1, 0.2))
        with pytest.raises(StoreError, match="dim"):
            store.put(1961, (0.1, 0.2, 0.3))
        prices = PriceSeries("c", (1960, 1961), np.array([0.1, 0.2]), NORMALIZED)
        labels = SpikeLabelSet(years=(1960, 1961), labels=(0, 1))
        years, vectors = self._embs((1960, 1961))
        for bad in (vectors[:1], vectors.ravel()):
            with pytest.raises(ValidationError, match="one row for each of 2 years"):
                align_dataset(prices, labels, years, bad)

    def test_missing_price_year_excluded(self):
        prices = PriceSeries(
            "c", (1960, 1961, 1962), np.array([0.1, math.nan, 0.3]), NORMALIZED
        )
        labels = SpikeLabelSet(years=(1960, 1961, 1962), labels=(0, 1, 0))
        ds = align_dataset(prices, labels, *self._embs((1960, 1961, 1962)))
        assert ds.years == (1960, 1962)

    def test_sources_in_any_order(self):
        prices = PriceSeries("c", (1960, 1961, 1962), np.array([0.1, 0.2, 0.3]), NORMALIZED)
        labels = SpikeLabelSet(years=(1962, 1960, 1961), labels=(1, 0, 0))
        years, vectors = self._embs((1962, 1961, 1960))
        ds = align_dataset(prices, labels, years, vectors)
        assert ds.years == (1960, 1961, 1962)
        assert ds.labels.tolist() == [0, 0, 1]
        assert ds.embeddings[:, 0].tolist() == [2.5, 1.5, 0.5]

    @pytest.mark.parametrize("d", [1, 16, 768, 3072])
    def test_matches_reference(self, tmp_path, d):
        """Store file -> matrix -> align_dataset equals the per-year dict
        path bit for bit, with gaps, NaN prices and shuffled label rows."""
        rng = np.random.default_rng(d)
        price_years = tuple(range(1950, 2020))
        values = rng.normal(size=len(price_years))
        values[rng.choice(len(values), 9, replace=False)] = math.nan
        prices = PriceSeries("c", price_years, values, NORMALIZED)
        label_years = rng.permutation(np.arange(1955, 2024)).tolist()
        labels = SpikeLabelSet(tuple(label_years),
                               tuple(int(v) for v in rng.integers(0, 2, len(label_years))))
        store = EmbeddingStore(tmp_path / "e.jsonl")
        for year in rng.permutation(np.arange(1960, 2024))[:50]:
            store.put(year, rng.normal(size=d) * 10.0 ** rng.integers(-30, 30, d))
        store.write()

        got = align_dataset(prices, labels, *EmbeddingStore(store.path).matrix())
        want = reference_align_dataset(
            prices, labels, reference_load_embeddings(store.path))
        assert got.years == want.years and len(got) > 30
        assert all(type(y) is int for y in got.years)
        for name in ("prices", "labels", "embeddings"):
            assert_same_bits(getattr(got, name), getattr(want, name))
