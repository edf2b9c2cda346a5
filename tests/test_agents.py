"""Backends, prompt assets, the generate/verify loop, and the stores."""
import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from spikecast.agents import (
    AgentConfig,
    build_fact_check_prompt,
    build_summary_prompt,
    embed_summaries,
    fact_check,
    generate_summary,
    orchestrate,
)
from spikecast.backends import MockBackend, Verdict, get_backend, register_backend
from spikecast.errors import (
    BackendError,
    ConfigError,
    InvalidDraftError,
    StoreError,
    ValidationError,
)
from spikecast.stores import EmbeddingStore, NewsSummary, SummaryStore

from conftest import (
    assert_same_bits,
    reference_load_embeddings,
    reference_mock_embed,
)

CLOCK = lambda: "2026-01-01T00:00:00+00:00"
YEARS3 = (1960, 1961, 1962)


def config(**kw):
    kw.setdefault("years", YEARS3)
    return AgentConfig(**kw)


class TestVerdict:
    def test_binary_only(self):
        assert Verdict(1).value == 1
        assert Verdict(0, "nope").rationale == "nope"
        with pytest.raises(BackendError):
            Verdict(2)


class TestMockBackend:
    def test_generate_mentions_year_and_commodities(self):
        b = MockBackend(seed=0)
        text = b.generate(build_summary_prompt(1973, ("crude oil",)))
        assert "1973" in text
        assert "Commodities: crude oil" in text

    def test_generate_deterministic_per_prompt(self):
        prompt = build_summary_prompt(1980, ("coal",))
        assert MockBackend(seed=5).generate(prompt) == MockBackend(seed=5).generate(prompt)
        assert MockBackend(seed=5).generate(prompt) != MockBackend(seed=6).generate(prompt)

    def test_revision_changes_draft(self):
        b = MockBackend(seed=0)
        t0 = b.generate(build_summary_prompt(1980, ("coal",), revision=0))
        t1 = b.generate(build_summary_prompt(1980, ("coal",), revision=1))
        assert t0 != t1

    def test_embed_contract(self):
        b = MockBackend(seed=1, dim=32)
        v1 = b.embed("aaa")
        v2 = b.embed("aaa")
        v3 = b.embed("bbb")
        assert len(v1) == 32
        assert v1 == v2
        assert any(x != y for x, y in zip(v1, v3))
        assert all(-1.0 <= x < 1.0 for x in v1)

    @pytest.mark.parametrize("dim", [1, 3, 4, 5, 16, 128, 131])
    def test_embed_matches_reference_bits(self, dim):
        texts = ("", "aaa", "In 1973 oil prices rose.", "caf\u00e9 \u2014 " * 40)
        for seed in (0, 1, 951, 2**40):
            for text in texts:
                got = MockBackend(seed=seed, dim=dim).embed(text)
                assert type(got) is list and all(type(v) is float for v in got)
                want = reference_mock_embed(seed, dim, text)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_verdict_modes(self):
        text = "In 1970 things happened."
        assert MockBackend(verdict_mode="accept").verify(text).value == 1
        assert MockBackend(verdict_mode="reject").verify(text).value == 0
        scripted = MockBackend(verdict_mode="scripted", accept_after={1970: 2})
        assert [scripted.verify(text).value for _ in range(3)] == [0, 0, 1]

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            MockBackend(dim=0)
        with pytest.raises(ConfigError):
            MockBackend(verdict_mode="maybe")


class TestBackendRegistry:
    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("nosuch")

    def test_named_backend_needs_credential(self, monkeypatch):
        class Fake:
            def __init__(self, api_key, seed, dim):
                self.api_key = api_key
                self.backend_id = "fake"

        register_backend("fake-svc", Fake)
        monkeypatch.delenv("NEWS_BACKEND_KEY", raising=False)
        with pytest.raises(ConfigError, match="NEWS_BACKEND_KEY"):
            get_backend("fake-svc")
        monkeypatch.setenv("NEWS_BACKEND_KEY", "sekrit")
        backend = get_backend("fake-svc")
        assert backend.api_key == "sekrit"


class TestPrompts:
    def test_summary_prompt_contents(self):
        p = build_summary_prompt(1999, ("oil", "gas"))
        assert "economic, geopolitical, and market-related developments" in p
        assert "1999" in p and "oil, gas" in p
        assert "Revision" not in p

    def test_revision_note(self):
        p = build_summary_prompt(1999, ("oil",), revision=2)
        assert "Revision 2" in p

    def test_fact_check_prompt_embeds_summary(self):
        p = build_fact_check_prompt("some claim about 1999")
        assert "some claim about 1999" in p


class TestGenerateSummary:
    def test_draft_shape(self):
        b = MockBackend(seed=0)
        draft = generate_summary(1961, b, config(), clock=CLOCK)
        assert draft.year == 1961
        assert draft.verified is False
        assert draft.retries == 0
        assert draft.backend_id == b.backend_id
        assert draft.created_at == CLOCK()

    def test_clock_defaults_to_utc(self):
        stamp = generate_summary(1961, MockBackend(), config()).created_at
        assert datetime.fromisoformat(stamp).utcoffset() == timedelta(0)

    def test_year_out_of_range(self):
        with pytest.raises(ValidationError, match="1985"):
            generate_summary(1985, MockBackend(), config())

    def test_empty_generation(self):
        class Empty(MockBackend):
            def generate(self, prompt):
                return "   "

        with pytest.raises(InvalidDraftError):
            generate_summary(1961, Empty(), config())


class TestFactCheck:
    def test_verdict_passthrough(self):
        draft = generate_summary(1960, MockBackend(), config(), clock=CLOCK)
        assert fact_check(draft, MockBackend(verdict_mode="accept")).value == 1
        assert fact_check(draft, MockBackend(verdict_mode="reject")).value == 0

    def test_empty_draft_rejected(self):
        empty = NewsSummary(
            year=1960, commodities=(), summary="  ", verified=False,
            retries=0, backend_id="x", created_at="t",
        )
        with pytest.raises(InvalidDraftError):
            fact_check(empty, MockBackend())


class TestOrchestrate:
    def test_accept_all(self, tmp_path):
        store = SummaryStore(tmp_path / "s.jsonl")
        result = orchestrate(config(), MockBackend(seed=1), store, CLOCK)
        assert sorted(result) == list(YEARS3)
        assert all(r.verified and r.retries == 0 for r in result.values())
        reloaded = SummaryStore(tmp_path / "s.jsonl")
        assert reloaded.verified_years() == set(YEARS3)

    def test_reject_all_bounds_and_warning(self, tmp_path):
        b = MockBackend(seed=1, verdict_mode="reject")
        store = SummaryStore(tmp_path / "s.jsonl")
        with pytest.warns(UserWarning, match="no year produced"):
            result = orchestrate(config(), b, store, CLOCK)
        assert result == {}
        assert all(b.generate_calls[y] == 5 for y in YEARS3)
        assert (tmp_path / "s.jsonl").read_bytes() == b""

    def test_scripted_retry_count(self, tmp_path):
        b = MockBackend(seed=1, verdict_mode="scripted", accept_after={1961: 2})
        store = SummaryStore(tmp_path / "s.jsonl")
        result = orchestrate(config(), b, store, CLOCK)
        assert result[1961].retries == 2
        assert result[1960].retries == 0
        assert b.generate_calls == {1960: 1, 1961: 3, 1962: 1}

    def test_max_retries_bound_respected(self, tmp_path):
        b = MockBackend(seed=1, verdict_mode="scripted", accept_after={1961: 99})
        store = SummaryStore(tmp_path / "s.jsonl")
        result = orchestrate(config(max_retries=4), b, store, CLOCK)
        assert 1961 not in result
        assert b.generate_calls[1961] == 4

    def test_idempotent_rerun(self, tmp_path):
        path = tmp_path / "s.jsonl"
        orchestrate(config(), MockBackend(seed=1), SummaryStore(path), CLOCK)
        first = path.read_bytes()
        b2 = MockBackend(seed=1)
        orchestrate(config(), b2, SummaryStore(path), CLOCK)
        assert path.read_bytes() == first
        assert b2.generate_calls == {}  # verified years never regenerate

    @pytest.mark.parametrize("change", [dict(seed=2), dict(commodities=("wheat",))])
    def test_rerun_of_another_backend_or_commodities_regenerates(self, tmp_path, change):
        path = tmp_path / "s.jsonl"
        orchestrate(config(), MockBackend(seed=1), SummaryStore(path), CLOCK)
        backend = MockBackend(seed=change.get("seed", 1))
        cfg = config(commodities=change.get("commodities", config().commodities))
        result = orchestrate(cfg, backend, SummaryStore(path), CLOCK)
        assert backend.generate_calls == dict.fromkeys(YEARS3, 1)
        fresh = tmp_path / "fresh.jsonl"
        orchestrate(cfg, MockBackend(seed=change.get("seed", 1)), SummaryStore(fresh), CLOCK)
        assert path.read_bytes() == fresh.read_bytes()
        assert {(r.backend_id, r.commodities) for r in result.values()} == \
            {(backend.backend_id, cfg.commodities)}

    @pytest.mark.parametrize("change", [dict(seed=2), dict(commodities=("wheat",))])
    def test_narrower_rerun_of_another_backend_or_commodities_keeps_only_its_years(
            self, tmp_path, change):
        path = tmp_path / "s.jsonl"
        orchestrate(config(years=tuple(range(1960, 1965))), MockBackend(seed=1),
                    SummaryStore(path), CLOCK)
        cfg = config(commodities=change.get("commodities", config().commodities))
        orchestrate(cfg, MockBackend(seed=change.get("seed", 1)), SummaryStore(path), CLOCK)
        fresh = tmp_path / "fresh.jsonl"
        orchestrate(cfg, MockBackend(seed=change.get("seed", 1)), SummaryStore(fresh), CLOCK)
        assert path.read_bytes() == fresh.read_bytes()  # 1963 and 1964 are gone

    def test_narrower_rerun_of_the_same_backend_keeps_the_other_years(self, tmp_path):
        path = tmp_path / "s.jsonl"
        orchestrate(config(years=tuple(range(1960, 1965))), MockBackend(seed=1),
                    SummaryStore(path), CLOCK)
        first = path.read_bytes()
        backend = MockBackend(seed=1)
        orchestrate(config(), backend, SummaryStore(path), CLOCK)
        assert path.read_bytes() == first
        assert backend.generate_calls == {}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_regenerated_year_that_fails_keeps_no_old_record(self, tmp_path, seed):
        # Seed 1 left placeholders, which a seed-1 rerun regenerates; a seed-2
        # rerun regenerates every year. Each attempt fails under skip.
        path = tmp_path / "s.jsonl"
        with pytest.warns(UserWarning, match="no year produced"):
            orchestrate(config(fallback_policy="placeholder"),
                        MockBackend(seed=1, verdict_mode="reject"), SummaryStore(path), CLOCK)
        assert len(SummaryStore(path).records()) == 3
        backend = MockBackend(seed=seed, verdict_mode="reject")
        with pytest.warns(UserWarning, match="no year produced"):
            assert orchestrate(config(), backend, SummaryStore(path), CLOCK) == {}
        assert backend.generate_calls == dict.fromkeys(YEARS3, 5)
        assert path.read_bytes() == b""

    def test_verified_text_was_actually_verified(self, tmp_path):
        seen = []

        class Recording(MockBackend):
            def verify(self, summary):
                verdict = super().verify(summary)
                seen.append((summary, verdict.value))
                return verdict

        b = Recording(seed=2, verdict_mode="scripted", accept_after={1960: 1})
        store = SummaryStore(tmp_path / "s.jsonl")
        result = orchestrate(config(years=(1960,)), b, store, CLOCK)
        accepted = [s for s, v in seen if v == 1]
        assert build_fact_check_prompt(result[1960].summary) in accepted

    def test_placeholder_policy(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cfg = config(fallback_policy="placeholder")
        with pytest.warns(UserWarning):
            result = orchestrate(cfg, MockBackend(verdict_mode="reject"), SummaryStore(path), CLOCK)
        assert sorted(result) == list(YEARS3)
        assert all(not r.verified and r.retries == 5 for r in result.values())
        first = path.read_bytes()
        assert len(first.splitlines()) == 3
        with pytest.warns(UserWarning):
            orchestrate(cfg, MockBackend(verdict_mode="reject"), SummaryStore(path), CLOCK)
        assert path.read_bytes() == first

    def test_placeholder_upgrades_to_verified(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cfg = config(years=(1960,), fallback_policy="placeholder")
        with pytest.warns(UserWarning):
            orchestrate(cfg, MockBackend(verdict_mode="reject"), SummaryStore(path), CLOCK)
        assert not SummaryStore(path).verified_years()
        orchestrate(cfg, MockBackend(verdict_mode="accept"), SummaryStore(path), CLOCK)
        assert SummaryStore(path).verified_years() == {1960}

    def test_concurrent_matches_sequential(self, tmp_path):
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        years = tuple(range(1960, 1975))
        orchestrate(config(years=years), MockBackend(seed=3), SummaryStore(seq), CLOCK)
        orchestrate(
            config(years=years, in_flight_limit=6),
            MockBackend(seed=3), SummaryStore(par), CLOCK,
        )
        assert seq.read_bytes() == par.read_bytes()

    def test_backend_error_consumes_attempt(self, tmp_path):
        class Flaky(MockBackend):
            def __init__(self):
                super().__init__(seed=0)
                self.calls = 0

            def generate(self, prompt):
                self.calls += 1
                if self.calls == 1:
                    raise BackendError("transport hiccup")
                return super().generate(prompt)

        b = Flaky()
        store = SummaryStore(tmp_path / "s.jsonl")
        result = orchestrate(config(years=(1960,)), b, store, CLOCK)
        assert result[1960].verified
        assert result[1960].retries == 1  # attempt 0 burned by the failure


class TestEmbedSummaries:
    def _verified(self, year, text="Year summary"):
        return NewsSummary(
            year=year, commodities=("oil",), summary=f"{text} {year}",
            verified=True, retries=0, backend_id="mock", created_at="t",
        )

    def test_uniform_vectors(self, tmp_path):
        b = MockBackend(seed=4, dim=16)
        store = EmbeddingStore(tmp_path / "e.jsonl")
        years, vectors = embed_summaries(
            [self._verified(1960), self._verified(1961)], b, store)
        assert years.tolist() == [1960, 1961]
        assert vectors.shape == (2, 16)
        loaded_years, loaded = EmbeddingStore(tmp_path / "e.jsonl").matrix()
        assert loaded_years.tolist() == years.tolist()
        assert_same_bits(loaded, vectors)

    def test_rows_in_year_order_whatever_the_input_order(self, tmp_path):
        b = MockBackend(seed=4, dim=16)
        years, vectors = embed_summaries(
            [self._verified(1961), self._verified(1960)], b,
            EmbeddingStore(tmp_path / "e.jsonl"))
        assert years.tolist() == [1960, 1961]
        assert_same_bits(vectors[0], b.embed(self._verified(1960).summary))

    def test_unverified_rejected(self, tmp_path):
        bad = NewsSummary(
            year=1960, commodities=(), summary="x", verified=False,
            retries=5, backend_id="m", created_at="t",
        )
        with pytest.raises(ValidationError, match="1960"):
            embed_summaries([bad], MockBackend(), EmbeddingStore(tmp_path / "e.jsonl"))

    def test_dim_drift_detected(self, tmp_path):
        class Drifting(MockBackend):
            def embed(self, text):
                return [0.0] * (8 if "1960" in text else 9)

        path = tmp_path / "e.jsonl"
        with pytest.raises(BackendError, match="dim"):
            embed_summaries([self._verified(1960), self._verified(1961)], Drifting(),
                            EmbeddingStore(path))
        assert not path.exists()

    def test_non_finite_embedding_rejected(self, tmp_path):
        class Broken(MockBackend):
            def embed(self, text):
                return [0.0, float("nan")]

        with pytest.raises(ValidationError, match="1960: embedding is not a non-empty finite"):
            embed_summaries([self._verified(1960)], Broken(),
                            EmbeddingStore(tmp_path / "e.jsonl"))


class TestSummaryStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = SummaryStore(path)
        rec = NewsSummary(
            year=1970, commodities=("oil", "gas"), summary="Test 1970",
            verified=True, retries=1, backend_id="mock", created_at="t0",
        )
        store.upsert(rec)
        store.write()
        again = SummaryStore(path)
        assert again.get(1970) == rec
        obj = json.loads(path.read_text())
        assert list(obj.keys()) == [
            "year", "commodities", "summary", "verified", "retries",
            "backend_id", "created_at",
        ]

    def test_alien_fields_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"year": 1970, "summary": "x", "extra": 1}\n')
        with pytest.raises(StoreError, match="exactly"):
            SummaryStore(path)

    def test_garbage_line_number(self, tmp_path):
        path = tmp_path / "s.jsonl"
        good = json.dumps({
            "year": 1970, "commodities": [], "summary": "ok", "verified": False,
            "retries": 0, "backend_id": "m", "created_at": "t",
        })
        path.write_text(good + "\nnot json\n")
        with pytest.raises(StoreError, match=":2"):
            SummaryStore(path)

    def test_infinite_year_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"year": 1e400, "commodities": [], "summary": "ok", '
                        '"verified": false, "retries": 0, "backend_id": "m", '
                        '"created_at": "t"}\n')
        with pytest.raises(StoreError, match=r"s\.jsonl:1: "):
            SummaryStore(path)

    def test_repeated_year_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        line = {
            "year": 1970, "commodities": [], "summary": "ok", "verified": False,
            "retries": 0, "backend_id": "m", "created_at": "t",
        }
        later = dict(line, year=1971)
        path.write_text("\n".join(json.dumps(obj) for obj in (line, later, line)) + "\n")
        with pytest.raises(StoreError, match=r"s\.jsonl:3: year 1970 repeats"):
            SummaryStore(path)

    @pytest.mark.parametrize("year", [2**63, -(2**63) - 1, 10**30])
    def test_year_beyond_int64_names_its_line(self, tmp_path, year):
        path = tmp_path / "s.jsonl"
        line = {
            "year": 1970, "commodities": [], "summary": "ok", "verified": False,
            "retries": 0, "backend_id": "m", "created_at": "t",
        }
        path.write_text("\n".join(json.dumps(obj) for obj in (line, dict(line, year=year)))
                        + "\n")
        with pytest.raises(StoreError, match=rf"s\.jsonl:2: year {year} does not fit"):
            SummaryStore(path)
        path.write_text(json.dumps(dict(line, year=2**63 - 1)) + "\n")  # the largest that fits
        assert SummaryStore(path).get(2**63 - 1).summary == "ok"

    @pytest.mark.parametrize("field,value", [
        ("year", "1960"), ("year", 1960.0), ("year", True),
        ("commodities", "oil"), ("commodities", ["oil", 3]),
        ("summary", 5), ("verified", "false"), ("verified", 0),
        ("retries", 1.9), ("retries", False), ("backend_id", None),
        ("created_at", 0),
    ])
    def test_wrongly_typed_field_names_its_line(self, tmp_path, field, value):
        path = tmp_path / "s.jsonl"
        good = {
            "year": 1970, "commodities": ["oil"], "summary": "ok", "verified": True,
            "retries": 0, "backend_id": "m", "created_at": "t",
        }
        bad = {**good, "year": 1971, field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(StoreError, match=rf"s\.jsonl:2: {field} must be"):
            SummaryStore(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(StoreError, match="cannot read"):
            SummaryStore(path)

    def test_upsert_preserves_created_at_on_identical_outcome(self, tmp_path):
        store = SummaryStore(tmp_path / "s.jsonl")
        first = NewsSummary(1970, ("oil",), "Same text", True, 0, "m", "t0")
        later = NewsSummary(1970, ("oil",), "Same text", True, 0, "m", "t1")
        store.upsert(first)
        store.upsert(later)
        assert store.get(1970).created_at == "t0"
        changed = NewsSummary(1970, ("oil",), "New text", True, 0, "m", "t2")
        store.upsert(changed)
        assert store.get(1970).created_at == "t2"

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = SummaryStore(path)
        store.upsert(NewsSummary(1971, ("coal",), "Second year", False, 2,
                                 "mock-s0-d8", "t1"))
        store.upsert(NewsSummary(1970, ("oil", "gas"), 'First "quoted" caf\u00e9',
                                 True, 0, "mock", "t0"))
        store.write()
        expected = (
            b'{"year": 1970, "commodities": ["oil", "gas"], "summary": '
            b'"First \\"quoted\\" caf\\u00e9", "verified": true, "retries": 0, '
            b'"backend_id": "mock", "created_at": "t0"}\n'
            b'{"year": 1971, "commodities": ["coal"], "summary": "Second year", '
            b'"verified": false, "retries": 2, "backend_id": "mock-s0-d8", '
            b'"created_at": "t1"}\n'
        )
        assert path.read_bytes() == expected
        SummaryStore(path).write()
        assert path.read_bytes() == expected


def _embedding_file(path, rows: dict) -> bytes:
    """Write an embedding store file with json alone; returns its bytes."""
    dim = len(next(iter(rows.values())))
    lines = [json.dumps({"format": "spikecast-embeddings/1", "dim": dim})]
    lines += [json.dumps({"year": y, "dim": dim, "values": [float(v) for v in rows[y]]})
              for y in sorted(rows)]
    data = "".join(line + "\n" for line in lines).encode()
    path.write_bytes(data)
    return data


def _awkward_rows(years, d, seed=0) -> dict:
    """Rows whose values span many magnitudes, with signed zeros and
    integral values, so every printed digit counts."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(len(years), d)) * 10.0 ** rng.integers(-300, 300, (len(years), d))
    values[:, ::7] = -0.0
    values[:, 1::11] = np.round(values[:, 1::11] % 1e6)
    return {y: row for y, row in zip(years, values)}


class TestEmbeddingStore:
    def test_header_and_round_trip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        store = EmbeddingStore(path)
        store.put(1960, (0.1, 0.2, 0.3))
        store.write()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "spikecast-embeddings/1", "dim": 3}
        assert EmbeddingStore(path).dim == 3

    def test_dim_mismatch_on_put(self, tmp_path):
        store = EmbeddingStore(tmp_path / "e.jsonl", dim=3)
        with pytest.raises(StoreError, match="dim"):
            store.put(1960, (0.1, 0.2))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"year": 1960, "dim": 2, "values": [0.1, 0.2]}\n')
        with pytest.raises(StoreError, match="header"):
            EmbeddingStore(path)

    def test_record_dim_must_match_header(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"format": "spikecast-embeddings/1", "dim": 2}\n'
            '{"year": 1960, "dim": 3, "values": [0.1, 0.2, 0.3]}\n'
        )
        with pytest.raises(StoreError, match="dim"):
            EmbeddingStore(path)

    @pytest.mark.parametrize("record", [
        '{"year": 1960, "dim": 2, "values": [0.1]}',
        '{"year": 1960, "dim": 2, "values": [0.1, NaN]}',
        '{"year": 1960, "dim": 2, "values": [0.1, "x"]}',
        '{"year": 1960, "dim": 2, "values": [[0.1, 0.2]]}',
        '{"year": 1960, "dim": 2}',
        '[1960, 2, [0.1, 0.2]]',
        '{"year": 1e400, "dim": 2, "values": [0.1, 0.2]}',
        '{"year": 1960, "dim": 3, "values": [0.1, 0.2]}',
        '{"year": 1960.7, "dim": 2, "values": [0.1, 0.2]}',
        '{"year": true, "dim": 2, "values": [0.1, 0.2]}',
        '{"year": 1960, "dim": 2.0, "values": [0.1, 0.2]}',
        '{"year": 1960, "dim": 2, "values": ["1.5", 0.2]}',
        '{"year": 1960, "dim": 2, "values": [1.5, true]}',
        '{"year": 1960, "dim": 2, "values": {"a": 1, "b": 2}}',
        '{"year": 1960, "dim": 2, "values": [1e400, 0.2]}',
        '{"year": 1960, "dim": 2, "values": [1%s, 0.2]}' % ("0" * 400),
        '{"year": 1960, "dim": 2, "values": [1%s, 0.2]}' % ("0" * 5000),
    ], ids=["short", "nan", "string", "nested", "no-values", "not-object", "year-inf",
            "dim-field", "year-float", "year-bool", "dim-float", "value-string",
            "value-bool", "values-object", "value-inf", "value-overflow",
            "value-too-many-digits"])
    def test_bad_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "e.jsonl"
        path.write_text('{"format": "spikecast-embeddings/1", "dim": 2}\n'
                        '{"year": 1959, "dim": 2, "values": [0.1, 0.2]}\n'
                        + record + "\n")
        with pytest.raises(StoreError, match=r"e\.jsonl:3: "):
            EmbeddingStore(path)

    @pytest.mark.parametrize("value", ["NaN", "-1e400", "1" + "0" * 400])
    def test_bad_value_between_good_rows_names_its_line(self, tmp_path, value):
        path = tmp_path / "e.jsonl"
        rows = ['{"year": %d, "dim": 2, "values": [0.1, 0.2]}' % y for y in range(1960, 1965)]
        rows[2] = '{"year": 1962, "dim": 2, "values": [0.1, %s]}' % value
        path.write_text('{"format": "spikecast-embeddings/1", "dim": 2}\n'
                        + "\n".join(rows) + "\n")
        with pytest.raises(StoreError, match=r"e\.jsonl:4: year 1962: "):
            EmbeddingStore(path)

    def test_repeated_year_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"format": "spikecast-embeddings/1", "dim": 2}\n'
                        '{"year": 1960, "dim": 2, "values": [0.1, 0.2]}\n'
                        '{"year": 1961, "dim": 2, "values": [0.1, 0.2]}\n'
                        '{"year": 1960, "dim": 2, "values": [0.3, 0.4]}\n')
        with pytest.raises(StoreError, match=r"e\.jsonl:4: year 1960 repeats"):
            EmbeddingStore(path)

    @pytest.mark.parametrize("year", [2**63, -(2**63) - 1, 10**30])
    def test_year_beyond_int64_names_its_line(self, tmp_path, year):
        path = tmp_path / "e.jsonl"
        header = '{"format": "spikecast-embeddings/1", "dim": 2}\n'
        path.write_text(header + '{"year": 1960, "dim": 2, "values": [0.1, 0.2]}\n'
                        '{"year": %d, "dim": 2, "values": [0.3, 0.4]}\n' % year)
        with pytest.raises(StoreError, match=rf"e\.jsonl:3: year {year} does not fit"):
            EmbeddingStore(path)
        path.write_text(header + '{"year": %d, "dim": 2, "values": [0.1, 0.2]}\n'
                        % (2**63 - 1))  # the largest that fits
        years, _ = EmbeddingStore(path).matrix()
        assert years.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("dim", ["", ', "dim": "abc"', ', "dim": null', ', "dim": 0'],
                             ids=["missing", "string", "null", "zero"])
    def test_bad_header_dim_rejected(self, tmp_path, dim):
        path = tmp_path / "e.jsonl"
        path.write_text('{"format": "spikecast-embeddings/1"%s}\n' % dim)
        with pytest.raises(StoreError, match=r"e\.jsonl:1: header dim"):
            EmbeddingStore(path)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "e.jsonl"
        store = EmbeddingStore(path)
        store.put(1961, (0.5, -1.25, 1e-20))
        store.put(1960, (0.1, 2.0, -0.0))
        store.write()
        expected = (
            b'{"format": "spikecast-embeddings/1", "dim": 3}\n'
            b'{"year": 1960, "dim": 3, "values": [0.1, 2.0, -0.0]}\n'
            b'{"year": 1961, "dim": 3, "values": [0.5, -1.25, 1e-20]}\n'
        )
        assert path.read_bytes() == expected
        EmbeddingStore(path).write()
        assert path.read_bytes() == expected

    def test_vector_validation(self, tmp_path):
        """A row must match the store's width and hold finite numbers; a
        rejected put leaves the store as it was."""
        store = EmbeddingStore(tmp_path / "e.jsonl", dim=2)
        with pytest.raises(StoreError, match="dim 1 != store dim 2"):
            store.put(1960, (0.1,))
        for bad in ((0.1, float("nan")), (0.1, float("inf")), ((0.1, 0.2),), (),
                    ("a", "b")):
            with pytest.raises(ValidationError, match="year 1960"):
                store.put(1960, bad)
        assert store.matrix()[0].size == 0

    def test_second_width_rejected(self, tmp_path):
        store = EmbeddingStore(tmp_path / "e.jsonl")
        store.put(1960, (0.1, 0.2))
        with pytest.raises(StoreError, match="dim 3 != store dim 2"):
            store.put(1961, (0.1, 0.2, 0.3))

    def test_put_copies_and_replaces(self, tmp_path):
        store = EmbeddingStore(tmp_path / "e.jsonl")
        row = np.array([0.1, 0.2])
        store.put(np.int64(1960), row)
        row[0] = 9.0
        store.put(1961, (0.5, 0.6))
        store.put(1961, (0.7, 0.8))
        years, vectors = store.matrix()
        assert years.tolist() == [1960, 1961]
        assert vectors.tolist() == [[0.1, 0.2], [0.7, 0.8]]

    def test_empty_matrix(self, tmp_path):
        years, vectors = EmbeddingStore(tmp_path / "e.jsonl", dim=4).matrix()
        assert years.shape == (0,) and vectors.shape == (0, 4)

    @pytest.mark.parametrize("d", [1, 3, 768, 3072])
    def test_load_matches_reference(self, tmp_path, d):
        path = tmp_path / "e.jsonl"
        rows = _awkward_rows((1962, 1960, 1965, 1961), d, seed=d)
        _embedding_file(path, rows)
        years, vectors = EmbeddingStore(path).matrix()
        want = reference_load_embeddings(path)
        assert years.tolist() == [r.year for r in want]
        assert_same_bits(vectors, np.array([r.values for r in want]))

    def test_write_load_write_bytes_at_768(self, tmp_path):
        path = tmp_path / "e.jsonl"
        rows = _awkward_rows(range(1960, 2024), 768, seed=7)
        data = _embedding_file(path, rows)
        EmbeddingStore(path).write()
        assert path.read_bytes() == data
        other = tmp_path / "other.jsonl"
        store = EmbeddingStore(other)
        for year in reversed(sorted(rows)):
            store.put(year, rows[year])
        store.write()
        assert other.read_bytes() == data
        EmbeddingStore(other).write()
        assert other.read_bytes() == data


class TestAgentConfig:
    def test_defaults(self):
        cfg = AgentConfig()
        assert cfg.max_retries == 5
        assert cfg.years[0] == 1960 and cfg.years[-1] == 2023
        assert len(cfg.years) == 64
        assert cfg.fallback_policy == "skip"

    def test_validation(self):
        with pytest.raises(ConfigError):
            AgentConfig(max_retries=0)
        with pytest.raises(ConfigError):
            AgentConfig(years=())
        with pytest.raises(ConfigError):
            AgentConfig(in_flight_limit=0)
        with pytest.raises(ConfigError):
            AgentConfig(fallback_policy="punt")

    def test_repeated_years_rejected(self):
        # Each repeat would be drafted and verified again: a paid call apiece.
        with pytest.raises(ConfigError, match=r"years must not repeat, got \[1960, 1962\] "):
            AgentConfig(years=(1960, 1962, 1960, 1961, 1962))
