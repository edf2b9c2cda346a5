"""Manager loop: draft a yearly summary, fact-check it, retry, persist.

For each requested year a specialist backend drafts a summary, a
fact-checker returns a binary verdict, and the manager regenerates until
acceptance or the retry budget is spent. Accepted summaries go to the
summary store; exhausted years are skipped or recorded as unverified
placeholders, per policy. A second run over the same store leaves its bytes
unchanged unless some year's outcome actually changes.
"""
from __future__ import annotations

import functools
import logging
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable

import numpy as np

from .backends import TextBackend, Verdict
from .errors import BackendError, ConfigError, InvalidDraftError, ValidationError, check_count
from .stores import EmbeddingStore, NewsSummary, SummaryStore, utc_now

log = logging.getLogger(__name__)

FALLBACK_POLICIES = ("skip", "placeholder")


@dataclass(frozen=True)
class AgentConfig:
    """Knobs of the generate/verify loop."""

    max_retries: int = 5
    years: tuple[int, ...] = tuple(range(1960, 2024))
    in_flight_limit: int = 1
    fallback_policy: str = "skip"
    commodities: tuple[str, ...] = ("crude oil", "natural gas", "coal")

    def __post_init__(self):
        check_count("max_retries", self.max_retries, 1)
        check_count("in_flight_limit", self.in_flight_limit, 1)
        if not self.years:
            raise ConfigError("years must be non-empty")
        for year in self.years:  # each is written to the summary store as a year
            check_count("year", year, 0)
        if len(set(self.years)) < len(self.years):  # each repeat is drafted again
            repeats = sorted({y for y in self.years if self.years.count(y) > 1})
            raise ConfigError(f"years must not repeat, got {repeats} more than once")
        if self.fallback_policy not in FALLBACK_POLICIES:
            raise ConfigError(
                f"fallback_policy must be one of {FALLBACK_POLICIES}, "
                f"got {self.fallback_policy!r}"
            )


@functools.cache
def _template(name: str) -> str:
    """A packaged prompt, read once per process."""
    return (resources.files("spikecast") / "prompts" / name).read_text()


def build_summary_prompt(
    year: int, commodities: tuple[str, ...], revision: int = 0
) -> str:
    note = ""
    if revision > 0:
        note = (
            f"Revision {revision}: the previous draft failed fact-checking; "
            "write a fresh draft.\n"
        )
    return _template("summary.txt").format(
        year=year,
        commodities=", ".join(commodities) if commodities else "major commodities",
        revision_note=note,
    )


def build_fact_check_prompt(summary: str) -> str:
    return _template("fact_check.txt").format(summary=summary)


def generate_summary(
    year: int,
    backend: TextBackend,
    config: AgentConfig,
    revision: int = 0,
    clock: Callable[[], str] = utc_now,
) -> NewsSummary:
    """One specialist call producing an unverified draft for a year."""
    if year not in config.years:
        raise ValidationError(
            f"year {year} outside configured range "
            f"{config.years[0]}..{config.years[-1]}"
        )
    prompt = build_summary_prompt(year, config.commodities, revision)
    text = backend.generate(prompt)
    if not text or not text.strip():
        raise InvalidDraftError(f"backend returned an empty draft for {year}")
    return NewsSummary(
        year=year,
        commodities=config.commodities,
        summary=text,
        verified=False,
        retries=revision,
        backend_id=backend.backend_id,
        created_at=clock(),
    )


def fact_check(draft: NewsSummary, backend: TextBackend) -> Verdict:
    """Binary verdict on the fact-check prompt built around a draft's text."""
    if not draft.summary.strip():
        raise InvalidDraftError(f"year {draft.year}: cannot fact-check an empty draft")
    verdict = backend.verify(build_fact_check_prompt(draft.summary))
    if verdict.value not in (0, 1):
        raise BackendError(f"backend returned non-binary verdict {verdict.value!r}")
    return verdict


def _distill_year(
    year: int,
    config: AgentConfig,
    backend: TextBackend,
    clock: Callable[[], str] = utc_now,
) -> NewsSummary | None:
    """Generate/verify loop for one year; at most max_retries generate calls."""
    for attempt in range(config.max_retries):
        try:
            draft = generate_summary(year, backend, config, revision=attempt, clock=clock)
        except (BackendError, InvalidDraftError) as exc:
            log.warning("year %d attempt %d: generation failed: %s", year, attempt + 1, exc)
            continue
        try:
            verdict = fact_check(draft, backend)
        except BackendError as exc:
            log.warning("year %d attempt %d: verification failed: %s", year, attempt + 1, exc)
            continue
        if verdict.value == 1:
            return replace(draft, verified=True, retries=attempt)
    log.warning(
        "year %d: no accepted summary after %d attempts (policy=%s)",
        year, config.max_retries, config.fallback_policy,
    )
    if config.fallback_policy == "placeholder":
        return NewsSummary(
            year=year,
            commodities=config.commodities,
            summary=(f"No verified summary could be produced for {year} within "
                     f"{config.max_retries} attempts."),
            verified=False,
            retries=config.max_retries,
            backend_id=backend.backend_id,
            created_at=clock(),
        )
    return None


def orchestrate(
    config: AgentConfig,
    backend: TextBackend,
    store: SummaryStore,
    clock: Callable[[], str] = utc_now,
) -> dict[int, NewsSummary]:
    """Produce a summary for every configured year and persist the store.

    Years already verified in the store by this backend for these
    commodities are returned as-is without touching the backend. Remaining
    years run their retry loops, concurrently up to config.in_flight_limit;
    results are merged and written in year order so the store's bytes never
    depend on completion order. The written store keeps only this backend's
    records for these commodities, and no old record of a year that this
    run regenerated and failed.
    """
    run = (backend.backend_id, tuple(config.commodities))  # who wrote a record, and for what
    done = {y: rec for y in store.verified_years() & set(config.years)
            if ((rec := store.get(y)).backend_id, tuple(rec.commodities)) == run}
    pending = [y for y in config.years if y not in done]

    fresh: list[NewsSummary | None] = []
    if pending:
        if config.in_flight_limit == 1:
            fresh = [_distill_year(y, config, backend, clock) for y in pending]
        else:
            with ThreadPoolExecutor(max_workers=config.in_flight_limit) as pool:
                fresh = list(
                    pool.map(lambda y: _distill_year(y, config, backend, clock), pending)
                )

    result: dict[int, NewsSummary] = dict(done)
    for summary in fresh:
        if summary is not None:
            store.upsert(summary)
            result[summary.year] = store.get(summary.year)
    failed = set(pending) - set(result)
    store.retain(lambda rec: (rec.backend_id, tuple(rec.commodities)) == run
                 and rec.year not in failed)
    store.write()

    if not any(s.verified for s in result.values()):
        warnings.warn(
            f"no year produced a verified summary ({len(config.years)} attempted)",
            stacklevel=2,
        )
    return {y: result[y] for y in sorted(result)}


def embed_summaries(
    summaries: list[NewsSummary],
    backend: TextBackend,
    store: EmbeddingStore,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed verified summaries into `store`, write it, and return its
    (years (n,), vectors (n, d)) matrix."""
    unverified = [s.year for s in summaries if not s.verified]
    if unverified:
        raise ValidationError(
            f"cannot embed unverified summaries for years {sorted(unverified)}"
        )
    dim = None
    for s in sorted(summaries, key=lambda r: r.year):
        values = backend.embed(s.summary)
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise BackendError(
                f"embedding dim changed from {dim} to {len(values)} at year {s.year}"
            )
        store.put(s.year, values)
    store.write()
    return store.matrix()
