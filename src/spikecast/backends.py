"""Text-generation backends: the protocol, a deterministic mock, a registry.

Every backend exposes three capabilities: generate (draft a summary from a
prompt), verify (binary fact-check verdict on a summary), and embed (dense
vector for a text). The mock derives all outputs from sha256 so the whole
agent pipeline is bit-reproducible in tests and offline runs.
"""
from __future__ import annotations

import hashlib
import os
import re
import threading
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .errors import BackendError, ConfigError, check_count

_YEAR_RE = re.compile(r"\b(1[0-9]{3}|2[0-9]{3})\b")
# Environment variable holding the credential of every non-mock backend.
CREDENTIAL_ENV = "NEWS_BACKEND_KEY"


@dataclass(frozen=True)
class Verdict:
    """Binary fact-check outcome with an optional explanation."""

    value: int
    rationale: str | None = None

    def __post_init__(self):
        if self.value not in (0, 1):
            raise BackendError(f"verdict value must be 0 or 1, got {self.value!r}")


@runtime_checkable
class TextBackend(Protocol):
    """Capability bundle every pluggable backend must provide."""

    backend_id: str

    def generate(self, prompt: str) -> str: ...

    def verify(self, prompt: str) -> Verdict:
        """Verdict on the fact-check prompt that agents.build_fact_check_prompt
        builds around a draft summary."""

    def embed(self, text: str) -> list[float]: ...


def _hash_words(seed: int, tag: str, key: str, n: int) -> list[str]:
    vocab = (
        "supply", "demand", "export", "embargo", "drought", "surplus",
        "inventory", "tariff", "conflict", "logistics", "inflation",
        "currency", "production", "stockpile", "shipping", "sanctions",
    )
    digest = hashlib.sha256(f"{seed}|{tag}|{key}".encode()).digest()
    return [vocab[b % len(vocab)] for b in digest[:n]]


class MockBackend:
    """Seeded offline backend: hash-derived text, verdicts, and embeddings.

    verdict_mode: "accept" approves everything, "reject" approves nothing,
    "scripted" consults accept_after[year] = number of rejections a year's
    drafts receive before the next verify call approves. Call counters are
    per-year and lock-protected, so outcomes do not depend on thread
    interleaving.
    """

    def __init__(
        self,
        seed: int = 0,
        dim: int = 64,
        verdict_mode: str = "accept",
        accept_after: dict[int, int] | None = None,
    ):
        check_count("embedding dim", dim, 1)
        if verdict_mode not in ("accept", "reject", "scripted"):
            raise ConfigError(f"unknown verdict_mode {verdict_mode!r}")
        self.seed = seed
        self.dim = dim
        self.verdict_mode = verdict_mode
        self.accept_after = dict(accept_after or {})
        self.backend_id = f"mock-s{seed}-d{dim}"
        self.generate_calls: dict[int, int] = {}
        self.verify_calls: dict[int, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _year_of(text: str) -> int:
        m = _YEAR_RE.search(text)
        return int(m.group(0)) if m else -1

    def generate(self, prompt: str) -> str:
        """Deterministic summary text echoing the prompt's year and commodities."""
        if not prompt.strip():
            raise BackendError("empty prompt")
        year = self._year_of(prompt)
        with self._lock:
            self.generate_calls[year] = self.generate_calls.get(year, 0) + 1
        names = "mixed commodities"
        for line in prompt.splitlines():
            if line.lower().startswith("commodities:"):
                names = line.split(":", 1)[1].strip() or names
                break
        w = _hash_words(self.seed, "gen", prompt, 5)
        return (
            f"In {year}, markets were shaped by {w[0]} disruptions, {w[1]} "
            f"pressure, and shifting {w[2]} conditions. Commodities: {names}. "
            f"Analysts tied price moves to {w[3]} constraints and {w[4]} trends."
        )

    def verify(self, prompt: str) -> Verdict:
        """Verdict keyed on the first year in the prompt."""
        year = self._year_of(prompt)
        with self._lock:
            seen = self.verify_calls.get(year, 0)
            self.verify_calls[year] = seen + 1
        if self.verdict_mode == "accept":
            return Verdict(1, "accepted")
        if self.verdict_mode == "reject":
            return Verdict(0, "rejected")
        needed = self.accept_after.get(year, 0)
        if seen >= needed:
            return Verdict(1, f"accepted after {seen} rejections")
        return Verdict(0, f"rejection {seen + 1} of {needed}")

    def embed(self, text: str) -> list[float]:
        """dim floats in [-1, 1), a pure function of (seed, text): each
        big-endian 8-byte word u of the sha256 block digests gives
        u / 2**63 - 1, exactly as Python's int division rounds it."""
        blocks = b"".join(
            hashlib.sha256(f"{self.seed}|emb|{block}|{text}".encode()).digest()
            for block in range(-(-self.dim // 4))
        )
        return (np.frombuffer(blocks, ">u8")[: self.dim] / 2.0**63 - 1.0).tolist()


_REGISTRY: dict[str, Callable[..., TextBackend]] = {"mock": MockBackend}


def register_backend(name: str, factory: type) -> None:
    """Expose an additional backend to get_backend and the command line.

    It needs a credential in $NEWS_BACKEND_KEY; the value is passed to the
    factory and never written to any artifact.
    """
    def build(seed: int, dim: int) -> TextBackend:
        key = os.environ.get(CREDENTIAL_ENV)
        if not key:
            raise ConfigError(
                f"backend {name!r} needs a credential in ${CREDENTIAL_ENV}"
            )
        return factory(api_key=key, seed=seed, dim=dim)

    _REGISTRY[name] = build


def get_backend(name: str, seed: int = 0, dim: int = 64) -> TextBackend:
    """Resolve a backend by name."""
    factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown backend {name!r}; registered: {known}")
    return factory(seed=seed, dim=dim)
