"""Outcome retrieval at scheduled resolution times.

Every question routes to a source-specific resolver through a registry key;
the surrounding machinery stays uniform. A resolver returns the raw record it
found (or nothing); the verification that the record actually matches the
question, the publication-time gate, and the unresolved taxonomy all live
here, so no resolver can fabricate a label.

Unresolved reasons: not_published (no valid outcome yet), match_failed
(record cannot be reliably tied to the question), postponed (target event
moved or canceled), resolver_error (routing or retrieval fault).

Shipped resolver: a lookup in JSONL answer files. An answer row is the wire
form of ``ResolutionRecord``, with ``label`` the JSON integer 0 or 1; a bad
row or an unreadable file is ``resolver_error``, and so, in the built-in
world's truth files, is a missing row or a key that is no field.
Resolution is read-only with respect to the trajectory ledger; backfilling is
the orchestrator's job.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Protocol, Sequence, Union

from .domain import Outcome, Question
from .jsonl import from_row, read_jsonl

REASON_NOT_PUBLISHED = "not_published"
REASON_MATCH_FAILED = "match_failed"
REASON_POSTPONED = "postponed"
REASON_RESOLVER_ERROR = "resolver_error"

UNRESOLVED_REASONS = (
    REASON_NOT_PUBLISHED,
    REASON_MATCH_FAILED,
    REASON_POSTPONED,
    REASON_RESOLVER_ERROR,
)


@dataclass(frozen=True)
class Unresolved:
    question_id: str
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in UNRESOLVED_REASONS:
            raise ValueError(f"unknown unresolved reason {self.reason!r}")


@dataclass(frozen=True)
class ResolutionRecord:
    """One answer row: what the source published about an event, before verification."""

    identifier: str
    label: Optional[int] = None
    published_at: Optional[datetime] = None
    status: str = "resolved"  # or "postponed" or "not_published", with no label

    def __post_init__(self) -> None:
        if self.status not in ("resolved", REASON_POSTPONED, REASON_NOT_PUBLISHED):
            raise ValueError(f"unknown answer status {self.status!r}")


class Resolver(Protocol):
    def resolve(self, question: Question) -> Optional[ResolutionRecord]:
        ...


@dataclass
class FileLookupResolver:
    """Answer files read into one table of answer rows, keyed by identifier."""

    truth: Mapping[str, Mapping[str, Any]]
    strict = False  # True: a missing row or a key that is no field is resolver_error

    @classmethod
    def from_files(cls, paths: Iterable[Path]) -> "FileLookupResolver":
        return cls(truth={row["identifier"]: row for path in paths for row in read_jsonl(path)})

    def resolve(self, question: Question) -> Optional[ResolutionRecord]:
        identifier = question.resolver_metadata.get("identifier", "")
        row = self.truth[identifier] if self.strict else self.truth.get(identifier)
        # One subject for every row: ``from_row`` caches a decoder per subject.
        return None if row is None else from_row(ResolutionRecord, row, "answer row", self.strict)


class SyntheticTruthResolver(FileLookupResolver):
    """The built-in world's truth files: answer files with a row for every event."""

    strict = True


ResolverRegistry = Mapping[str, Optional[Resolver]]  # None: the key's questions are resolver_error


def answer_file_resolvers(answer_files: Mapping[str, str]) -> ResolverRegistry:
    """A resolver per answer file; one that cannot be read or parsed is None."""
    registry: dict[str, Optional[FileLookupResolver]] = dict.fromkeys(answer_files)
    for key, path in answer_files.items():
        with suppress(OSError, ValueError, KeyError, TypeError):
            registry[key] = FileLookupResolver.from_files([Path(path)])
    return registry


def resolve_question(
    question: Question, registry: ResolverRegistry, now: datetime
) -> Union[Outcome, Unresolved]:
    """Retrieve and verify one question's outcome.

    The returned label is only trusted when the record's identifier matches
    the question's stored routing metadata; anything else is unresolved with
    a reason, never a guess.
    """
    if now < question.resolution_time:
        return Unresolved(question.id, REASON_NOT_PUBLISHED)
    resolver = registry.get(question.resolver_key)
    if resolver is None:
        return Unresolved(question.id, REASON_RESOLVER_ERROR)
    try:
        record = resolver.resolve(question)
    except Exception:
        return Unresolved(question.id, REASON_RESOLVER_ERROR)
    if record is None:
        return Unresolved(question.id, REASON_NOT_PUBLISHED)
    if record.status != "resolved":
        return Unresolved(question.id, record.status)
    if record.identifier != question.resolver_metadata.get("identifier"):
        return Unresolved(question.id, REASON_MATCH_FAILED)
    if record.published_at is not None and record.published_at > now:
        return Unresolved(question.id, REASON_NOT_PUBLISHED)
    if record.label not in (0, 1):
        return Unresolved(question.id, REASON_RESOLVER_ERROR)
    return Outcome(question_id=question.id, label=record.label, resolved_at=now)


@dataclass
class BatchResolution:
    outcomes: list[Outcome]
    unresolved: list[Unresolved]

    def unresolved_reasons(self) -> dict[str, int]:
        return dict(Counter(u.reason for u in self.unresolved))


def resolve_batch(
    questions: Sequence[Question], registry: ResolverRegistry, now: datetime
) -> BatchResolution:
    """Resolve a batch; the partition is total and per-question faults are isolated."""
    outcomes: list[Outcome] = []
    unresolved: list[Unresolved] = []
    for question in questions:
        result = resolve_question(question, registry, now)
        if isinstance(result, Outcome):
            outcomes.append(result)
        else:
            unresolved.append(result)
    return BatchResolution(outcomes=outcomes, unresolved=unresolved)
