"""Outcome retrieval at scheduled resolution times.

Every question routes to a source-specific resolver through a registry key;
the surrounding machinery stays uniform. A resolver returns the raw record it
found (or nothing); the verification that the record actually matches the
question, the publication-time gate, and the unresolved taxonomy all live
here, so no resolver can fabricate a label.

Unresolved reasons: not_published (no valid outcome yet), match_failed
(record cannot be reliably tied to the question), postponed (target event
moved or canceled), resolver_error (routing or retrieval fault).

Shipped resolvers: a synthetic-truth resolver backed by the generated world's
sidecar table, and a file-lookup resolver over a keyed JSONL answer file.
Resolution is read-only with respect to the trajectory ledger; backfilling is
the orchestrator's job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Protocol, Sequence, Union

from .domain import Outcome, Question, parse_rfc3339
from .jsonl import read_jsonl

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
    """What a resolver found at the source, before verification."""

    identifier: str
    label: Optional[int] = None
    published_at: Optional[datetime] = None
    status: str = "resolved"  # or "postponed"
    evidence: str = ""


class Resolver(Protocol):
    def resolve(self, question: Question) -> Optional[ResolutionRecord]:
        ...


@dataclass
class SyntheticTruthResolver:
    """Reads the generated world's sidecar truth table.

    The table is the only place realized labels exist; events marked
    unretrievable return no record (or a postponement), mirroring sources
    that have not published an outcome.
    """

    truth: Mapping[str, Mapping[str, Any]]

    @classmethod
    def from_files(cls, paths: Iterable[Path]) -> "SyntheticTruthResolver":
        return cls(truth={row["identifier"]: row for path in paths for row in read_jsonl(path)})

    def resolve(self, question: Question) -> Optional[ResolutionRecord]:
        identifier = question.resolver_metadata.get("identifier", "")
        row = self.truth.get(identifier)
        if row is None:
            raise KeyError(f"no truth row for {identifier}")
        if not row.get("will_resolve", True):
            if row.get("unresolved_reason") == REASON_POSTPONED:
                return ResolutionRecord(identifier=identifier, status="postponed")
            return None
        return ResolutionRecord(
            identifier=identifier,
            label=int(row["label"]),
            evidence=f"synthetic truth row {identifier}",
        )


@dataclass
class FileLookupResolver:
    """Keyed JSONL answer file: {identifier, label, published_at, status, evidence}."""

    path: Path
    _rows: Optional[dict[str, dict[str, Any]]] = field(default=None, repr=False)

    def resolve(self, question: Question) -> Optional[ResolutionRecord]:
        if self._rows is None:
            self._rows = {row["identifier"]: row for row in read_jsonl(self.path)}
        identifier = question.resolver_metadata.get("identifier", "")
        row = self._rows.get(identifier)
        if row is None:
            return None
        published_at = parse_rfc3339(row["published_at"]) if row.get("published_at") else None
        return ResolutionRecord(
            identifier=row["identifier"],
            label=int(row["label"]) if row.get("label") is not None else None,
            published_at=published_at,
            status=row.get("status", "resolved"),
            evidence=row.get("evidence", f"answer file row {identifier}"),
        )


ResolverRegistry = Mapping[str, Resolver]


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
    if record.status == "postponed":
        return Unresolved(question.id, REASON_POSTPONED)
    if record.identifier != question.resolver_metadata.get("identifier"):
        return Unresolved(question.id, REASON_MATCH_FAILED)
    if record.published_at is not None and record.published_at > now:
        return Unresolved(question.id, REASON_NOT_PUBLISHED)
    if record.label not in (0, 1):
        return Unresolved(question.id, REASON_RESOLVER_ERROR)
    return Outcome(
        question_id=question.id,
        label=record.label,
        resolved_at=now,
        evidence=record.evidence,
    )


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
