"""Core data model shared by every pipeline stage.

All timestamps are stored and compared in UTC at second precision; wall-clock
configuration (issue/resolve times in a local timezone) is converted on
ingest. Types are immutable value records and safe to share across threads.

A record's wire form is a flat JSON object keyed by its dataclass fields, with
timestamps as RFC 3339 strings and enums as their values, derived by
``jsonl.to_row``/``jsonl.from_row``. ``ledger`` writes and decodes
``Trajectory`` and ``Step`` itself, in that same wire form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Any, Mapping, Optional

from .scoring import binary_label, trajectory_reward

QuestionId = str
TrajectoryId = str
SourceId = str
DomainLabel = str

#: Reserved fallback label for questions no classification rule matches.
OTHER_DOMAIN: DomainLabel = "other"


def ensure_utc(ts: datetime) -> datetime:
    """Normalize a timestamp to tz-aware UTC, truncated to whole seconds."""
    if ts.tzinfo is timezone.utc and not ts.microsecond:
        return ts  # already normalized, as every parsed "+00:00" timestamp is
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def format_rfc3339(ts: datetime) -> str:
    return ensure_utc(ts).isoformat()


def parse_rfc3339(text: str) -> datetime:
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return ensure_utc(datetime.fromisoformat(text))


class TrajectoryStatus(str, enum.Enum):
    PENDING = "PENDING"
    RESOLVED = "RESOLVED"
    DISCARDED = "DISCARDED"


@dataclass(frozen=True)
class CandidateEvent:
    """A raw future event pulled from a source, before templating.

    The payload holds the extracted fields a question template needs; the
    resolver routing information travels alongside so the question built from
    this event can later be matched back to its outcome.
    """

    source_id: SourceId
    source_url: str
    observed_at: datetime
    #: JSON values from a feed line; a template formats them into the text
    payload: Mapping[str, Any]
    expected_resolution: datetime
    resolver_key: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "observed_at", ensure_utc(self.observed_at))
        object.__setattr__(self, "expected_resolution", ensure_utc(self.expected_resolution))
        object.__setattr__(self, "payload", dict(self.payload))
        if self.expected_resolution <= self.observed_at:
            raise ValueError("expected_resolution must be after observed_at")

    @property
    def identifier(self) -> str:
        """The resolver identifier; the question id derives from it."""
        return self.payload.get("identifier", self.source_url)

@dataclass(frozen=True)
class Question:
    """A binary future-event question issued to agents at prediction time."""

    id: QuestionId
    text: str
    prediction_time: datetime
    resolution_time: datetime
    source: SourceId
    source_url: str
    resolver_key: str
    resolver_metadata: Mapping[str, Any]
    domain: DomainLabel = OTHER_DOMAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "prediction_time", ensure_utc(self.prediction_time))
        object.__setattr__(self, "resolution_time", ensure_utc(self.resolution_time))
        object.__setattr__(self, "resolver_metadata", dict(self.resolver_metadata))
        if not self.text:
            raise ValueError("question text must be non-empty")
        if self.resolution_time <= self.prediction_time:
            raise ValueError("resolution_time must be after prediction_time")

    def with_domain(self, domain: DomainLabel) -> "Question":
        return replace(self, domain=domain)

@dataclass(frozen=True)
class QuestionDescriptionPair:
    """A question plus its optional background description.

    The description supports filtering and similarity resampling only; it is
    never shown to agents.
    """

    question: Question
    description: Optional[str] = None

    def __post_init__(self) -> None:
        if self.description is not None and not self.description:
            raise ValueError("description, when present, must be non-empty")

@dataclass(frozen=True, slots=True)
class Step:
    """One search action and the observation the tool returned for it."""

    action: str
    observation: str
    issued_at: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "issued_at", ensure_utc(self.issued_at))
        if not self.action:
            raise ValueError("step action must be non-empty")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """One stochastic rollout of a question.

    The record is completed in two stages: the prediction-time prefix (steps
    and the final probability estimate) is stored first with status PENDING,
    and the label is backfilled once the outcome is retrieved; ``resolved``
    derives the reward from it. The raw final answer is kept verbatim so the
    invalid-output penalty stays auditable next to the parsed probability.
    """

    trajectory_id: TrajectoryId
    question_id: QuestionId
    rollout_index: int
    prediction_time: datetime
    steps: tuple[Step, ...]
    raw_final_answer: str
    final_probability: Optional[float]
    status: TrajectoryStatus = TrajectoryStatus.PENDING
    label: Optional[int] = None
    reward: Optional[float] = None

    def __post_init__(self) -> None:
        # Replay and the terminal fold build one trajectory per ledger record
        # from values already normalized; those need no write.
        prediction_time = ensure_utc(self.prediction_time)
        if prediction_time is not self.prediction_time:
            object.__setattr__(self, "prediction_time", prediction_time)
        if type(self.steps) is not tuple:
            object.__setattr__(self, "steps", tuple(self.steps))

    def resolved(self, label: int) -> "Trajectory":
        """Return the RESOLVED copy of this trajectory, its reward derived from ``label``."""
        reward = trajectory_reward(self.final_probability, label)
        return self._terminal(TrajectoryStatus.RESOLVED, label, reward)

    def discarded(self) -> "Trajectory":
        return self._terminal(TrajectoryStatus.DISCARDED, None, None)

    def _terminal(
        self, status: TrajectoryStatus, label: Optional[int], reward: Optional[float]
    ) -> "Trajectory":
        # Built directly: a ledger replay folds one terminal record per
        # trajectory, and dataclasses.replace costs several times this.
        return Trajectory(
            self.trajectory_id,
            self.question_id,
            self.rollout_index,
            self.prediction_time,
            self.steps,
            self.raw_final_answer,
            self.final_probability,
            status,
            label,
            reward,
        )


@dataclass(frozen=True)
class Outcome:
    """The realized binary outcome of a question."""

    question_id: QuestionId
    label: int
    resolved_at: datetime

    def __post_init__(self) -> None:
        object.__setattr__(self, "resolved_at", ensure_utc(self.resolved_at))
        binary_label(self.label)
