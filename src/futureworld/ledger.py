"""Two-phase trajectory store with append-only logs and replay.

A trajectory is written in two stages: a PREFIX record at prediction time
(the PENDING trajectory plus the exact conversation shown to the agent), and
later exactly one terminal record, either BACKFILL (label + reward) or
DISCARD. Storage is one append-only JSONL log per UTC issue day and nothing
else; replaying the logs reconstructs the live state exactly, and any prefix
of a log is a consistent state. Every write call appends its records to one
log and fsyncs once before it returns. A torn final line left by a crashed
writer is skipped by replay and cut off before the next append to that log.

Exports are training groups: for each question with resolved rollouts, the
masked transcripts, rewards, and group-relative advantages of its RESOLVED
trajectories. Tool and environment turns are masked; agent turns are not.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .domain import (
    Outcome,
    Trajectory,
    TrajectoryStatus,
    dumps_canonical,
    format_rfc3339,
)
from .resolve import Unresolved
from .rollout import ROLE_AGENT, Turn

KIND_PREFIX = "PREFIX"
KIND_BACKFILL = "BACKFILL"
KIND_DISCARD = "DISCARD"

RewardFn = Callable[[Optional[float], int], float]
_Item = TypeVar("_Item", Outcome, Unresolved)


class LedgerError(Exception):
    pass


class DuplicateTrajectoryError(LedgerError):
    pass


class ConflictingOutcomeError(LedgerError):
    pass


class ReplayError(LedgerError):
    def __init__(self, message: str, sequence_no: Optional[int] = None):
        super().__init__(message if sequence_no is None else f"{message} (sequence_no={sequence_no})")
        self.sequence_no = sequence_no


@dataclass(frozen=True)
class MaskSpan:
    """Loss-mask marker for one transcript turn; masked turns are not trained on."""

    turn_index: int
    masked: bool

    def to_dict(self) -> dict[str, Any]:
        return {"turn_index": self.turn_index, "masked": self.masked}


def mask_spans_for(transcript: Sequence[Turn]) -> list[MaskSpan]:
    """Mask tool observations and environment messages; keep agent turns live."""
    return [
        MaskSpan(turn_index=i, masked=turn.role != ROLE_AGENT)
        for i, turn in enumerate(transcript)
    ]


def compute_group_advantages(rewards: Sequence[float], eps: float = 1e-6) -> list[float]:
    """Group-relative advantages: standardize rewards within one question.

    All-equal rewards (including the single-rollout case) yield exact zeros.
    The eps floor on the denominator only matters for degenerate spreads; any
    real spread is standardized exactly, so the advantages of an exported
    group have mean 0 and population standard deviation 1.
    """
    if not rewards:
        raise ValueError("cannot normalize an empty reward list")
    if max(rewards) == min(rewards):
        return [0.0] * len(rewards)
    mean = math.fsum(rewards) / len(rewards)
    variance = math.fsum((r - mean) ** 2 for r in rewards) / len(rewards)
    denom = max(math.sqrt(variance), eps)
    return [(r - mean) / denom for r in rewards]


@dataclass
class TrainingEntry:
    trajectory_id: str
    rollout_index: int
    transcript: list[Turn]
    mask_spans: list[MaskSpan]
    reward: float
    advantage: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "trajectory_id": self.trajectory_id,
            "rollout_index": self.rollout_index,
            "transcript": [t.to_dict() for t in self.transcript],
            "mask_spans": [m.to_dict() for m in self.mask_spans],
            "reward": self.reward,
            "advantage": self.advantage,
        }


@dataclass
class TrainingGroup:
    """All resolved rollouts of one question, ready for a group-relative update."""

    question_id: str
    label: int
    entries: list[TrainingEntry]

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "label": self.label,
            "trajectories": [e.to_dict() for e in self.entries],
        }


@dataclass
class _StoredTrajectory:
    trajectory: Trajectory
    transcript: list[Turn]
    day: date


class TrajectoryLedger:
    """Append-only trajectory store rooted at a directory.

    Concurrency contract: a single appender serializes writes and is the
    only one that repairs a torn log tail; readers see immutable snapshots
    (all returned records are frozen values).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: dict[str, _StoredTrajectory] = {}
        self._by_question: dict[str, list[str]] = {}
        self._day_questions: dict[date, set[str]] = {}
        self._day_seq: dict[date, int] = {}
        #: byte length of each day log whose replay skipped a torn final line
        self._torn_logs: dict[date, int] = {}
        self._replay_existing()

    # -- log files ---------------------------------------------------------

    def _log_path(self, day: date) -> Path:
        return self.root / f"ledger-{day.isoformat()}.jsonl"

    def log_days(self) -> list[date]:
        days = []
        for path in sorted(self.root.glob("ledger-*.jsonl")):
            days.append(date.fromisoformat(path.stem.removeprefix("ledger-")))
        return days

    def _replay_existing(self) -> None:
        for day in self.log_days():
            records, complete_bytes = read_log_records(self._log_path(day))
            if complete_bytes is not None:
                self._torn_logs[day] = complete_bytes
            apply_records(self, day, records)

    def _append_batch(self, day: date, records: Sequence[dict[str, Any]]) -> list[int]:
        """Write a batch of records durably: one flush+fsync per call."""
        seq = self._day_seq.get(day, 0)
        numbered = []
        for record in records:
            seq += 1
            numbered.append({"sequence_no": seq, **record})
        path = self._log_path(day)
        with path.open("a", encoding="utf-8") as fh:
            if day in self._torn_logs:
                fh.truncate(self._torn_logs.pop(day))
            for record in numbered:
                fh.write(dumps_canonical(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._day_seq[day] = seq
        return [r["sequence_no"] for r in numbered]

    # -- queries -----------------------------------------------------------

    def get(self, trajectory_id: str) -> Trajectory:
        return self._records[trajectory_id].trajectory

    def transcript(self, trajectory_id: str) -> list[Turn]:
        return list(self._records[trajectory_id].transcript)

    def trajectories_for(self, question_id: str) -> list[Trajectory]:
        ids = self._by_question.get(question_id, [])
        return [self._records[tid].trajectory for tid in ids]

    def questions_for_day(self, day: date) -> list[str]:
        return sorted(self._day_questions.get(day, set()))

    def all_trajectories(self) -> list[Trajectory]:
        return [rec.trajectory for rec in self._records.values()]

    def has_question(self, question_id: str) -> bool:
        return question_id in self._by_question

    # -- mutations ---------------------------------------------------------

    def append_prefix_batch(
        self, prefixes: Sequence[tuple[Trajectory, Sequence[Turn]]]
    ) -> list[int]:
        """Durably record prefixes of one issue day; returns their sequence numbers."""
        if not prefixes:
            return []
        days = {t.prediction_time.date() for t, _ in prefixes}
        if len(days) != 1:
            raise LedgerError("a prefix batch must belong to a single issue day")
        seen: set[str] = set()
        for trajectory, _ in prefixes:
            if trajectory.status is not TrajectoryStatus.PENDING:
                raise LedgerError(
                    f"only PENDING trajectories may be appended, got {trajectory.status}"
                )
            if trajectory.label is not None or trajectory.reward is not None:
                raise LedgerError("PENDING trajectory must not carry label or reward")
            if trajectory.trajectory_id in self._records or trajectory.trajectory_id in seen:
                raise DuplicateTrajectoryError(trajectory.trajectory_id)
            seen.add(trajectory.trajectory_id)
        day = days.pop()
        seqs = self._append_batch(
            day,
            [
                {
                    "kind": KIND_PREFIX,
                    "trajectory_id": trajectory.trajectory_id,
                    "payload": {
                        "trajectory": trajectory.to_dict(),
                        "transcript": [t.to_dict() for t in transcript],
                    },
                }
                for trajectory, transcript in prefixes
            ],
        )
        for trajectory, transcript in prefixes:
            self._apply_prefix(day, trajectory, list(transcript))
        return seqs

    def backfill(self, outcomes: Sequence[Outcome], reward_fn: RewardFn) -> int:
        """Write label and reward into every PENDING trajectory of each outcome's question.

        Idempotent: re-applying the same outcomes changes nothing and returns
        0. An unknown question or a conflicting outcome (different label)
        rejects the whole batch before anything is written.
        """
        labels: dict[str, int] = {}
        for outcome in outcomes:
            qid = outcome.question_id
            if qid not in labels:
                resolved = [
                    t.label for t in self.trajectories_for(qid)
                    if t.status is TrajectoryStatus.RESOLVED
                ]
                labels[qid] = resolved[0] if resolved else outcome.label
            if labels[qid] != outcome.label:
                raise ConflictingOutcomeError(f"question {qid} resolved with label {labels[qid]}")
        return self._append_terminals(
            outcomes,
            KIND_BACKFILL,
            lambda trajectory, outcome: {
                "label": outcome.label,
                "reward": reward_fn(trajectory.final_probability, outcome.label),
                "resolved_at": format_rfc3339(outcome.resolved_at),
            },
        )

    def discard(self, unresolved: Sequence[Unresolved], decided_at: datetime) -> int:
        """Discard every PENDING trajectory of each unresolved question; RESOLVED are untouched.

        An unknown question rejects the whole batch before anything is written.
        """
        return self._append_terminals(
            unresolved,
            KIND_DISCARD,
            lambda trajectory, item: {
                "reason": item.reason,
                "decided_at": format_rfc3339(decided_at),
            },
        )

    def _append_terminals(
        self,
        items: Sequence[_Item],
        kind: str,
        payload_for: Callable[[Trajectory, _Item], dict[str, Any]],
    ) -> int:
        """Give every PENDING trajectory of the items' questions a terminal record.

        Records keep item order, then ledger order within a question, and go
        out in one append per log day. Returns the number written.
        """
        by_day: dict[date, list[dict[str, Any]]] = {}
        seen: set[str] = set()
        for item in items:
            if item.question_id not in self._by_question:
                raise LedgerError(f"unknown question {item.question_id}")
            if item.question_id in seen:
                continue
            seen.add(item.question_id)
            for tid in self._by_question[item.question_id]:
                stored = self._records[tid]
                if stored.trajectory.status is TrajectoryStatus.PENDING:
                    by_day.setdefault(stored.day, []).append(
                        {
                            "kind": kind,
                            "trajectory_id": tid,
                            "payload": payload_for(stored.trajectory, item),
                        }
                    )
        for day, records in by_day.items():
            self._append_batch(day, records)
            for record in records:
                self._apply_terminal(record)
        return sum(len(records) for records in by_day.values())

    # -- state transitions (shared by live mutation and replay) -------------

    def _apply_prefix(self, day: date, trajectory: Trajectory, transcript: list[Turn]) -> None:
        self._records[trajectory.trajectory_id] = _StoredTrajectory(
            trajectory=trajectory, transcript=transcript, day=day
        )
        self._by_question.setdefault(trajectory.question_id, []).append(trajectory.trajectory_id)
        self._day_questions.setdefault(day, set()).add(trajectory.question_id)

    def _apply_terminal(self, record: Mapping[str, Any]) -> None:
        stored = self._records[record["trajectory_id"]]
        if record["kind"] == KIND_BACKFILL:
            payload = record["payload"]
            stored.trajectory = stored.trajectory.resolved(payload["label"], payload["reward"])
        else:
            stored.trajectory = stored.trajectory.discarded()

    # -- export --------------------------------------------------------------

    def export_training_batch(self, day: date) -> list[TrainingGroup]:
        """Build training groups for the questions issued on ``day``.

        Only RESOLVED trajectories are exported; a fully discarded or still
        pending question is absent from the batch.
        """
        groups: list[TrainingGroup] = []
        for question_id in self.questions_for_day(day):
            resolved = [
                self._records[tid]
                for tid in self._by_question[question_id]
                if self._records[tid].trajectory.status is TrajectoryStatus.RESOLVED
            ]
            if not resolved:
                continue
            resolved.sort(key=lambda s: s.trajectory.rollout_index)
            rewards = [s.trajectory.reward for s in resolved]
            advantages = compute_group_advantages(rewards)
            entries = [
                TrainingEntry(
                    trajectory_id=s.trajectory.trajectory_id,
                    rollout_index=s.trajectory.rollout_index,
                    transcript=list(s.transcript),
                    mask_spans=mask_spans_for(s.transcript),
                    reward=reward,
                    advantage=advantage,
                )
                for s, reward, advantage in zip(resolved, rewards, advantages)
            ]
            groups.append(
                TrainingGroup(
                    question_id=question_id,
                    label=resolved[0].trajectory.label,
                    entries=entries,
                )
            )
        return groups


def write_training_batch(path: Path, groups: Iterable[TrainingGroup]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for group in groups:
            fh.write(dumps_canonical(group.to_dict()) + "\n")


def read_log_records(path: Path) -> tuple[list[dict[str, Any]], Optional[int]]:
    """Read one day log, tolerating a torn final line from a crashed writer.

    Only newline-terminated lines are records. Returns the records and, when
    the log ends in a torn line, the byte length up to the end of its last
    complete line (else None); the prefix up to there is consistent.
    """
    *lines, tail = path.read_bytes().split(b"\n")
    records: list[dict[str, Any]] = []
    complete_bytes = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError:
                if i < len(lines) - 1 or tail.strip():
                    raise ReplayError(f"malformed record at line {i + 1} of {path}")
                return records, complete_bytes
        complete_bytes += len(line) + 1
    return records, complete_bytes if tail else None


def apply_records(ledger: TrajectoryLedger, day: date, records: Sequence[Mapping[str, Any]]) -> None:
    """Fold one day's records into ledger state, enforcing order invariants."""
    last_seq = 0
    for record in records:
        seq = record.get("sequence_no")
        if not isinstance(seq, int) or seq <= last_seq:
            raise ReplayError("sequence_no must strictly increase", seq)
        last_seq = seq
        kind = record.get("kind")
        tid = record.get("trajectory_id")
        payload = record.get("payload", {})
        if kind == KIND_PREFIX:
            if tid in ledger._records:
                raise ReplayError(f"duplicate PREFIX for {tid}", seq)
            trajectory = Trajectory.from_dict(payload["trajectory"])
            transcript = [Turn.from_dict(t) for t in payload.get("transcript", [])]
            ledger._apply_prefix(day, trajectory, transcript)
        elif kind in (KIND_BACKFILL, KIND_DISCARD):
            if tid not in ledger._records:
                raise ReplayError(f"{kind} before PREFIX for {tid}", seq)
            if ledger._records[tid].trajectory.status is not TrajectoryStatus.PENDING:
                raise ReplayError(f"second terminal record for {tid}", seq)
            ledger._apply_terminal(record)
        else:
            raise ReplayError(f"unknown record kind {kind!r}", seq)
    ledger._day_seq[day] = max(ledger._day_seq.get(day, 0), last_seq)


def replay(root: Path) -> TrajectoryLedger:
    """Rebuild a ledger's in-memory state purely from its log files."""
    return TrajectoryLedger(root)
