"""Two-phase trajectory store with append-only logs and replay.

A trajectory is written in two stages: a PREFIX record at prediction time
(the PENDING trajectory plus the exact conversation shown to the agent), and
later exactly one terminal record, either BACKFILL (label + reward) or
DISCARD. Storage is one append-only JSONL log per batch, named by the day
its caller issued it on, and nothing else; replaying the logs reconstructs
the live state exactly, and any prefix of a log is a consistent state. Every
write call appends its records to one log and fsyncs once before it returns.
A torn final line left by a crashed writer is skipped by replay and cut off
before the next append to that log.

Logs are replayed lazily, one day at a time: every lookup by question or
trajectory names its log day, and a day's log is read the first time that
day is read or written. ``release`` drops a day's replayed state again, so a
caller that is done with a day holds only the days it is still working on.
Only the whole-history readers (``all_trajectories`` and ``replay``) read
every log. A replayed day shares equal values: the K rollouts of a question
take their question id, texts, steps and transcript turns from one table
kept while the question's records are replayed, so equal values are one
object, and every role is a ``ROLE_*`` constant. A batch is stamped with one
instant, and each distinct timestamp string of a day is parsed once.

Exports are training groups: for each question with resolved rollouts, the
masked transcripts, rewards, and group-relative advantages of its RESOLVED
trajectories. Tool and environment turns are masked; agent turns are not.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .domain import (
    Outcome,
    Trajectory,
    TrajectoryStatus,
    format_rfc3339,
    parse_rfc3339,
)
from .jsonl import canonical_encoder, write_jsonl
from .resolve import Unresolved
from .rollout import ROLE_AGENT, ROLE_ENVIRONMENT, ROLE_TOOL, Turn

KIND_PREFIX = "PREFIX"
KIND_BACKFILL = "BACKFILL"
KIND_DISCARD = "DISCARD"

_ROLES = {role: role for role in (ROLE_ENVIRONMENT, ROLE_AGENT, ROLE_TOOL)}

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


@dataclass(slots=True)
class _StoredTrajectory:
    trajectory: Trajectory
    transcript: list[Turn]


@dataclass
class _SiblingTable:
    """The values of one question's replayed rollouts, each keyed by its wire form.

    A text is keyed by itself, a step by its (action, observation,
    issued_at) strings and a turn by its (role, text).
    """

    question_id: str
    values: dict[Any, Any] = field(default_factory=dict)

    def seed(self, trajectory: Trajectory, transcript: Sequence[Turn]) -> None:
        share = self.values.setdefault
        share(trajectory.raw_final_answer, trajectory.raw_final_answer)
        for step in trajectory.steps:
            share(step.action, step.action)
            share(step.observation, step.observation)
            share((step.action, step.observation, format_rfc3339(step.issued_at)), step)
        for turn in transcript:
            share(turn.text, turn.text)
            share((turn.role, turn.text), turn)


@dataclass
class _DayLog:
    """The replayed state of one day's log."""

    #: trajectory id -> stored trajectory, in log order
    records: dict[str, _StoredTrajectory] = field(default_factory=dict)
    #: question id -> its trajectory ids, in log order
    by_question: dict[str, list[str]] = field(default_factory=dict)
    #: last sequence number written
    seq: int = 0
    #: byte length up to the last complete line, when replay skipped a torn final line
    torn_bytes: Optional[int] = None
    #: replay memo: each distinct prediction-instant string, parsed once
    instants: dict[str, datetime] = field(default_factory=dict)
    #: replay memo: the sibling table of the question replayed last
    siblings: Optional[_SiblingTable] = None

    # -- state transitions (shared by live mutation and replay) -------------

    def add_prefix(self, trajectory: Trajectory, transcript: list[Turn]) -> None:
        self.records[trajectory.trajectory_id] = _StoredTrajectory(trajectory, transcript)
        self.by_question.setdefault(trajectory.question_id, []).append(trajectory.trajectory_id)

    def add_terminal(
        self, stored: _StoredTrajectory, kind: str, payload: Mapping[str, Any]
    ) -> None:
        if kind == KIND_BACKFILL:
            stored.trajectory = stored.trajectory.resolved(payload["label"], payload["reward"])
        else:
            stored.trajectory = stored.trajectory.discarded()

    def replay_record(self, record: Mapping[str, Any]) -> None:
        """Fold one record read from this day's log, enforcing order invariants."""
        seq = record.get("sequence_no")
        if not isinstance(seq, int) or seq <= self.seq:
            raise ReplayError("sequence_no must strictly increase", seq)
        kind = record.get("kind")
        tid = record.get("trajectory_id")
        payload = record.get("payload", {})
        if kind == KIND_PREFIX:
            if tid in self.records:
                raise ReplayError(f"duplicate PREFIX for {tid}", seq)
            self.add_prefix(*self._decode_prefix(payload))
        elif kind in (KIND_BACKFILL, KIND_DISCARD):
            stored = self.records.get(tid)
            if stored is None:
                raise ReplayError(f"{kind} before PREFIX for {tid}", seq)
            if stored.trajectory.status is not TrajectoryStatus.PENDING:
                raise ReplayError(f"second terminal record for {tid}", seq)
            self.add_terminal(stored, kind, payload)
        else:
            raise ReplayError(f"unknown record kind {kind!r}", seq)
        self.seq = seq

    def _decode_prefix(self, payload: dict[str, Any]) -> tuple[Trajectory, list[Turn]]:
        """Decode a PREFIX payload, sharing each value that equals one already held.

        Texts, steps and turns come from the sibling table of the record's
        question, so the equal values of its K rollouts, and the equal texts
        of a step and its turn, are one object; each role is the module's
        ``ROLE_*`` constant. Prediction instants come from ``instants``.
        """
        data = payload["trajectory"]
        table = self._sibling_table(data["question_id"])
        values = table.values
        share = values.setdefault
        data["question_id"] = table.question_id
        data["raw_final_answer"] = share(data["raw_final_answer"], data["raw_final_answer"])
        keys = [(s["action"], s["observation"], s["issued_at"]) for s in data["steps"]]
        steps = [values.get(key) for key in keys]
        if None in steps:
            for step in data["steps"]:
                step["action"] = share(step["action"], step["action"])
                step["observation"] = share(step["observation"], step["observation"])
            trajectory = Trajectory.from_dict(data, self._instant)
            for key, step in zip(keys, trajectory.steps):
                share(key, step)
        else:
            trajectory = Trajectory.from_dict(data, self._instant, tuple(steps))
        transcript = []
        for t in payload.get("transcript", ()):
            key = (t["role"], t["text"])
            turn = values.get(key)
            if turn is None:
                turn = Turn(_ROLES.get(t["role"], t["role"]), share(t["text"], t["text"]))
                share(key, turn)
            transcript.append(turn)
        return trajectory, transcript

    def _sibling_table(self, question_id: str) -> _SiblingTable:
        """The question's sibling table, kept while its rollouts are replayed in a row.

        A question's K rollouts are appended together, so one table is held
        at a time. A question met again later (a group completed after a
        crash) gets a table seeded from its first replayed sibling.
        """
        table = self.siblings
        if table is not None and table.question_id == question_id:
            return table
        table = self.siblings = _SiblingTable(question_id)
        siblings = self.by_question.get(question_id)
        if siblings:
            first = self.records[siblings[0]]
            table.question_id = first.trajectory.question_id
            table.seed(first.trajectory, first.transcript)
        return table

    def _instant(self, text: str) -> datetime:
        instant = self.instants.get(text)
        if instant is None:
            instant = self.instants[text] = parse_rfc3339(text)
        return instant


class TrajectoryLedger:
    """Append-only trajectory store rooted at a directory.

    Constructing a ledger reads nothing; each day's log is replayed the first
    time that day is used and cached from then on. ``release(day)`` drops
    that cache entry: the log on disk is untouched, and the next access to
    the day replays it again, sequence numbers and torn-tail repair included.
    Trajectory ids are unique within a day log.

    Concurrency contract: a single appender serializes writes and is the
    only one that repairs a torn log tail; readers see immutable snapshots
    (all returned records are frozen values).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._days: dict[date, _DayLog] = {}

    # -- log files ---------------------------------------------------------

    def _log_path(self, day: date) -> Path:
        return self.root / f"ledger-{day.isoformat()}.jsonl"

    def log_days(self) -> list[date]:
        days = []
        for path in sorted(self.root.glob("ledger-*.jsonl")):
            days.append(date.fromisoformat(path.stem.removeprefix("ledger-")))
        return days

    def _day(self, day: date) -> _DayLog:
        """The state of one day's log, replaying the log on first use.

        A day is cached only once its replay succeeded, so a log that fails
        to replay fails on every access instead of reading as a partial day.
        """
        log = self._days.get(day)
        if log is None:
            log = _DayLog()
            path = self._log_path(day)
            if path.exists():
                log.torn_bytes = read_log_records(path, log.replay_record)
            self._days[day] = log
        return log

    def _all_days(self) -> list[_DayLog]:
        """Every day's state, in log-day order."""
        return [self._day(day) for day in self.log_days()]

    def _append_batch(
        self, day: date, records: Iterable[tuple[str, str, Mapping[str, Any]]]
    ) -> list[int]:
        """Write a batch of records durably: one flush+fsync per call.

        Each record is (kind, trajectory id, payload). Records are numbered
        and written as they are drawn from ``records``, so a batch is never
        held a second time as numbered dicts. Returns their sequence numbers.
        """
        log = self._day(day)
        first = seq = log.seq
        encode = canonical_encoder()
        with self._log_path(day).open("a", encoding="utf-8") as fh:
            if log.torn_bytes is not None:
                fh.truncate(log.torn_bytes)
                log.torn_bytes = None
            for kind, trajectory_id, payload in records:
                seq += 1
                line = {
                    "kind": kind,
                    "payload": payload,
                    "sequence_no": seq,
                    "trajectory_id": trajectory_id,
                }
                fh.write(encode(line) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        log.seq = seq
        return list(range(first + 1, seq + 1))

    # -- queries -----------------------------------------------------------

    def get(self, day: date, trajectory_id: str) -> Trajectory:
        return self._day(day).records[trajectory_id].trajectory

    def transcript(self, day: date, trajectory_id: str) -> list[Turn]:
        return list(self._day(day).records[trajectory_id].transcript)

    def trajectories_for(self, day: date, question_id: str) -> list[Trajectory]:
        log = self._day(day)
        return [log.records[tid].trajectory for tid in log.by_question.get(question_id, [])]

    def questions_for_day(self, day: date) -> list[str]:
        return sorted(self._day(day).by_question)

    def all_trajectories(self) -> list[Trajectory]:
        """Every trajectory, in (log day, log order), whichever days were read first."""
        return [rec.trajectory for log in self._all_days() for rec in log.records.values()]

    def release(self, day: date) -> None:
        """Drop one day's replayed state from memory; a later access replays its log."""
        self._days.pop(day, None)

    # -- mutations ---------------------------------------------------------

    def append_prefix_batch(
        self, day: date, prefixes: Sequence[tuple[Trajectory, Sequence[Turn]]]
    ) -> list[int]:
        """Durably record the prefixes issued on ``day``; returns their sequence numbers."""
        if not prefixes:
            return []
        log = self._day(day)
        seen: set[str] = set()
        for trajectory, _ in prefixes:
            if trajectory.status is not TrajectoryStatus.PENDING:
                raise LedgerError(
                    f"only PENDING trajectories may be appended, got {trajectory.status}"
                )
            if trajectory.label is not None or trajectory.reward is not None:
                raise LedgerError("PENDING trajectory must not carry label or reward")
            if trajectory.trajectory_id in log.records or trajectory.trajectory_id in seen:
                raise DuplicateTrajectoryError(trajectory.trajectory_id)
            seen.add(trajectory.trajectory_id)
        seqs = self._append_batch(
            day,
            (
                (
                    KIND_PREFIX,
                    trajectory.trajectory_id,
                    {
                        "trajectory": trajectory.to_dict(),
                        "transcript": [t.to_dict() for t in transcript],
                    },
                )
                for trajectory, transcript in prefixes
            ),
        )
        for trajectory, transcript in prefixes:
            log.add_prefix(trajectory, list(transcript))
        return seqs

    def backfill(self, day: date, outcomes: Sequence[Outcome], reward_fn: RewardFn) -> int:
        """Write label and reward into every PENDING trajectory of each outcome's question.

        ``day`` is the day the questions' prefixes were issued on.
        Idempotent: re-applying the same outcomes changes nothing and returns
        0. An unknown question or a conflicting outcome (different label)
        rejects the whole batch before anything is written.
        """
        labels: dict[str, int] = {}
        for outcome in outcomes:
            qid = outcome.question_id
            if qid not in labels:
                resolved = [
                    t.label for t in self.trajectories_for(day, qid)
                    if t.status is TrajectoryStatus.RESOLVED
                ]
                labels[qid] = resolved[0] if resolved else outcome.label
            if labels[qid] != outcome.label:
                raise ConflictingOutcomeError(f"question {qid} resolved with label {labels[qid]}")

        def payloads_for(outcome: Outcome) -> Callable[[Trajectory], dict[str, Any]]:
            resolved_at = format_rfc3339(outcome.resolved_at)
            return lambda trajectory: {
                "label": outcome.label,
                "reward": reward_fn(trajectory.final_probability, outcome.label),
                "resolved_at": resolved_at,
            }

        return self._append_terminals(day, outcomes, KIND_BACKFILL, payloads_for)

    def discard(self, day: date, unresolved: Sequence[Unresolved], decided_at: datetime) -> int:
        """Discard every PENDING trajectory of each unresolved question; RESOLVED are untouched.

        ``day`` is the day the questions' prefixes were issued on. An
        unknown question rejects the whole batch before anything is written.
        """
        decided = format_rfc3339(decided_at)

        def payloads_for(item: Unresolved) -> Callable[[Trajectory], dict[str, Any]]:
            payload = {"reason": item.reason, "decided_at": decided}
            return lambda trajectory: payload

        return self._append_terminals(day, unresolved, KIND_DISCARD, payloads_for)

    def _append_terminals(
        self,
        day: date,
        items: Sequence[_Item],
        kind: str,
        payloads_for: Callable[[_Item], Callable[[Trajectory], Mapping[str, Any]]],
    ) -> int:
        """Give every PENDING trajectory of the items' questions a terminal record.

        ``payloads_for(item)`` gives the payload of each of the item's
        trajectories. Records keep item order, then log order within a
        question, and go out in one append. Returns the number written.
        """
        log = self._day(day)
        pending: list[tuple[_StoredTrajectory, Mapping[str, Any]]] = []
        seen: set[str] = set()
        for item in items:
            if item.question_id not in log.by_question:
                raise LedgerError(f"unknown question {item.question_id} on {day.isoformat()}")
            if item.question_id in seen:
                continue
            seen.add(item.question_id)
            payload_for = payloads_for(item)
            for tid in log.by_question[item.question_id]:
                stored = log.records[tid]
                if stored.trajectory.status is TrajectoryStatus.PENDING:
                    pending.append((stored, payload_for(stored.trajectory)))
        if pending:
            self._append_batch(
                day,
                ((kind, stored.trajectory.trajectory_id, payload) for stored, payload in pending),
            )
            for stored, payload in pending:
                log.add_terminal(stored, kind, payload)
        return len(pending)

    # -- export --------------------------------------------------------------

    def export_training_batch(self, day: date) -> list[TrainingGroup]:
        """Build training groups for the batch issued on ``day``.

        Only RESOLVED trajectories are exported; a fully discarded or still
        pending question is absent from the batch. Groups are in question-id
        order.
        """
        log = self._day(day)
        groups: list[TrainingGroup] = []
        #: role sequence -> its mask spans; a batch's transcripts have a few shapes
        spans: dict[tuple[str, ...], list[MaskSpan]] = {}
        for question_id in sorted(log.by_question):
            resolved = [
                log.records[tid]
                for tid in log.by_question[question_id]
                if log.records[tid].trajectory.status is TrajectoryStatus.RESOLVED
            ]
            if not resolved:
                continue
            resolved.sort(key=lambda s: s.trajectory.rollout_index)
            rewards = [s.trajectory.reward for s in resolved]
            advantages = compute_group_advantages(rewards)
            entries = []
            for s, reward, advantage in zip(resolved, rewards, advantages):
                roles = tuple(turn.role for turn in s.transcript)
                if roles not in spans:
                    spans[roles] = mask_spans_for(s.transcript)
                entries.append(
                    TrainingEntry(
                        trajectory_id=s.trajectory.trajectory_id,
                        rollout_index=s.trajectory.rollout_index,
                        transcript=list(s.transcript),
                        mask_spans=list(spans[roles]),
                        reward=reward,
                        advantage=advantage,
                    )
                )
            groups.append(
                TrainingGroup(
                    question_id=question_id,
                    label=resolved[0].trajectory.label,
                    entries=entries,
                )
            )
        return groups


def write_training_batch(path: Path, groups: Iterable[TrainingGroup]) -> None:
    write_jsonl(path, (group.to_dict() for group in groups))


def read_log_records(path: Path, fold: Callable[[dict[str, Any]], None]) -> Optional[int]:
    """Fold each record of one day log as it is read; tolerate a torn final line.

    Only newline-terminated lines are records, and only the bytes ``\\n``
    end a line. The log is streamed: neither its bytes nor its records are
    held. Returns, when the log ends in a torn line from a crashed writer,
    the byte length up to the end of its last complete line (else None); the
    prefix up to there is consistent. A malformed line raises
    ``ReplayError`` unless it is the last line and nothing but whitespace
    follows it, in which case it is the torn line.
    """
    complete_bytes = 0
    decode = json.JSONDecoder().decode
    with path.open("rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                return complete_bytes  # an unterminated tail is torn, even if it parses
            if not line.isspace():
                try:
                    record = decode(line.decode())
                except ValueError:
                    rest = fh.readline()
                    if rest.endswith(b"\n") or rest.strip():
                        raise ReplayError(f"malformed record at line {number} of {path}")
                    return complete_bytes
                fold(record)
            complete_bytes += len(line)
    return None


def replay(root: Path) -> TrajectoryLedger:
    """Rebuild a ledger's whole in-memory state purely from its log files."""
    ledger = TrajectoryLedger(root)
    ledger._all_days()
    return ledger
