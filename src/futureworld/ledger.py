"""Two-phase trajectory store with append-only logs and replay.

A trajectory is written in two stages: a PREFIX record at prediction time
(the PENDING trajectory plus the exact conversation shown to the agent), and
later exactly one terminal record, either BACKFILL (label + reward) or
DISCARD. Storage is one append-only JSONL log per batch, named by the day
its caller issued it on, and nothing else; replaying the logs reconstructs
the live state exactly, and any prefix of a log is a consistent state. Every
write call appends its records to one log and fsyncs once before it returns.
The appender writes only whole lines, so a crashed writer leaves at most a
torn final line, one without its newline: replay skips it and the next
append to that log cuts it off. An append that raises drops the day's
replayed state, so the next use replays the log from disk. Replay refuses,
never truncating it, every complete line the appender could not have
written: with ``ReplayError`` and its line number a line that does not
decode, blank or not, and with its ``sequence_no`` a record such as a
BACKFILL whose label is not 0 or 1 or whose reward is not the one
``Trajectory.resolved`` derives from that label.

Logs are replayed lazily, one day at a time: every lookup by question or
trajectory names its log day, and a day's log is read the first time that
day is read or written. ``release`` drops a day's replayed state again, so a
caller that is done with a day holds only the days it is still working on.
Only the whole-history readers (``all_trajectories`` and ``replay``) read
every log.

This module alone knows the log line: ``{"kind", "payload", "sequence_no",
"trajectory_id"}`` in the canonical JSON of ``jsonl``. A PREFIX payload is
``{"trajectory": jsonl.to_row(trajectory), "transcript": [{"role", "text"},
...]}``; a BACKFILL payload holds ``label``, ``reward`` and ``resolved_at``,
a DISCARD payload ``reason`` and ``decided_at``. The appender takes each
payload as canonical text and writes the line around it. The PREFIX writer
mirrors replay: it writes the text straight from the ``Trajectory``,
``Step`` and ``Turn`` fields, byte for byte the canonical encoding of the
payload above, escaping each distinct text of a question once. A BACKFILL
payload, its reward the one ``Trajectory.resolved`` derives, is encoded once
per trajectory and a DISCARD payload once per question. Replay
decodes a PREFIX itself, equal to ``jsonl.from_row(Trajectory, ...)``, and
shares equal values: the K rollouts of a question, appended in a row, take
their question id, texts, steps and transcript turns from one table that
starts empty at each new question id, so equal values are one object, and
every role is a ``ROLE_*`` constant. A batch is stamped with one instant,
and each distinct prediction-instant string of a day is parsed once.

Exports are training groups: for each question with resolved rollouts, the
masked transcripts, rewards, and group-relative advantages of its RESOLVED
trajectories. Tool and environment turns are masked; agent turns are not. The
export yields each group as the row its line holds, and ``jsonl`` writes it.
The same set in the same order, ``resolved_trajectories``, feeds the cycle
metrics and the final scores.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from datetime import date, datetime
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .domain import (
    Outcome,
    Step,
    Trajectory,
    TrajectoryStatus,
    format_rfc3339,
    parse_rfc3339,
)
from .jsonl import dumps_canonical, write_jsonl
from .resolve import Unresolved
from .rollout import ROLE_AGENT, ROLE_ENVIRONMENT, ROLE_TOOL, Turn

KIND_PREFIX = "PREFIX"
KIND_BACKFILL = "BACKFILL"
KIND_DISCARD = "DISCARD"

_ROLES = {role: role for role in (ROLE_ENVIRONMENT, ROLE_AGENT, ROLE_TOOL)}


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


def compute_group_advantages(rewards: Sequence[float]) -> list[float]:
    """Group-relative advantages: standardize rewards within one question.

    All-equal rewards (including the single-rollout case) yield exact zeros.
    The 1e-6 floor on the denominator only matters for degenerate spreads; any
    real spread is standardized exactly, so the advantages of an exported
    group have mean 0 and population standard deviation 1.
    """
    if not rewards:
        raise ValueError("cannot normalize an empty reward list")
    if max(rewards) == min(rewards):
        return [0.0] * len(rewards)
    mean = math.fsum(rewards) / len(rewards)
    variance = math.fsum((r - mean) ** 2 for r in rewards) / len(rewards)
    denom = max(math.sqrt(variance), 1e-6)
    return [(r - mean) / denom for r in rewards]


def _check_prefix(
    t: Trajectory, transcript: Optional[Sequence[Turn]], sequence_no: Optional[int] = None
) -> None:
    """Refuse a trajectory no PREFIX may hold.

    A PREFIX holds a PENDING trajectory without label or reward, whose ids
    are strings, ``rollout_index`` an int, ``final_probability`` a number
    or None, and whose step, answer and transcript texts are strings. The
    appender checks a whole batch before it writes any of it. Replay passes
    no transcript: ``_DayLog._decode_prefix`` checks each text as it first
    creates the value.
    """
    index, prob = t.rollout_index, t.final_probability
    not_text = None if transcript is None else next(
        ((name, text) for name, text in _named_texts(t, transcript) if not isinstance(text, str)),
        None,
    )
    if t.status is not TrajectoryStatus.PENDING or t.label is not None or t.reward is not None:
        message = (
            f"a PREFIX must be PENDING without label or reward; {t.trajectory_id} is "
            f"{t.status.value} with label {t.label!r} and reward {t.reward!r}"
        )
    elif not (isinstance(t.trajectory_id, str) and isinstance(t.question_id, str)):
        message = f"{t.trajectory_id} has question_id {t.question_id!r}; ids must be strings"
    elif type(index) is not int:
        message = f"{t.trajectory_id} has rollout_index {index!r}, not an int"
    elif isinstance(prob, bool) or not isinstance(prob, (int, float, type(None))):
        message = f"{t.trajectory_id} has final_probability {prob!r}, not a number or null"
    elif not_text:
        message = f"{t.trajectory_id} has {not_text[0]} {not_text[1]!r}, not a string"
    else:
        return
    raise LedgerError(message) if sequence_no is None else ReplayError(message, sequence_no)


def _named_texts(t: Trajectory, transcript: Sequence[Turn]) -> Iterator[tuple[str, Any]]:
    """Each text a PREFIX holds, by name: the answer's, each step's and each turn's."""
    yield "raw_final_answer", t.raw_final_answer
    for s in t.steps:
        yield "step action", s.action
        yield "step observation", s.observation
    for turn in transcript:
        yield "transcript role", turn.role
        yield "transcript text", turn.text


def _text(value: Any, name: str) -> str:
    """``value`` if it is a string, else a ``TypeError`` naming the PREFIX text ``name``."""
    if not isinstance(value, str):
        raise TypeError(f"{name} {value!r} is not a string")
    return value


class _Memo(dict):
    """``make(key)`` for each key, made on the key's first lookup and kept."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


@dataclass(slots=True)
class _StoredTrajectory:
    trajectory: Trajectory
    transcript: list[Turn]


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
    instants: dict[str, datetime] = field(default_factory=lambda: _Memo(parse_rfc3339))
    #: replay memo: the question replayed last, and its values keyed by their
    #: wire form (a text by itself, a step by its action, observation and
    #: issued_at strings, a turn by its role and text)
    question_id: Optional[str] = None
    siblings: dict[Any, Any] = field(default_factory=dict)

    # -- state transitions (shared by live mutation and replay) -------------

    def add_prefix(self, trajectory: Trajectory, transcript: list[Turn]) -> None:
        self.records[trajectory.trajectory_id] = _StoredTrajectory(trajectory, transcript)
        self.by_question.setdefault(trajectory.question_id, []).append(trajectory.trajectory_id)

    def replay_record(self, record: Any) -> None:
        """Fold one record read from this day's log, refusing one the appender could not write."""
        if not isinstance(record, dict):
            raise ReplayError(f"a record must be a JSON object, not {type(record).__name__}")
        seq = record.get("sequence_no")
        if type(seq) is not int or seq <= self.seq:
            raise ReplayError("sequence_no must strictly increase", seq)
        kind = record.get("kind")
        tid = record.get("trajectory_id")
        if not isinstance(tid, str):
            raise ReplayError(f"trajectory_id {tid!r} is not a string", seq)
        payload = record.get("payload", {})
        if kind == KIND_PREFIX:
            if tid in self.records:
                raise ReplayError(f"duplicate PREFIX for {tid}", seq)
            try:
                trajectory, transcript = self._decode_prefix(payload)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ReplayError(f"PREFIX for {tid} does not decode: {exc!r}", seq) from None
            if trajectory.trajectory_id != tid:
                raise ReplayError(f"PREFIX for {tid} holds trajectory {trajectory.trajectory_id}", seq)
            _check_prefix(trajectory, None, seq)
            self.add_prefix(trajectory, transcript)
        elif kind in (KIND_BACKFILL, KIND_DISCARD):
            stored = self.records.get(tid)
            if stored is None:
                raise ReplayError(f"{kind} before PREFIX for {tid}", seq)
            if stored.trajectory.status is not TrajectoryStatus.PENDING:
                raise ReplayError(f"second terminal record for {tid}", seq)
            if kind == KIND_BACKFILL:
                try:
                    terminal, reward = stored.trajectory.resolved(payload["label"]), payload["reward"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise ReplayError(f"BACKFILL for {tid} needs a label and reward: {exc!r}", seq) from None
                if reward != terminal.reward:
                    raise ReplayError(f"BACKFILL for {tid} holds reward {reward!r}, not {terminal.reward!r}", seq)
                stored.trajectory = terminal
            else:
                stored.trajectory = stored.trajectory.discarded()
        else:
            raise ReplayError(f"unknown record kind {kind!r}", seq)
        self.seq = seq

    def _decode_prefix(self, payload: dict[str, Any]) -> tuple[Trajectory, list[Turn]]:
        """Decode a PREFIX payload, sharing each value that equals one already held.

        A question's K rollouts are appended together, so ``siblings`` holds
        the values of one question at a time and starts empty when the
        question id changes. Equal texts, steps and turns of the siblings,
        and the equal texts of a step and its turn, are one object; each role
        is the module's ``ROLE_*`` constant. Prediction instants come from
        ``instants``, and a step stamped with its trajectory's instant
        shares that ``datetime``. A text that is no string raises
        ``TypeError`` when the table first makes its value.
        """
        data = payload["trajectory"]
        if data["question_id"] != self.question_id:
            self.question_id = data["question_id"]
            self.siblings = {}
        values = self.siblings
        share = values.setdefault
        when = data["prediction_time"]
        prediction_time = self.instants[when]
        steps = []
        for s in data["steps"]:
            action, observation, issued_at = key = (s["action"], s["observation"], s["issued_at"])
            step = values.get(key)
            if step is None:
                step = values[key] = Step(
                    share(_text(action, "step action"), action),
                    share(_text(observation, "step observation"), observation),
                    prediction_time if issued_at == when else parse_rfc3339(issued_at),
                )
            steps.append(step)
        answer = data["raw_final_answer"]
        trajectory = Trajectory(
            data["trajectory_id"],
            self.question_id,
            data["rollout_index"],
            prediction_time,
            tuple(steps),
            values.get(answer) or share(_text(answer, "raw_final_answer"), answer),
            data["final_probability"],
            TrajectoryStatus(data["status"]),
            data["label"],
            data["reward"],
        )
        transcript = []
        for t in payload.get("transcript", ()):
            role, text = key = (t["role"], t["text"])
            turn = values.get(key)
            if turn is None:
                turn = values[key] = Turn(
                    _ROLES.get(role) or _text(role, "transcript role"),
                    share(_text(text, "transcript text"), text),
                )
            transcript.append(turn)
        return trajectory, transcript


def _encode_prefixes(
    prefixes: Iterable[tuple[Trajectory, Sequence[Turn]]],
) -> Iterator[tuple[str, str, str]]:
    """The PREFIX record of each prefix, its payload written as canonical text.

    The mirror image of ``_DayLog._decode_prefix``: the payload is written
    straight from the fields, and equals the canonical encoding of
    ``{"trajectory": jsonl.to_row(trajectory), "transcript": [{"role",
    "text"}, ...]}``. A question's K rollouts come in a row and share their
    prompt and often every other text, so each distinct text is escaped once
    by the canonical encoder's own ``encode_basestring``, in a table that
    starts empty at each new question id; each distinct instant is formatted
    once. Only PENDING trajectories are appended, so ``status`` is
    ``"PENDING"`` and ``label`` and ``reward`` are null.
    """
    text = _Memo(encode_basestring)
    instant = _Memo(lambda when: encode_basestring(format_rfc3339(when)))
    question_id = None
    for trajectory, transcript in prefixes:
        if trajectory.question_id != question_id:
            question_id = trajectory.question_id
            text.clear()
        steps = ",".join([
            f'{{"action":{text[s.action]},"issued_at":{instant[s.issued_at]},'
            f'"observation":{text[s.observation]}}}'
            for s in trajectory.steps
        ])
        turns = ",".join([f'{{"role":{text[t.role]},"text":{text[t.text]}}}' for t in transcript])
        yield KIND_PREFIX, trajectory.trajectory_id, (
            f'{{"trajectory":{{"final_probability":{_number(trajectory.final_probability)},'
            f'"label":null,"prediction_time":{instant[trajectory.prediction_time]},'
            f'"question_id":{text[question_id]},'
            f'"raw_final_answer":{text[trajectory.raw_final_answer]},'
            f'"reward":null,"rollout_index":{_number(trajectory.rollout_index)},'
            f'"status":"PENDING","steps":[{steps}],'
            f'"trajectory_id":{encode_basestring(trajectory.trajectory_id)}}},'
            f'"transcript":[{turns}]}}'
        )


def _number(value: Any) -> str:
    """A number or None as the canonical encoder writes it: int and float by repr."""
    if value is None:
        return "null"
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    return dumps_canonical(value)  # a bool, a NaN or a subclass


class TrajectoryLedger:
    """Append-only trajectory store rooted at a directory.

    Constructing a ledger reads nothing, and only an append creates its
    directory. Each day's log is replayed the first time that day is used
    and cached from then on. ``release(day)`` drops that cache entry: the
    log on disk is untouched, and the next access to the day replays it
    again, sequence numbers and torn-tail repair included. Trajectory ids
    are unique within a day log.

    Concurrency contract: a single appender serializes writes and is the
    only one that repairs a torn log tail; readers see immutable snapshots
    (all returned records are frozen values).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
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

    def _append_batch(self, day: date, records: Iterable[tuple[str, str, str]]) -> list[int]:
        """Write a batch of records durably: one flush+fsync per call.

        Each record is (kind, trajectory id, payload), the payload already
        canonical JSON text. Records are numbered and written as they are
        drawn from ``records``, each line the canonical encoding of
        ``{"kind", "payload", "sequence_no", "trajectory_id"}``, so a batch
        is never held a second time. Returns their sequence numbers. A write
        that raises drops the day's state: the log may hold part of the
        batch, so the next use replays it from disk and cuts a torn tail.
        """
        log = self._day(day)
        first = seq = log.seq
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            with self._log_path(day).open("a", encoding="utf-8") as fh:
                if log.torn_bytes is not None:
                    fh.truncate(log.torn_bytes)
                    log.torn_bytes = None
                for kind, trajectory_id, payload in records:
                    seq += 1
                    fh.write(
                        f'{{"kind":{encode_basestring(kind)},"payload":{payload},'
                        f'"sequence_no":{seq},"trajectory_id":{encode_basestring(trajectory_id)}}}\n'
                    )
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            self.release(day)
            raise
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

    def resolved_trajectories(self, day: date) -> list[Trajectory]:
        """The RESOLVED trajectories of the batch issued on ``day``, in export order."""
        return [s.trajectory for _, group in self._resolved_groups(day) for s in group]

    def _resolved_groups(self, day: date) -> Iterator[tuple[str, list[_StoredTrajectory]]]:
        """Each question of the day with RESOLVED trajectories, in id order, and those in rollout order."""
        log = self._day(day)
        for question_id in sorted(log.by_question):
            group = [log.records[tid] for tid in log.by_question[question_id]]
            resolved = [s for s in group if s.trajectory.status is TrajectoryStatus.RESOLVED]
            if resolved:
                resolved.sort(key=lambda s: s.trajectory.rollout_index)
                yield question_id, resolved

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
        for trajectory, transcript in prefixes:
            _check_prefix(trajectory, transcript)
            if trajectory.trajectory_id in log.records or trajectory.trajectory_id in seen:
                raise DuplicateTrajectoryError(trajectory.trajectory_id)
            seen.add(trajectory.trajectory_id)
        seqs = self._append_batch(day, _encode_prefixes(prefixes))
        for trajectory, transcript in prefixes:
            log.add_prefix(trajectory, list(transcript))
        return seqs

    def backfill(self, day: date, outcomes: Sequence[Outcome]) -> int:
        """Write label and reward into every PENDING trajectory of each outcome's question.

        ``day`` is the day the questions' prefixes were issued on; each reward
        is the one ``Trajectory.resolved(label)`` derives. Idempotent: re-applying
        the same outcomes changes nothing and returns 0. An unknown question or a
        conflicting outcome (different label) rejects the batch before any write.
        """
        labels = {qid: group[0].trajectory.label for qid, group in self._resolved_groups(day)}
        for outcome in outcomes:
            label = labels.setdefault(outcome.question_id, outcome.label)
            if label != outcome.label:
                raise ConflictingOutcomeError(f"question {outcome.question_id} resolved with label {label}")
        records = []
        for outcome, pending in self._pending(day, outcomes):
            label, resolved_at = outcome.label, format_rfc3339(outcome.resolved_at)
            for stored in pending:
                terminal = stored.trajectory.resolved(label)
                payload = {"label": label, "reward": terminal.reward, "resolved_at": resolved_at}
                records.append((stored, terminal, dumps_canonical(payload)))
        return self._append_terminals(day, KIND_BACKFILL, records)

    def discard(self, day: date, unresolved: Sequence[Unresolved], decided_at: datetime) -> int:
        """Discard every PENDING trajectory of each unresolved question; RESOLVED are untouched.

        ``day`` is the day the questions' prefixes were issued on. An
        unknown question rejects the whole batch before anything is written.
        """
        decided = format_rfc3339(decided_at)
        records = []
        for item, pending in self._pending(day, unresolved):
            text = dumps_canonical({"reason": item.reason, "decided_at": decided})
            records.extend((stored, stored.trajectory.discarded(), text) for stored in pending)
        return self._append_terminals(day, KIND_DISCARD, records)

    def _pending(self, day: date, items: Sequence[Any]) -> Iterator[tuple[Any, list]]:
        """Each distinct question's first item and its PENDING trajectories, in log order."""
        log = self._day(day)
        firsts: dict[str, Any] = {}
        for item in items:
            if item.question_id not in log.by_question:
                raise LedgerError(f"unknown question {item.question_id} on {day.isoformat()}")
            firsts.setdefault(item.question_id, item)
        for qid, item in firsts.items():
            stored = [log.records[tid] for tid in log.by_question[qid]]
            yield item, [s for s in stored if s.trajectory.status is TrajectoryStatus.PENDING]

    def _append_terminals(self, day: date, kind: str, records: Sequence[tuple]) -> int:
        """Append (stored, terminal, text) records in one write, then store each terminal."""
        if records:
            self._append_batch(day, ((kind, s.trajectory.trajectory_id, t) for s, _, t in records))
            for stored, terminal, _ in records:
                stored.trajectory = terminal
        return len(records)

    # -- export --------------------------------------------------------------

    def export_training_batch(self, day: date) -> Iterator[dict[str, Any]]:
        """Yield the training group of each question of the batch issued on ``day``.

        Each group is the row its export line holds: ``{"question_id",
        "label", "trajectories": [{"trajectory_id", "rollout_index",
        "transcript": [{"role", "text"}, ...], "mask_spans": [{"turn_index",
        "masked"}, ...], "reward", "advantage"}, ...]}``. Only RESOLVED
        trajectories are exported, in rollout order; a fully discarded or
        still pending question is absent from the batch. Groups come one at a
        time, in question-id order.
        """
        for question_id, resolved in self._resolved_groups(day):
            rewards = [s.trajectory.reward for s in resolved]
            advantages = compute_group_advantages(rewards)
            yield {
                "question_id": question_id,
                "label": resolved[0].trajectory.label,
                "trajectories": [
                    {
                        "trajectory_id": s.trajectory.trajectory_id,
                        "rollout_index": s.trajectory.rollout_index,
                        "transcript": [{"role": t.role, "text": t.text} for t in s.transcript],
                        "mask_spans": [
                            {"turn_index": i, "masked": t.role != ROLE_AGENT}
                            for i, t in enumerate(s.transcript)
                        ],
                        "reward": reward,
                        "advantage": advantage,
                    }
                    for s, reward, advantage in zip(resolved, rewards, advantages)
                ],
            }


def write_training_batch(path: Path, groups: Iterable[Mapping[str, Any]]) -> int:
    """Write the rows of ``export_training_batch`` to ``path``; returns how many."""
    return write_jsonl(path, groups)


def read_log_records(path: Path, fold: Callable[[dict[str, Any]], None]) -> Optional[int]:
    """Fold each record of one day log as it is read; tolerate a torn final line.

    Only newline-terminated lines are records, and only the bytes ``\\n``
    end a line. The log is streamed: neither its bytes nor its records are
    held. Only an unterminated final line, all a crashed appender leaves, is
    torn: then this returns the byte length up to the end of the last
    complete line (else None), and the prefix up to there is consistent. A
    complete line that does not decode, blank or not, raises ``ReplayError``
    naming its line number.
    """
    complete_bytes = 0
    decode = json.JSONDecoder().decode
    with path.open("rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                return complete_bytes  # an unterminated tail is torn, even if it parses
            try:
                record = decode(line.decode())
            except ValueError:
                raise ReplayError(f"malformed record at line {number} of {path}") from None
            fold(record)
            complete_bytes += len(line)
    return None


def replay(root: Path) -> TrajectoryLedger:
    """Rebuild a ledger's whole in-memory state purely from its log files."""
    ledger = TrajectoryLedger(root)
    ledger._all_days()
    return ledger
