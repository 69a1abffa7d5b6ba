from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from futureworld.domain import (
    CandidateEvent,
    Outcome,
    QuestionDescriptionPair,
    Step,
    Trajectory,
    TrajectoryStatus,
    ensure_utc,
    format_rfc3339,
    parse_rfc3339,
)
from futureworld.jsonl import dumps_canonical, from_row, to_row, write_jsonl
from futureworld.ledger import write_training_batch
from futureworld.scoring import trajectory_reward
from futureworld.sources import write_truth_file

from conftest import T0, T1, make_question, make_pair, make_step, make_trajectory


def test_timestamps_normalized_to_utc_second_precision():
    naive = datetime(2026, 3, 2, 20, 0, 0, 123456)
    ts = ensure_utc(naive)
    assert ts.tzinfo == timezone.utc
    assert ts.microsecond == 0


def test_normalized_timestamps_pass_through_and_others_convert():
    assert ensure_utc(T0) is T0
    assert parse_rfc3339("2026-03-02T20:00:00+00:00").tzinfo is timezone.utc
    for ts in (
        T0.replace(microsecond=999),
        datetime(2026, 3, 2, 22, 0, 0, 5, tzinfo=timezone(timedelta(hours=2))),
    ):
        normalized = ensure_utc(ts)
        assert normalized == T0
        assert normalized.tzinfo is timezone.utc and normalized.microsecond == 0


def test_rfc3339_round_trip_and_zulu_parsing():
    ts = parse_rfc3339("2026-03-02T20:00:00Z")
    assert ts == T0
    assert parse_rfc3339(format_rfc3339(ts)) == ts


def test_candidate_event_requires_future_resolution():
    with pytest.raises(ValueError):
        CandidateEvent(
            source_id="s",
            source_url="u",
            observed_at=T1,
            payload={},
            expected_resolution=T0,
            resolver_key="synthetic",
        )


def test_question_invariants():
    with pytest.raises(ValueError):
        make_question(text="")
    q = make_question()
    assert q.resolution_time > q.prediction_time


@pytest.mark.parametrize("resolution_time", [T0, T0 - timedelta(hours=1)])
def test_question_must_resolve_after_its_prediction_time(resolution_time):
    with pytest.raises(ValueError, match="resolution_time must be after prediction_time"):
        replace(make_question(), resolution_time=resolution_time)


def test_description_must_be_non_empty_when_present():
    with pytest.raises(ValueError):
        QuestionDescriptionPair(question=make_question(), description="")
    assert make_pair(description=None).description is None


def test_step_requires_action():
    with pytest.raises(ValueError):
        Step(action="", observation="x", issued_at=T0)


# -- status constructors -------------------------------------------------------


def test_resolved_constructor_derives_the_reward_from_the_label():
    resolved = make_trajectory(prob=0.5).resolved(1)
    assert resolved.status is TrajectoryStatus.RESOLVED
    assert (resolved.label, resolved.reward) == (1, -0.25)
    assert make_trajectory(prob=None).resolved(0).reward == -1.0
    with pytest.raises(ValueError, match="label must be binary"):
        make_trajectory().resolved(2)


def test_discarded_constructor_strips_label_and_reward():
    t = make_trajectory()
    d = t.discarded()
    assert d.status is TrajectoryStatus.DISCARDED
    assert d.label is None and d.reward is None


def test_terminal_constructors_equal_dataclasses_replace():
    rng = random.Random(5)
    for _ in range(50):
        t = replace(_random_trajectory(rng), status=TrajectoryStatus.PENDING, label=None, reward=None)
        label = rng.randrange(2)
        reward = trajectory_reward(t.final_probability, label)
        assert t.resolved(label) == replace(t, status=TrajectoryStatus.RESOLVED, label=label, reward=reward)
        assert t.discarded() == replace(t, status=TrajectoryStatus.DISCARDED, label=None, reward=None)
        with pytest.raises(ValueError, match="label must be binary"):
            t.resolved(2)


# -- serialization round trips ---------------------------------------------------


def _random_trajectory(rng: random.Random) -> Trajectory:
    status = rng.choice(list(TrajectoryStatus))
    prob = rng.choice([None, round(rng.random(), 4)])
    steps = tuple(
        Step(
            action=f"query {i}",
            observation=f"obs {rng.random():.4f}",
            issued_at=T0 + timedelta(seconds=i),
        )
        for i in range(rng.randrange(1, 4))
    )
    label = reward = None
    if status is TrajectoryStatus.RESOLVED:
        label = rng.randrange(2)
        reward = -round(rng.random(), 6)
    return Trajectory(
        trajectory_id=f"q-{rng.randrange(99)}#k{rng.randrange(4)}",
        question_id=f"q-{rng.randrange(99)}",
        rollout_index=rng.randrange(4),
        prediction_time=T0,
        steps=steps,
        raw_final_answer="FINAL: 0.5",
        final_probability=prob,
        status=status,
        label=label,
        reward=reward,
    )


def test_round_trip_every_type():
    # the ledger's records through their canonical line; test_jsonl round-trips the others
    rng = random.Random(11)
    step = make_step()
    assert from_row(Step, json.loads(dumps_canonical(to_row(step)))) == step
    for _ in range(200):
        t = _random_trajectory(rng)
        assert from_row(Trajectory, json.loads(dumps_canonical(to_row(t)))) == t


def test_outcome_label_must_be_binary():
    with pytest.raises(ValueError):
        Outcome(question_id="q", label=2, resolved_at=T1)


def test_wire_schema_freeze():
    # the ledger's records; renaming a field is a breaking change
    assert set(to_row(make_step())) == {"action", "observation", "issued_at"}
    assert set(to_row(make_trajectory())) == {
        "trajectory_id", "question_id", "rollout_index", "prediction_time",
        "steps", "raw_final_answer", "final_probability", "status", "label", "reward",
    }


def _rows_then_crash(first):
    yield first
    raise RuntimeError("writer died mid-batch")


ROW = {"id": "q-1"}


@pytest.mark.parametrize(
    "writer, first",
    [
        (write_jsonl, ROW),
        (write_truth_file, ROW),
        (write_training_batch, {"question_id": "q-1", "label": 1, "trajectories": []}),
    ],
)
def test_a_writer_that_fails_part_way_leaves_the_old_file_or_none(tmp_path, writer, first):
    path = tmp_path / "derived" / "questions-2026-03-02.jsonl"
    with pytest.raises(RuntimeError):
        writer(path, _rows_then_crash(first))
    assert not path.exists()

    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        writer(path, _rows_then_crash(first))
    assert path.read_text() == "old\n"
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left
