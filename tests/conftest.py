from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from futureworld.domain import (
    CandidateEvent,
    Question,
    QuestionDescriptionPair,
    Step,
    Trajectory,
    TrajectoryStatus,
)

T0 = datetime(2026, 3, 2, 20, 0, tzinfo=timezone.utc)
T1 = T0 + timedelta(days=1, minutes=30)


def make_event(identifier: str = "evt-001", template: str = "temperature", **payload) -> CandidateEvent:
    base = {
        "template": template,
        "identifier": identifier,
        "city": "Dallas",
        "band": "84-85°F",
        "date": "April 18",
    }
    base.update(payload)
    return CandidateEvent(
        source_id="synthetic",
        source_url=f"synthetic://test/{identifier}",
        observed_at=T0 - timedelta(hours=8),
        payload=base,
        expected_resolution=T1,
        resolver_key="synthetic",
    )


def make_question(
    qid: str = "q-1",
    text: str = "Will the highest temperature in Dallas be between 84-85°F on April 18?",
    identifier: str = "evt-001",
    resolver_key: str = "synthetic",
    domain: str = "weather",
) -> Question:
    return Question(
        id=qid,
        text=text,
        prediction_time=T0,
        resolution_time=T1,
        source="synthetic",
        source_url=f"synthetic://test/{identifier}",
        resolver_key=resolver_key,
        resolver_metadata={"identifier": identifier},
        domain=domain,
    )


def make_pair(qid: str = "q-1", description: str | None = "Recent highs have been stable.", **kwargs) -> QuestionDescriptionPair:
    return QuestionDescriptionPair(
        question=make_question(qid=qid, **kwargs),
        description=description,
    )


def make_step(action: str = "dallas temperature forecast") -> Step:
    return Step(action=action, observation="forecast digest", issued_at=T0)


def make_trajectory(
    tid: str = "q-1#k0",
    qid: str = "q-1",
    k: int = 0,
    steps: tuple[Step, ...] | None = None,
    prob: float | None = 0.7,
    status: TrajectoryStatus = TrajectoryStatus.PENDING,
    label: int | None = None,
    reward: float | None = None,
    raw: str | None = None,
) -> Trajectory:
    if steps is None:
        steps = (make_step(),)
    if raw is None:
        raw = f"FINAL: {prob}" if prob is not None else "no idea"
    return Trajectory(
        trajectory_id=tid,
        question_id=qid,
        rollout_index=k,
        prediction_time=T0,
        steps=steps,
        raw_final_answer=raw,
        final_probability=prob,
        status=status,
        label=label,
        reward=reward,
    )


@pytest.fixture
def question() -> Question:
    return make_question()
