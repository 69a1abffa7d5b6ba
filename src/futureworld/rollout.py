"""Turn-based agent rollouts: search actions, observations, final estimate.

One rollout is a strictly sequential loop: the environment sends the
conversation so far, the agent replies with either a search action or a final
answer, and search results are injected as tool observations. The engine
enforces the minimum-search rule (a premature final answer is rejected once
with a corrective message; a second violation terminates the rollout as
invalid) and a step cap. A move that returns after ``per_move_timeout``
ends the rollout as invalid; the engine never interrupts a move. An agent
or search tool that raises is never silently dropped: the rollout is
recorded with an invalid final so the floor reward applies at backfill.

The final answer contract is a single line ``FINAL: <number>`` where the
number is a probability in [0, 1] or a percentage.
"""

from __future__ import annotations

import re
import time as _time
from dataclasses import dataclass
from typing import Collection, Optional, Protocol, Sequence

from .domain import Question, Step, Trajectory, TrajectoryStatus

ROLE_ENVIRONMENT = "environment"
ROLE_AGENT = "agent"
ROLE_TOOL = "tool"

CORRECTIVE_MESSAGE = (
    "Your final answer was not accepted yet: you must issue at least one "
    "search action before answering. Send a search query first."
)

_FINAL_LINE = re.compile(r"^\s*FINAL:\s*([-+]?(?:\d+\.?\d*|\.\d+))\s*(%)?\s*$")


@dataclass(frozen=True, slots=True)
class Turn:
    role: str
    text: str


@dataclass(frozen=True)
class AgentMove:
    """One agent reply: either a search query or a final answer."""

    kind: str  # "search" | "final"
    query: str = ""
    answer: str = ""

    def __post_init__(self) -> None:
        if self.kind == "search":
            if not self.query or self.answer:
                raise ValueError("search move must populate query only")
        elif self.kind == "final":
            if not self.answer or self.query:
                raise ValueError("final move must populate answer only")
        else:
            raise ValueError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class RolloutLimits:
    max_steps: int = 8
    per_move_timeout: float = 60.0
    min_searches: int = 1

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.per_move_timeout <= 0:
            raise ValueError("per_move_timeout must be positive")
        if self.min_searches < 0:
            raise ValueError("min_searches must be non-negative")
        if self.min_searches > self.max_steps:
            raise ValueError("min_searches cannot exceed max_steps")


class Agent(Protocol):
    """A policy: given the conversation so far, reply with one move."""

    def act(self, trajectory_id: str, turns: Sequence[Turn]) -> AgentMove:
        ...


class SearchTool(Protocol):
    def search(self, query: str) -> list[str]:
        ...


def parse_final_probability(answer: str) -> Optional[float]:
    """Extract the probability from a final answer; None when invalid.

    The envelope is one line ``FINAL: <number>``; percentages are divided by
    100. A missing envelope, multiple envelopes, or a value outside [0, 1]
    is invalid. Pure and idempotent.
    """
    matches = [m for m in map(_FINAL_LINE.match, answer.splitlines()) if m]
    if len(matches) != 1:
        return None
    value = float(matches[0].group(1))
    if matches[0].group(2):
        value /= 100.0
    if not 0.0 <= value <= 1.0:
        return None
    return value


@dataclass
class RolloutResult:
    trajectory: Trajectory
    transcript: list[Turn]
    failure: Optional[str] = None  # why the rollout terminated invalid, if it did


def run_rollout(
    prompt: str,
    question: Question,
    agent: Agent,
    search_tool: SearchTool,
    limits: RolloutLimits,
    rollout_index: int,
) -> RolloutResult:
    """Run one rollout and return its PENDING prediction-time prefix.

    Every step is stamped with the question's prediction time.
    """
    trajectory_id = f"{question.id}#k{rollout_index}"
    turns: list[Turn] = [Turn(ROLE_ENVIRONMENT, prompt)]
    steps: list[Step] = []
    corrective_sent = False
    raw_final = ""
    final_prob: Optional[float] = None
    failure: Optional[str] = None

    # Hard bound on protocol exchanges so a non-terminating agent cannot spin.
    for _ in range(2 * limits.max_steps + 4):
        started = _time.monotonic()
        try:
            move = agent.act(trajectory_id, tuple(turns))
        except Exception as exc:
            failure = f"agent transport failure: {exc}"
            break
        if _time.monotonic() - started > limits.per_move_timeout:
            failure = "per-move timeout exceeded"
            break

        if move.kind == "search":
            if len(steps) >= limits.max_steps:
                failure = "step limit exceeded"
                break
            try:
                snippets = search_tool.search(move.query)
            except Exception as exc:
                failure = f"search tool failure: {exc}"
                break
            observation = "\n".join(snippets)
            steps.append(
                Step(action=move.query, observation=observation, issued_at=question.prediction_time)
            )
            turns.append(Turn(ROLE_AGENT, move.query))
            turns.append(Turn(ROLE_TOOL, observation))
            continue

        # Final answer: enforce the minimum-search rule.
        if len(steps) < limits.min_searches:
            if not corrective_sent:
                corrective_sent = True
                turns.append(Turn(ROLE_ENVIRONMENT, CORRECTIVE_MESSAGE))
                continue
            failure = "final answer before required searches, twice"
            break
        raw_final = move.answer
        final_prob = parse_final_probability(move.answer)
        turns.append(Turn(ROLE_AGENT, move.answer))
        break
    else:
        failure = "protocol exchange limit exceeded"

    trajectory = Trajectory(
        trajectory_id=trajectory_id,
        question_id=question.id,
        rollout_index=rollout_index,
        prediction_time=question.prediction_time,
        steps=tuple(steps),
        raw_final_answer=raw_final if failure is None else "",
        final_probability=final_prob if failure is None else None,
        status=TrajectoryStatus.PENDING,
    )
    return RolloutResult(trajectory=trajectory, transcript=turns, failure=failure)


def run_group(
    question: Question,
    prompt: str,
    agent: Agent,
    search_tool: SearchTool,
    limits: RolloutLimits,
    group_size: int = 4,
    recorded: Collection[int] = (),
) -> list[RolloutResult]:
    """Run the independent rollouts of one question, indexes 0..group_size-1.

    Each rollout's trajectory id, ``<question id>#k<index>``, gives
    stochastic agents a distinct per-rollout identity.
    Indexes in ``recorded`` already ran and are skipped. A failure in one
    rollout never aborts the group; the failed rollout is still recorded
    (with an invalid final).
    """
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    return [
        run_rollout(prompt, question, agent, search_tool, limits, k)
        for k in range(group_size)
        if k not in recorded
    ]

