from __future__ import annotations

import pytest

from futureworld.agents import (
    SCRIPTED_AGENTS,
    ScriptedAgent,
    SimulatedSearchTool,
    hint_from_observation,
    make_scripted_agent,
    question_text_from_prompt,
)
from futureworld import rollout
from futureworld.domain import TrajectoryStatus
from futureworld.prompts import render_prediction_prompt
from futureworld.rollout import (
    CORRECTIVE_MESSAGE,
    ROLE_AGENT,
    ROLE_ENVIRONMENT,
    ROLE_TOOL,
    AgentMove,
    RolloutLimits,
    Turn,
    parse_final_probability,
    run_group,
    run_rollout,
)

LIMITS = RolloutLimits(max_steps=4, per_move_timeout=5.0, min_searches=1)


class PlaybackAgent:
    """Plays back a fixed move list."""

    def __init__(self, moves):
        self.moves = list(moves)
        self.calls = 0

    def act(self, trajectory_id, turns):
        move = self.moves[min(self.calls, len(self.moves) - 1)]
        self.calls += 1
        if isinstance(move, Exception):
            raise move
        return move


class EchoSearch:
    def search(self, query):
        return [f"snippet about {query}"]


def _prompt(question):
    return render_prediction_prompt(question)


# -- parse_final_probability -----------------------------------------------------


@pytest.mark.parametrize(
    "answer,expected",
    [
        ("FINAL: 0.65", 0.65),
        ("FINAL: 65%", 0.65),
        ("FINAL: 1", 1.0),
        ("FINAL: 0", 0.0),
        ("some reasoning\nFINAL: .25\n", 0.25),
        ("FINAL: 100%", 1.0),
        ("  FINAL: 0.4  ", 0.4),
    ],
)
def test_parse_valid_envelopes(answer, expected):
    assert parse_final_probability(answer) == pytest.approx(expected)


@pytest.mark.parametrize(
    "answer",
    [
        "I think 0.65",
        "FINAL: 1.5",
        "FINAL: -0.2",
        "FINAL: 150%",
        "FINAL: 0.3\nFINAL: 0.4",
        "FINAL: maybe",
        "",
    ],
)
def test_parse_invalid_envelopes(answer):
    assert parse_final_probability(answer) is None


def test_parse_is_idempotent_and_pure():
    for answer in ("FINAL: 0.65", "nope"):
        assert parse_final_probability(answer) == parse_final_probability(answer)


# -- run_rollout -------------------------------------------------------------------


def test_happy_path_single_search(question):
    agent = PlaybackAgent(
        [AgentMove(kind="search", query="dallas weather"), AgentMove(kind="final", answer="FINAL: 0.7")]
    )
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    t = result.trajectory
    assert result.failure is None
    assert t.status is TrajectoryStatus.PENDING
    assert len(t.steps) == 1
    assert t.steps[0].action == "dallas weather"
    assert t.final_probability == pytest.approx(0.7)
    assert t.label is None and t.reward is None
    assert t.trajectory_id == f"{question.id}#k0"


def test_premature_final_gets_one_corrective_then_completes(question):
    agent = PlaybackAgent(
        [
            AgentMove(kind="final", answer="FINAL: 0.9"),
            AgentMove(kind="search", query="dallas weather"),
            AgentMove(kind="final", answer="FINAL: 0.9"),
        ]
    )
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    assert result.failure is None
    assert result.trajectory.final_probability == pytest.approx(0.9)
    corrective_turns = [t for t in result.transcript if t.text == CORRECTIVE_MESSAGE]
    assert len(corrective_turns) == 1


def test_second_premature_final_terminates_invalid(question):
    agent = PlaybackAgent(
        [AgentMove(kind="final", answer="FINAL: 0.9"), AgentMove(kind="final", answer="FINAL: 0.9")]
    )
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    assert result.failure is not None
    assert result.trajectory.final_probability is None
    assert result.trajectory.raw_final_answer == ""


def test_step_overflow_terminates_invalid(question):
    agent = PlaybackAgent([AgentMove(kind="search", query="again")])
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    assert result.failure == "step limit exceeded"
    assert len(result.trajectory.steps) == LIMITS.max_steps
    assert result.trajectory.final_probability is None


def test_agent_transport_failure_recorded_not_dropped(question):
    agent = PlaybackAgent([RuntimeError("connection reset")])
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    assert "transport failure" in result.failure
    assert result.trajectory.status is TrajectoryStatus.PENDING
    assert result.trajectory.final_probability is None


class _FakeClock:
    """A monotonic clock that moves only when a test moves it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def test_a_move_returning_after_the_per_move_timeout_ends_the_rollout_invalid(question, monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(rollout, "_time", clock)

    class SlowSecondMove(PlaybackAgent):
        def act(self, trajectory_id, turns):
            if self.calls == 1:
                clock.now += LIMITS.per_move_timeout + 1.0
            return super().act(trajectory_id, turns)

    agent = SlowSecondMove(
        [AgentMove(kind="search", query="dallas weather"), AgentMove(kind="final", answer="FINAL: 0.7")]
    )
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    t = result.trajectory
    assert result.failure == "per-move timeout exceeded"
    assert t.final_probability is None and t.raw_final_answer == ""
    assert [s.action for s in t.steps] == ["dallas weather"]
    assert t.resolved(1).reward == t.resolved(0).reward == -1.0


@pytest.mark.parametrize(
    "moves, failure",
    [
        ([AgentMove(kind="search", query="again")], "step limit exceeded"),
        ([AgentMove(kind="final", answer="FINAL: 0.9")], "final answer before required searches, twice"),
        (
            [AgentMove(kind="final", answer="FINAL: 0.9"), AgentMove(kind="search", query="again")],
            "step limit exceeded",
        ),
    ],
    ids=["always-searches", "always-answers-early", "answers-early-once-then-searches"],
)
def test_a_rollout_ends_within_max_steps_plus_two_moves(question, moves, failure):
    agent = PlaybackAgent(moves)
    result = run_rollout(_prompt(question), question, agent, EchoSearch(), LIMITS, 0)
    assert result.failure == failure
    assert agent.calls <= LIMITS.max_steps + 2


class _FailingSearch:
    def search(self, query):
        raise ConnectionError("search down")


def test_search_tool_failure_recorded(question):
    agent = PlaybackAgent([AgentMove(kind="search", query="x")])
    result = run_rollout(_prompt(question), question, agent, _FailingSearch(), LIMITS, 0)
    assert "search tool failure" in result.failure


def test_observation_stored_verbatim_and_transcript_reconstructs(question):
    agent = PlaybackAgent(
        [
            AgentMove(kind="search", query="first query"),
            AgentMove(kind="search", query="second query"),
            AgentMove(kind="final", answer="FINAL: 0.42"),
        ]
    )
    prompt = _prompt(question)
    result = run_rollout(prompt, question, agent, EchoSearch(), LIMITS, 0)
    assert result.trajectory.steps[1].observation == "snippet about second query"
    assert result.transcript == [
        Turn(ROLE_ENVIRONMENT, prompt),
        Turn(ROLE_AGENT, "first query"),
        Turn(ROLE_TOOL, "snippet about first query"),
        Turn(ROLE_AGENT, "second query"),
        Turn(ROLE_TOOL, "snippet about second query"),
        Turn(ROLE_AGENT, "FINAL: 0.42"),
    ]


def test_rollout_limits_validation():
    with pytest.raises(ValueError):
        RolloutLimits(max_steps=0)
    with pytest.raises(ValueError):
        RolloutLimits(max_steps=2, min_searches=3)
    for timeout in (0, -1.0):
        with pytest.raises(ValueError, match="per_move_timeout must be positive"):
            RolloutLimits(per_move_timeout=timeout)
    with pytest.raises(ValueError, match="min_searches must be non-negative"):
        RolloutLimits(min_searches=-1)


def test_agent_move_shape_validation():
    with pytest.raises(ValueError):
        AgentMove(kind="search", query="")
    with pytest.raises(ValueError):
        AgentMove(kind="final", answer="x", query="y")
    with pytest.raises(ValueError):
        AgentMove(kind="noop")


# -- run_group ------------------------------------------------------------------------


def test_group_of_four_pending_trajectories(question):
    agent = make_scripted_agent("constant")
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.8})
    results = run_group(question, _prompt(question), agent, tool, LIMITS, group_size=4)
    assert [r.trajectory.rollout_index for r in results] == [0, 1, 2, 3]
    assert all(r.trajectory.status is TrajectoryStatus.PENDING for r in results)
    probs = {r.trajectory.final_probability for r in results}
    assert probs == {0.5}


def test_group_size_one_and_validation(question):
    agent = make_scripted_agent("constant")
    results = run_group(question, _prompt(question), agent, EchoSearch(), LIMITS, group_size=1)
    assert len(results) == 1
    with pytest.raises(ValueError):
        run_group(question, _prompt(question), agent, EchoSearch(), LIMITS, group_size=0)


def test_group_skips_recorded_indexes(question):
    agent = make_scripted_agent("noisy", seed=3)
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.5})
    full = run_group(question, _prompt(question), agent, tool, LIMITS, group_size=4)
    rest = run_group(question, _prompt(question), agent, tool, LIMITS, group_size=4, recorded={0, 2})
    assert [r.trajectory.rollout_index for r in rest] == [1, 3]
    assert [r.trajectory for r in rest] == [full[1].trajectory, full[3].trajectory]
    assert [r.transcript for r in rest] == [full[1].transcript, full[3].transcript]


def test_noisy_rollouts_vary_per_index(question):
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.5})
    agent = make_scripted_agent("noisy", seed=1)
    results = run_group(question, _prompt(question), agent, tool, LIMITS, group_size=4)
    probs = {r.trajectory.final_probability for r in results}
    assert len(probs) > 1  # distinct rollout identities drive distinct noise


# -- scripted agents against the simulated tool ------------------------------------------


def test_question_text_extraction_and_hint_parsing(question):
    prompt = _prompt(question)
    assert question_text_from_prompt(prompt) == question.text
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.8125})
    snippets = tool.search(question.text)
    joined = "\n".join(snippets)
    assert hint_from_observation(joined) == pytest.approx(0.8125)


def test_oracle_reports_the_hint(question):
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.8125})
    result = run_rollout(_prompt(question), question, make_scripted_agent("oracle"), tool, LIMITS, 0)
    assert result.trajectory.final_probability == pytest.approx(0.8125, abs=1e-4)


def test_oracle_falls_back_without_a_hint(question):
    tool = SimulatedSearchTool(latent_by_text={})
    result = run_rollout(_prompt(question), question, make_scripted_agent("oracle"), tool, LIMITS, 0)
    assert result.trajectory.final_probability == pytest.approx(0.5)


def test_malformed_agent_always_invalid(question):
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.9})
    results = run_group(
        question, _prompt(question), make_scripted_agent("malformed"), tool, LIMITS, group_size=3
    )
    assert all(r.trajectory.final_probability is None for r in results)
    assert all(len(r.trajectory.steps) >= 1 for r in results)


def test_simulated_search_is_deterministic(question):
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.31}, information_level=0.5, seed=3)
    assert tool.search(question.text) == tool.search(question.text)


def test_information_level_blurs_hint(question):
    exact = SimulatedSearchTool(latent_by_text={question.text: 0.31}, information_level=1.0)
    blurred = SimulatedSearchTool(latent_by_text={question.text: 0.31}, information_level=0.2, seed=3)
    exact_hint = hint_from_observation("\n".join(exact.search(question.text)))
    blurred_hint = hint_from_observation("\n".join(blurred.search(question.text)))
    assert exact_hint == pytest.approx(0.31)
    assert blurred_hint != pytest.approx(0.31)
    assert 0.0 < blurred_hint < 1.0


def test_min_search_rule_holds_for_parsed_finals(question):
    # every completed rollout with a parsed probability has >= min_searches steps
    tool = SimulatedSearchTool(latent_by_text={question.text: 0.6})
    for agent in (make_scripted_agent(name, seed=2) for name in SCRIPTED_AGENTS):
        for r in run_group(question, _prompt(question), agent, tool, LIMITS, group_size=2):
            if r.trajectory.final_probability is not None:
                assert len(r.trajectory.steps) >= LIMITS.min_searches


@pytest.mark.parametrize(
    "name,observation,trajectory_id,answer",
    [
        ("oracle", "likelihood index 0.8125", "q-1#k0", "FINAL: 0.8125"),
        ("oracle", "no further updates", "q-1#k0", "FINAL: 0.5000"),
        ("constant", "likelihood index 0.8125", "q-1#k0", "FINAL: 0.5"),
        ("constant", "no further updates", "q-1#k3", "FINAL: 0.5"),
        ("noisy", "likelihood index 0.8125", "q-1#k0", "FINAL: 0.6689"),
        ("noisy", "likelihood index 0.8125", "q-1#k3", "FINAL: 0.8381"),
        ("noisy", "no further updates", "q-1#k0", "FINAL: 0.3564"),
        ("noisy", "likelihood index 0.9990", "q-1#k2", "FINAL: 1.0000"),
        ("malformed", "likelihood index 0.8125", "q-1#k0", "The outlook is genuinely uncertain either way."),
    ],
)
def test_scripted_agents_search_once_then_answer_their_pinned_text(name, observation, trajectory_id, answer):
    agent = make_scripted_agent(name, seed=7)
    assert isinstance(agent, ScriptedAgent)
    prompt = Turn(ROLE_ENVIRONMENT, "Question: Will it rain?")
    assert agent.act(trajectory_id, (prompt,)) == AgentMove(kind="search", query="Will it rain?")
    move = agent.act(trajectory_id, (prompt, Turn(ROLE_AGENT, "Will it rain?"), Turn(ROLE_TOOL, observation)))
    assert move == AgentMove(kind="final", answer=answer)


def test_an_unknown_scripted_agent_is_refused():
    assert SCRIPTED_AGENTS == ("oracle", "constant", "noisy", "malformed")
    with pytest.raises(ValueError, match="unknown scripted agent 'gpt'"):
        make_scripted_agent("gpt")
