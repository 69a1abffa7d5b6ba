from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import replace
from datetime import timedelta

import pytest

from futureworld import ledger as ledger_module
from futureworld.agents import SimulatedSearchTool, make_scripted_agent
from futureworld.domain import Outcome, Step, Trajectory, TrajectoryStatus
from futureworld.jsonl import dumps_canonical, from_row, to_row
from futureworld.ledger import (
    ConflictingOutcomeError,
    DuplicateTrajectoryError,
    LedgerError,
    ReplayError,
    TrajectoryLedger,
    compute_group_advantages,
    replay,
    write_training_batch,
)
from futureworld.resolve import Unresolved
from futureworld.rollout import ROLE_AGENT, ROLE_ENVIRONMENT, ROLE_TOOL, RolloutLimits, Turn, run_group
from futureworld.scoring import trajectory_reward

from conftest import T0, T1, make_question, make_step, make_trajectory


def _transcript(t):
    turns = [Turn(ROLE_ENVIRONMENT, "prompt text")]
    for step in t.steps:
        turns.append(Turn(ROLE_AGENT, step.action))
        turns.append(Turn(ROLE_TOOL, step.observation))
    if t.raw_final_answer:
        turns.append(Turn(ROLE_AGENT, t.raw_final_answer))
    return turns


def _append(ledger, t):
    return ledger.append_prefix_batch(DAY, [(t, _transcript(t))])[0]


def _group(ledger, qid="q-1", probs=(0.5, 0.9, None, 1.0)):
    for k, prob in enumerate(probs):
        _append(ledger, make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, prob=prob))


DAY = T0.date()  # the issue day of every prefix built by make_trajectory
OUTCOME = Outcome(question_id="q-1", label=1, resolved_at=T1)


# -- append_prefix_batch -------------------------------------------------------


def test_append_and_fetch(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    seq = _append(ledger, make_trajectory())
    assert seq == 1
    assert ledger.get(DAY, "q-1#k0").status is TrajectoryStatus.PENDING
    assert ledger.questions_for_day(T0.date()) == ["q-1"]


def test_duplicate_append_rejected(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _append(ledger, make_trajectory())
    with pytest.raises(DuplicateTrajectoryError):
        _append(ledger, make_trajectory())


def test_resolved_trajectory_rejected_at_append(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    resolved = make_trajectory().resolved(1)
    with pytest.raises(LedgerError):
        _append(ledger, resolved)


@pytest.mark.parametrize("fields", [{"label": 1}, {"reward": -0.25}])
def test_pending_trajectory_with_label_or_reward_rejected_at_append(tmp_path, fields):
    ledger = TrajectoryLedger(tmp_path)
    with pytest.raises(LedgerError):
        _append(ledger, make_trajectory(**fields))
    assert ledger.all_trajectories() == []
    assert list(tmp_path.glob("ledger-*.jsonl")) == []


def test_batch_append_assigns_increasing_sequence(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    batch = [
        (make_trajectory(tid=f"q-1#k{k}", k=k), _transcript(make_trajectory(tid=f"q-1#k{k}", k=k)))
        for k in range(4)
    ]
    assert ledger.append_prefix_batch(DAY, batch) == [1, 2, 3, 4]



@pytest.mark.parametrize(
    "bad",
    ["logged id", "repeated id", "not pending", "question id no string", "action no string", "answer no string"],
)
def test_a_rejected_prefix_batch_leaves_the_log_bytes_unchanged(tmp_path, bad):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    log = next(tmp_path.glob("ledger-*.jsonl"))
    before = log.read_bytes()
    good = make_trajectory(tid="q-2#k0", qid="q-2")
    wrong = {
        "logged id": make_trajectory(tid="q-1#k0"),
        "repeated id": good,
        "not pending": make_trajectory(tid="q-2#k1", qid="q-2", k=1).resolved(1),
        "question id no string": make_trajectory(tid="q-2#k1", qid=("q-2",), k=1),
        "action no string": make_trajectory(tid="q-2#k1", qid="q-2", k=1, steps=(make_step(5),)),
        "answer no string": make_trajectory(tid="q-2#k1", qid="q-2", k=1, raw=7),
    }[bad]
    with pytest.raises(LedgerError):
        ledger.append_prefix_batch(DAY, [(good, _transcript(good)), (wrong, _transcript(wrong))])
    assert log.read_bytes() == before
    assert ledger.questions_for_day(DAY) == ["q-1"]


def test_a_prefix_batch_writes_numbered_canonical_lines_after_release(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    ledger.release(DAY)
    log = next(tmp_path.glob("ledger-*.jsonl"))
    before = log.read_bytes()
    batch = [make_trajectory(tid=f"q-2#k{k}", qid="q-2", k=k) for k in range(3)]
    seqs = ledger.append_prefix_batch(DAY, [(t, _transcript(t)) for t in batch])
    assert seqs == [5, 6, 7]
    lines = [
        dumps_canonical(
            {
                "sequence_no": n,
                "kind": "PREFIX",
                "trajectory_id": t.trajectory_id,
                "payload": {
                    "trajectory": to_row(t),
                    "transcript": [to_row(turn) for turn in _transcript(t)],
                },
            }
        )
        + "\n"
        for n, t in zip(seqs, batch)
    ]
    assert log.read_bytes() == before + "".join(lines).encode("utf-8")

# -- backfill ---------------------------------------------------------------------


def test_backfill_writes_negative_brier_rewards(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    count = ledger.backfill(DAY, [OUTCOME])
    assert count == 4
    rewards = [ledger.get(DAY, f"q-1#k{k}").reward for k in range(4)]
    assert rewards == pytest.approx([-0.25, -0.01 + 1e-17, -1.0, 0.0], abs=1e-12)
    assert all(ledger.get(DAY, f"q-1#k{k}").label == 1 for k in range(4))


def test_backfill_is_idempotent(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    assert ledger.backfill(DAY, [OUTCOME]) == 4
    before = [ledger.get(DAY, f"q-1#k{k}") for k in range(4)]
    assert ledger.backfill(DAY, [OUTCOME]) == 0
    assert [ledger.get(DAY, f"q-1#k{k}") for k in range(4)] == before


def test_conflicting_backfill_rejected(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    ledger.backfill(DAY, [OUTCOME])
    flipped = Outcome(question_id="q-1", label=0, resolved_at=T1)
    with pytest.raises(ConflictingOutcomeError):
        ledger.backfill(DAY, [flipped])


def test_backfill_unknown_question_is_an_error(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    with pytest.raises(LedgerError):
        ledger.backfill(DAY, [Outcome(question_id="q-none", label=1, resolved_at=T1)])


def test_batch_with_one_conflicting_outcome_writes_nothing(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    _group(ledger, "q-2")
    ledger.backfill(DAY, [OUTCOME])
    log = next(tmp_path.glob("ledger-*.jsonl"))
    before = log.read_bytes()
    q2 = Outcome(question_id="q-2", label=0, resolved_at=T1)
    flipped = Outcome(question_id="q-1", label=0, resolved_at=T1)
    for batch in ([q2, flipped], [q2, Outcome(question_id="q-2", label=1, resolved_at=T1)]):
        with pytest.raises(ConflictingOutcomeError):
            ledger.backfill(DAY, batch)
    unknown = Outcome(question_id="q-none", label=0, resolved_at=T1)
    with pytest.raises(LedgerError):
        ledger.backfill(DAY, [q2, unknown])
    assert log.read_bytes() == before
    assert {t.status for t in ledger.trajectories_for(DAY, "q-2")} == {TrajectoryStatus.PENDING}


def test_backfill_batch_writes_one_record_per_pending_trajectory(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    _group(ledger, "q-2")
    q2 = Outcome(question_id="q-2", label=0, resolved_at=T1)
    assert ledger.backfill(DAY, [q2, OUTCOME, q2]) == 8
    assert ledger.backfill(DAY, [OUTCOME, q2]) == 0
    assert _ledger_states_equal(ledger, replay(tmp_path))


# -- discard -----------------------------------------------------------------------


def test_discard_unresolved_question(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    assert ledger.discard(DAY, [Unresolved("q-1", "not_published")], T1) == 4
    assert all(ledger.get(DAY, f"q-1#k{k}").status is TrajectoryStatus.DISCARDED for k in range(4))
    assert ledger.discard(DAY, [Unresolved("q-1", "not_published")], T1) == 0


def test_discard_leaves_resolved_untouched(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    ledger.backfill(DAY, [OUTCOME])
    assert ledger.discard(DAY, [Unresolved("q-1", "postponed")], T1) == 0
    assert all(ledger.get(DAY, f"q-1#k{k}").status is TrajectoryStatus.RESOLVED for k in range(4))


def test_discard_batch_with_unknown_question_writes_nothing(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    log = next(tmp_path.glob("ledger-*.jsonl"))
    before = log.read_bytes()
    with pytest.raises(LedgerError):
        ledger.discard(DAY, [Unresolved("q-1", "not_published"), Unresolved("q-none", "postponed")], T1)
    assert log.read_bytes() == before
    assert {t.status for t in ledger.trajectories_for(DAY, "q-1")} == {TrajectoryStatus.PENDING}


# -- advantages ----------------------------------------------------------------------


def test_advantages_zero_variance_case():
    assert compute_group_advantages([-0.25, -0.25, -0.25, -0.25]) == [0.0, 0.0, 0.0, 0.0]


def test_advantages_two_point_case():
    adv = compute_group_advantages([0.0, -1.0])
    assert adv == pytest.approx([1.0, -1.0])


def test_advantages_single_sample():
    assert compute_group_advantages([-0.7]) == [0.0]
    with pytest.raises(ValueError):
        compute_group_advantages([])


def test_advantages_standardize_exactly():
    rng = random.Random(21)
    for _ in range(300):
        k = rng.randrange(2, 9)
        rewards = [-((round(rng.random(), 2) - rng.randrange(2)) ** 2) for _ in range(k)]
        adv = compute_group_advantages(rewards)
        if max(rewards) == min(rewards):
            assert adv == [0.0] * k
            continue
        assert math.fsum(adv) == pytest.approx(0.0, abs=1e-9)
        mean = math.fsum(adv) / k
        pop_std = math.sqrt(math.fsum((a - mean) ** 2 for a in adv) / k)
        assert pop_std == pytest.approx(1.0, abs=1e-6)


# -- export ------------------------------------------------------------------------------


def test_export_groups_only_resolved(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    _group(ledger, "q-2")
    _group(ledger, "q-3")
    ledger.backfill(DAY, [OUTCOME])
    ledger.backfill(DAY, [Outcome(question_id="q-2", label=0, resolved_at=T1)])
    ledger.discard(DAY, [Unresolved("q-3", "not_published")], T1)
    groups = list(ledger.export_training_batch(T0.date()))
    assert sorted(g["question_id"] for g in groups) == ["q-1", "q-2"]
    for group in groups:
        entries = group["trajectories"]
        assert len(entries) == 4
        assert all(-1.0 <= e["reward"] <= 0.0 for e in entries)
        assert math.fsum(e["advantage"] for e in entries) == pytest.approx(0.0, abs=1e-9)
        for entry in entries:
            spans = entry["mask_spans"]
            assert [s["turn_index"] for s in spans] == list(range(len(entry["transcript"])))
            for span, turn in zip(spans, entry["transcript"]):
                assert span["masked"] == (turn["role"] != ROLE_AGENT)


def test_export_mask_covers_two_search_turns(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    steps = (make_step("first"), make_step("second"))
    t = make_trajectory(steps=steps, prob=0.7)
    _append(ledger, t)
    ledger.backfill(DAY, [OUTCOME])
    [group] = ledger.export_training_batch(T0.date())
    entry = group["trajectories"][0]
    roles = [turn["role"] for turn in entry["transcript"]]
    assert roles == [ROLE_ENVIRONMENT, ROLE_AGENT, ROLE_TOOL, ROLE_AGENT, ROLE_TOOL, ROLE_AGENT]
    masked = [span["masked"] for span in entry["mask_spans"]]
    assert masked == [True, False, True, False, True, False]


def test_export_rewards_recompute_from_stored_fields(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger)
    ledger.backfill(DAY, [OUTCOME])
    for group in ledger.export_training_batch(T0.date()):
        for entry in group["trajectories"]:
            t = ledger.get(DAY, entry["trajectory_id"])
            if t.final_probability is None:
                assert entry["reward"] == -1.0
            else:
                assert entry["reward"] == pytest.approx(-((t.final_probability - group["label"]) ** 2))


def test_export_partial_groups_keep_invalid_rollouts(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, probs=(None, 0.9))
    ledger.backfill(DAY, [OUTCOME])
    [group] = ledger.export_training_batch(T0.date())
    assert len(group["trajectories"]) == 2
    rewards = sorted(e["reward"] for e in group["trajectories"])
    assert rewards[0] == -1.0
    assert rewards[1] == pytest.approx(-0.01, abs=1e-12)


def test_export_limited_to_a_batch_holds_only_its_questions(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    _group(ledger, "q-2")
    ledger.backfill(DAY, [OUTCOME, Outcome(question_id="q-2", label=0, resolved_at=T1)])
    assert [g["question_id"] for g in ledger.export_training_batch(DAY)] == ["q-1", "q-2"]

def test_write_training_batch_jsonl(tmp_path):
    ledger = TrajectoryLedger(tmp_path / "led")
    _group(ledger)
    ledger.backfill(DAY, [OUTCOME])
    out = tmp_path / "train.jsonl"
    assert write_training_batch(out, ledger.export_training_batch(T0.date())) == 1
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["question_id"] == "q-1"
    assert len(rows[0]["trajectories"]) == 4
    assert {"transcript", "mask_spans", "reward", "advantage"} <= set(rows[0]["trajectories"][0])


# -- replay --------------------------------------------------------------------------------


def _ledger_states_equal(a: TrajectoryLedger, b: TrajectoryLedger) -> bool:
    ids = sorted((t.prediction_time.date(), t.trajectory_id) for t in a.all_trajectories())
    if ids != sorted((t.prediction_time.date(), t.trajectory_id) for t in b.all_trajectories()):
        return False
    return all(
        a.get(day, i) == b.get(day, i) and a.transcript(day, i) == b.transcript(day, i)
        for day, i in ids
    )


def test_replay_reconstructs_live_state(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    _group(ledger, "q-2")
    ledger.backfill(DAY, [OUTCOME])
    ledger.discard(DAY, [Unresolved("q-2", "not_published")], T1)
    replayed = replay(tmp_path)
    assert _ledger_states_equal(ledger, replayed)


def test_replay_of_truncated_log_is_a_valid_prefix(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    ledger.backfill(DAY, [OUTCOME])
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:5]) + "\n")
    replayed = replay(tmp_path)
    assert len(replayed.all_trajectories()) == 4
    statuses = {t.status for t in replayed.all_trajectories()}
    assert statuses == {TrajectoryStatus.RESOLVED, TrajectoryStatus.PENDING}


def test_replay_tolerates_torn_final_line(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    log = next(tmp_path.glob("ledger-*.jsonl"))
    with log.open("a") as fh:
        fh.write('{"sequence_no": 99, "kind": "BACK')  # crashed writer
    replayed = replay(tmp_path)
    assert len(replayed.all_trajectories()) == 4


def test_append_after_torn_tail_keeps_the_ledger_replayable(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    log = next(tmp_path.glob("ledger-*.jsonl"))
    data = log.read_bytes()
    log.write_bytes(data[: len(data) - 40])  # crashed mid-way through the last prefix
    reopened = TrajectoryLedger(tmp_path)
    assert len(reopened.all_trajectories()) == 3
    assert reopened.backfill(DAY, [OUTCOME]) == 3
    replayed = replay(tmp_path)
    assert _ledger_states_equal(reopened, replayed)
    assert {t.status for t in replayed.all_trajectories()} == {TrajectoryStatus.RESOLVED}


def test_replay_keeps_unicode_line_separators_inside_records(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _append(ledger, make_trajectory(raw="line one\u2028line two\x85FINAL: 0.7"))
    assert _ledger_states_equal(ledger, replay(tmp_path))


def test_a_log_that_fails_to_replay_fails_on_every_access(tmp_path):
    _group(TrajectoryLedger(tmp_path), "q-1")
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    lines[1] = lines[1][:-7]  # a malformed record that is not the last line
    log.write_text("\n".join(lines) + "\n")
    ledger = TrajectoryLedger(tmp_path)
    for _ in range(2):
        with pytest.raises(ReplayError, match="malformed record at line 2"):
            ledger.questions_for_day(DAY)
        with pytest.raises(ReplayError):
            ledger.trajectories_for(DAY, "q-1")


def test_a_complete_last_line_that_does_not_decode_is_refused_and_kept(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    ledger.backfill(DAY, [OUTCOME])
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    assert json.loads(lines[-1])["kind"] == "BACKFILL"
    lines[-1] = lines[-1][:-1]  # a whole line, newline included, without its closing brace
    log.write_text("\n".join(lines) + "\n")
    written = log.read_bytes()
    reopened = TrajectoryLedger(tmp_path)
    with pytest.raises(ReplayError, match=f"malformed record at line {len(lines)} "):
        reopened.trajectories_for(DAY, "q-1")
    with pytest.raises(ReplayError, match=f"malformed record at line {len(lines)} "):
        reopened.discard(DAY, [Unresolved("q-1", "postponed")], T1)
    assert log.read_bytes() == written


@pytest.mark.parametrize("at", [1, 4], ids=["between records", "last"])
def test_a_blank_line_in_a_log_is_refused(tmp_path, at):
    _group(TrajectoryLedger(tmp_path), "q-1")
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    lines.insert(at, "")
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(ReplayError, match=f"malformed record at line {at + 1} "):
        replay(tmp_path)


def test_replay_shares_equal_texts_between_steps_and_turns(tmp_path):
    _group(TrajectoryLedger(tmp_path), "q-1")
    replayed = replay(tmp_path)
    first = replayed.transcript(DAY, "q-1#k0")
    for k in range(4):
        t = replayed.get(DAY, f"q-1#k{k}")
        turns = replayed.transcript(DAY, t.trajectory_id)
        assert turns[1].text is t.steps[0].action
        assert turns[2].text is t.steps[0].observation
        assert turns[3].text is t.raw_final_answer
        assert turns[0].text is first[0].text  # one prompt for the question's K rollouts
    assert _ledger_states_equal(replayed, replay(tmp_path))



def _sibling_day(root):
    """Two resolved groups of K=4 whose equal texts are distinct objects live."""
    ledger = TrajectoryLedger(root)
    for qid in ("q-1", "q-2"):
        for k in range(4):
            _append(ledger, make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, prob=0.7))
    ledger.backfill(DAY, [OUTCOME, Outcome(question_id="q-2", label=0, resolved_at=T1)])
    return ledger


def test_replay_shares_the_equal_texts_of_siblings(tmp_path):
    ledger = _sibling_day(tmp_path)
    live = [ledger.get(DAY, f"q-1#k{k}") for k in range(2)]
    assert live[0].raw_final_answer is not live[1].raw_final_answer
    ledger.release(DAY)
    for qid in ("q-1", "q-2"):
        first = ledger.trajectories_for(DAY, qid)[0]
        first_turns = ledger.transcript(DAY, first.trajectory_id)
        for t in ledger.trajectories_for(DAY, qid):
            turns = ledger.transcript(DAY, t.trajectory_id)
            assert t.question_id is first.question_id
            assert t.raw_final_answer is first.raw_final_answer
            assert t.steps[0].action is first.steps[0].action
            assert t.steps[0].observation is first.steps[0].observation
            assert all(a.text is b.text for a, b in zip(turns, first_turns))
        roles = [
            turn.role
            for t in ledger.trajectories_for(DAY, qid)
            for turn in ledger.transcript(DAY, t.trajectory_id)
        ]
        assert roles == [ROLE_ENVIRONMENT, ROLE_AGENT, ROLE_TOOL, ROLE_AGENT] * 4
        assert all(any(role is r for r in (ROLE_ENVIRONMENT, ROLE_AGENT, ROLE_TOOL)) for role in roles)


def _agent_day(root, agent_name, step_delay=timedelta(0)):
    """One agent's day log: three groups of K=4 rolled out by a scripted agent.

    Each step is stamped ``step_delay`` after the prediction time. q-0 is
    backfilled, q-1 discarded and q-2 left pending.
    """
    questions = [make_question(qid=f"q-{i}", text=f"Will event {i} happen?") for i in range(3)]
    tool = SimulatedSearchTool(latent_by_text={q.text: 0.2 + 0.3 * i for i, q in enumerate(questions)})
    agent = make_scripted_agent(agent_name, seed=5)
    prefixes = []
    for q in questions:
        for r in run_group(q, "Question: " + q.text, agent, tool, RolloutLimits(), 4):
            steps = tuple(replace(s, issued_at=s.issued_at + step_delay) for s in r.trajectory.steps)
            prefixes.append((replace(r.trajectory, steps=steps), r.transcript))
    ledger = TrajectoryLedger(root)
    ledger.append_prefix_batch(DAY, prefixes)
    ledger.backfill(DAY, [Outcome(question_id="q-0", label=1, resolved_at=T1)])
    ledger.discard(DAY, [Unresolved("q-1", "postponed")], T1)
    return ledger


def _reference_day(log):
    """Decode a day log record by record, sharing nothing: {trajectory id: (trajectory, turns)}."""
    state = {}
    with log.open("rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # a torn tail
            record = json.loads(line)
            tid, payload = record["trajectory_id"], record["payload"]
            if record["kind"] == "PREFIX":
                turns = [Turn(t["role"], t["text"]) for t in payload["transcript"]]
                state[tid] = (from_row(Trajectory, payload["trajectory"]), turns)
            elif record["kind"] == "BACKFILL":
                t, turns = state[tid]
                resolved = replace(
                    t, status=TrajectoryStatus.RESOLVED, label=payload["label"], reward=payload["reward"]
                )
                state[tid] = (resolved, turns)
            else:
                t, turns = state[tid]
                state[tid] = (replace(t, status=TrajectoryStatus.DISCARDED), turns)
    return state


@pytest.mark.parametrize(
    "agent_name, step_delay",
    [("oracle", timedelta(0)), ("noisy", timedelta(seconds=7))],
    ids=["equal siblings", "distinct siblings"],
)
@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn tail"])
def test_a_replayed_day_equals_a_reference_decode(tmp_path, agent_name, step_delay, torn):
    _agent_day(tmp_path, agent_name, step_delay)
    log = next(tmp_path.glob("ledger-*.jsonl"))
    if torn:
        with log.open("a") as fh:
            fh.write('{"kind":"PREFIX","payload":{"traj')
    reference = _reference_day(log)
    replayed = TrajectoryLedger(tmp_path)
    ids = [t.trajectory_id for t in replayed.all_trajectories()]
    assert ids == list(reference)
    for tid, (trajectory, turns) in reference.items():
        assert replayed.get(DAY, tid) == trajectory
        assert replayed.transcript(DAY, tid) == turns
    statuses = {t.status for t, _ in reference.values()}
    assert statuses == {TrajectoryStatus.RESOLVED, TrajectoryStatus.DISCARDED, TrajectoryStatus.PENDING}
    siblings = replayed.trajectories_for(DAY, "q-0")
    finals = {t.raw_final_answer for t in siblings}
    assert len(finals) == (1 if agent_name == "oracle" else 4)
    for t in siblings:
        assert t.steps[0] is siblings[0].steps[0]
        assert t.prediction_time is siblings[0].prediction_time


#: texts a rollout draws from: non-ASCII, a quote and backslashes, every C0
#: control character and U+007F, raw U+0085, U+2028 and U+2029, a character
#: beyond the BMP, and the prediction instant's own string
_TEXTS = (
    "Dallas 84–85°F",
    "東京の天気",
    "line one\u2028line two",
    "one\x85two",
    'say "yes" \\ or \\"no\\"',
    "".join(map(chr, range(0x20))) + "\x7f",
    "para\u2029graph 🌧",
    T0.isoformat(),
    "plain",
)

#: final probabilities in every form the canonical encoder writes a number
_PROBS = (None, 0.0, 1.0, 1e-05, 5e-324, 0.1 + 0.2, 1)


def _random_steps(rng):
    """One to three steps, each stamped at the prediction instant or after it."""
    return tuple(
        Step(
            action=rng.choice(_TEXTS),
            observation=rng.choice(_TEXTS) + rng.choice(("", " ✓")),
            issued_at=T0 + timedelta(seconds=rng.choice((0, 0, rng.randrange(1, 90)))),
        )
        for _ in range(rng.randrange(1, 4))
    )


def _random_group(rng, qid):
    """One question's rollouts; a sibling repeats the first one's steps and answer at random.

    Rollout indexes start at 0 or at 8, so some reach two digits.
    """
    prompt = f"{rng.choice(_TEXTS)} ({qid})"
    first_steps, first_raw = _random_steps(rng), rng.choice(_TEXTS)
    group = []
    first_k = rng.choice((0, 8))
    for k in range(first_k, first_k + rng.randrange(1, 5)):
        if rng.random() < 0.6:
            steps, raw = first_steps, first_raw
        else:
            steps, raw = _random_steps(rng), rng.choice(_TEXTS)
        prob = rng.choice(_PROBS + (round(rng.random(), 4),))
        t = make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, steps=steps, prob=prob, raw=raw)
        turns = [Turn(ROLE_ENVIRONMENT, prompt)]
        for step in steps:
            turns += [Turn(ROLE_AGENT, step.action), Turn(ROLE_TOOL, step.observation)]
        group.append((t, turns + [Turn(ROLE_AGENT, raw)]))
    return group


def _edge_groups():
    """Groups that surely hold each edge case of the line writer.

    q-6 has one rollout per form of probability, indexes 10 to 16, and a
    step per text of ``_TEXTS``; q-7 has four equal siblings; q-8 has four
    siblings that differ only in their final turn.
    """
    every_text = tuple(Step(text, text[::-1], T0) for text in _TEXTS)
    groups = {
        "q-6": [
            make_trajectory(tid=f"q-6#k{k}", qid="q-6", k=k, steps=every_text, prob=prob)
            for k, prob in enumerate(_PROBS, start=10)
        ],
        "q-7": [make_trajectory(tid=f"q-7#k{k}", qid="q-7", k=k, prob=0.25) for k in range(4)],
        "q-8": [
            make_trajectory(tid=f"q-8#k{k}", qid="q-8", k=k, prob=0.25, raw=f"FINAL: 0.25{' ' * k}")
            for k in range(4)
        ],
    }
    return {qid: [(t, _transcript(t)) for t in group] for qid, group in groups.items()}


@pytest.mark.parametrize("seed", range(8))
def test_ledger_lines_are_canonical_rows_and_replay_equals_a_from_row_decode(tmp_path, seed):
    rng = random.Random(seed)
    groups = {f"q-{i}": _random_group(rng, f"q-{i}") for i in range(6)}
    # one rollout that surely holds each edge case: no probability, an empty
    # final answer, an action equal to the instant's string, U+2028 in an
    # observation, and steps stamped at and after the prediction instant
    edge = (
        Step(T0.isoformat(), "line one\u2028line two", T0),
        Step("später", "日本", T0 + timedelta(seconds=1)),
    )
    t = make_trajectory(tid="q-0#k0", qid="q-0", steps=edge, prob=None, raw="")
    groups["q-0"][0] = (t, [Turn(ROLE_ENVIRONMENT, "prompt")] + _transcript(t)[1:])
    groups.update(_edge_groups())
    qids = list(groups)
    prefixes = [prefix for group in groups.values() for prefix in group]

    ledger = TrajectoryLedger(tmp_path)
    ledger.append_prefix_batch(DAY, prefixes)
    outcomes = [Outcome(qid, rng.randrange(2), T1) for qid in qids[0::3]]
    ledger.backfill(DAY, outcomes)
    ledger.discard(DAY, [Unresolved(qid, "postponed") for qid in qids[1::3]], T1)

    records = [
        ("PREFIX", t, {"trajectory": to_row(t), "transcript": [to_row(turn) for turn in turns]})
        for t, turns in prefixes
    ]
    records += [
        ("BACKFILL", t, {
            "label": o.label,
            "reward": trajectory_reward(t.final_probability, o.label),
            "resolved_at": T1.isoformat(),
        })
        for o in outcomes
        for t, _ in groups[o.question_id]
    ]
    records += [
        ("DISCARD", t, {"reason": "postponed", "decided_at": T1.isoformat()})
        for qid in qids[1::3]
        for t, _ in groups[qid]
    ]
    lines = [
        dumps_canonical(
            {"kind": kind, "payload": payload, "sequence_no": n, "trajectory_id": t.trajectory_id}
        )
        + "\n"
        for n, (kind, t, payload) in enumerate(records, start=1)
    ]
    log = next(tmp_path.glob("ledger-*.jsonl"))
    assert log.read_bytes() == "".join(lines).encode("utf-8")
    for line in lines:
        assert dumps_canonical(json.loads(line)) + "\n" == line
    # q-6 is backfilled, and its 0.0 or its 1.0 rollout matches the label
    assert any('"reward":-0.0}' in line for line in lines)

    reference = _reference_day(log)
    replayed = TrajectoryLedger(tmp_path)
    assert [t.trajectory_id for t in replayed.all_trajectories()] == list(reference)
    for tid, (trajectory, turns) in reference.items():
        assert replayed.get(DAY, tid) == trajectory == ledger.get(DAY, tid)
        assert replayed.transcript(DAY, tid) == turns
    statuses = {t.status for t, _ in reference.values()}
    assert statuses == set(TrajectoryStatus)
    for qid in qids:
        held = {}  # the first object replay gave each value of the question
        for t in replayed.trajectories_for(DAY, qid):
            for value in (*t.steps, *replayed.transcript(DAY, t.trajectory_id)):
                assert held.setdefault(value, value) is value
            for step in t.steps:
                assert (step.issued_at is t.prediction_time) == (step.issued_at == T0)


def test_release_drops_the_replay_memos_and_a_new_access_rebuilds_them(tmp_path):
    ledger = _agent_day(tmp_path / "ledger", "oracle")
    ledger.release(DAY)
    ledger.trajectories_for(DAY, "q-0")
    held = ledger._days[DAY]
    # the values of the question replayed last, and nothing else
    q2 = {}
    for t in ledger.trajectories_for(DAY, "q-2"):
        q2[t.raw_final_answer] = t.raw_final_answer
        for step in t.steps:
            q2[(step.action, step.observation, step.issued_at.isoformat())] = step
        for turn in ledger.transcript(DAY, t.trajectory_id):
            q2[turn.text] = turn.text
            q2[(turn.role, turn.text)] = turn
    assert held.question_id == "q-2" and held.siblings.keys() == q2.keys()
    assert all(held.siblings[key] is value for key, value in q2.items())
    assert list(held.instants) == [T0.isoformat()]
    ledger.release(DAY)
    assert DAY not in ledger._days
    ledger.trajectories_for(DAY, "q-0")
    rebuilt = ledger._days[DAY]
    assert rebuilt is not held and rebuilt.siblings is not held.siblings
    assert rebuilt.question_id == "q-2" and list(rebuilt.instants) == [T0.isoformat()]
    assert rebuilt.siblings.keys() == held.siblings.keys()


def test_a_group_completed_later_in_the_log_shares_its_first_siblings_values(tmp_path):
    """A group split by another question's records replays equal to the reference.

    Each run of the group's records shares its own values; the runs share
    equal values, not objects.
    """
    ledger = TrajectoryLedger(tmp_path)
    for qid, ks in (("q-1", (0, 1)), ("q-2", (0, 1, 2, 3)), ("q-1", (2, 3))):
        for k in ks:
            _append(ledger, make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k))
    ledger.release(DAY)
    reference = _reference_day(next(tmp_path.glob("ledger-*.jsonl")))
    group = ledger.trajectories_for(DAY, "q-1")
    assert [t.trajectory_id for t in group] == [f"q-1#k{k}" for k in range(4)]
    for t in group:
        assert (t, ledger.transcript(DAY, t.trajectory_id)) == reference[t.trajectory_id]
    for a, b in (group[:2], group[2:]):
        assert b.steps[0] is a.steps[0]
        turns = ledger.transcript(DAY, b.trajectory_id)
        assert all(x is y for x, y in zip(turns, ledger.transcript(DAY, a.trajectory_id)))


def test_a_day_replayed_after_release_equals_the_day_held_live(tmp_path):
    ledger = _sibling_day(tmp_path / "ledger")
    live = _day_answers(ledger, DAY)
    write_training_batch(tmp_path / "live.jsonl", ledger.export_training_batch(DAY))
    ledger.release(DAY)
    assert _day_answers(ledger, DAY) == live
    write_training_batch(tmp_path / "replayed.jsonl", ledger.export_training_batch(DAY))
    assert (tmp_path / "replayed.jsonl").read_bytes() == (tmp_path / "live.jsonl").read_bytes()

def test_replay_rejects_backfill_before_prefix(tmp_path):
    log = tmp_path / f"ledger-{T0.date().isoformat()}.jsonl"
    record = {
        "sequence_no": 1,
        "kind": "BACKFILL",
        "trajectory_id": "q-9#k0",
        "payload": {"label": 1, "reward": -0.5, "resolved_at": "2026-03-03T20:30:00+00:00"},
    }
    log.write_text(dumps_canonical(record) + "\n")
    with pytest.raises(ReplayError) as err:
        replay(tmp_path)
    assert err.value.sequence_no == 1


def test_replay_rejects_double_terminal(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1", probs=(0.5,))
    ledger.backfill(DAY, [OUTCOME])
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    extra = json.loads(lines[-1])
    extra["sequence_no"] += 1
    extra["kind"] = "DISCARD"
    extra["payload"] = {"reason": "late", "decided_at": "2026-03-03T20:30:00+00:00"}
    log.write_text("\n".join(lines + [dumps_canonical(extra)]) + "\n")
    with pytest.raises(ReplayError):
        replay(tmp_path)


def test_replay_rejects_a_duplicate_prefix(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1", probs=(0.5,))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    again = json.loads(lines[-1])
    again["sequence_no"] += 1
    log.write_text("\n".join(lines + [dumps_canonical(again)]) + "\n")
    with pytest.raises(ReplayError, match=r"duplicate PREFIX for q-1#k0") as err:
        replay(tmp_path)
    assert err.value.sequence_no == 2


def _assert_each_access_refuses(tmp_path, sequence_no, match):
    with pytest.raises(ReplayError, match=match) as err:
        replay(tmp_path)
    assert err.value.sequence_no == sequence_no
    ledger = TrajectoryLedger(tmp_path)
    for _ in range(2):
        with pytest.raises(ReplayError, match=match) as err:
            list(ledger.export_training_batch(DAY))
        assert err.value.sequence_no == sequence_no


def test_replay_rejects_a_prefix_that_is_not_pending(tmp_path):
    _group(TrajectoryLedger(tmp_path), "q-1", probs=(0.5,))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    extra = json.loads(lines[-1])
    extra["sequence_no"] += 1
    extra["trajectory_id"] = "q-2#k0"
    extra["payload"]["trajectory"].update(
        trajectory_id="q-2#k0", question_id="q-2", status="RESOLVED", label=1, reward=5.0
    )
    log.write_text("\n".join(lines + [dumps_canonical(extra)]) + "\n")
    _assert_each_access_refuses(tmp_path, 2, r"q-2#k0 is RESOLVED with label 1 and reward 5\.0")


def test_replay_rejects_a_prefix_whose_envelope_names_another_trajectory(tmp_path):
    _group(TrajectoryLedger(tmp_path), "q-1", probs=(0.5, 0.6))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    second = json.loads(log.read_text().splitlines()[1])
    second["trajectory_id"] = "q-1#k0"  # the envelope of q-1#k1's payload, written twice
    log.write_text("".join(dumps_canonical(dict(second, sequence_no=n)) + "\n" for n in (1, 2)))
    _assert_each_access_refuses(tmp_path, 1, r"PREFIX for q-1#k0 holds trajectory q-1#k1")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda payload: payload.pop("label"), "KeyError"),
        (lambda payload: payload.update(reward=5.0), r"holds reward 5\.0, not -0\.25"),
        (lambda payload: payload.update(reward=-0.75), r"holds reward -0\.75, not -0\.25"),
        (lambda payload: payload.update(label=True), r"label must be binary \(the integer 0 or 1\), got True"),
        (lambda payload: payload.update(label=1.0), r"label must be binary \(the integer 0 or 1\), got 1\.0"),
    ],
    ids=["no-label", "reward-out-of-range", "reward-not-derived", "label-true", "label-float"],
)
def test_replay_rejects_a_backfill_the_appender_could_not_write(tmp_path, edit, named):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1", probs=(0.6, 0.5))
    ledger.backfill(DAY, [OUTCOME])
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    backfill = json.loads(lines[-1])
    assert backfill["payload"]["reward"] == -0.25  # the 0.5 prediction of q-1#k1, label 1
    edit(backfill["payload"])
    log.write_text("\n".join(lines[:-1] + [dumps_canonical(backfill)]) + "\n")
    _assert_each_access_refuses(tmp_path, backfill["sequence_no"], f"BACKFILL for q-1#k1 .*{named}")


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda record: record["payload"]["trajectory"].pop("steps"), r"does not decode: KeyError\('steps'\)"),
        (lambda record: record.update(payload=[record["payload"]]), r"does not decode: TypeError"),
        (
            lambda record: record["payload"]["transcript"][0].update(text=["prompt text"]),
            r"does not decode: TypeError\(\"unhashable type: 'list'\"\)",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(status="LATE"),
            r"does not decode: ValueError\(\"'LATE' is not a valid TrajectoryStatus\"\)",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(prediction_time=5),
            r"does not decode: AttributeError",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(question_id=["q-1"]),
            r"has question_id \['q-1'\]; ids must be strings",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(rollout_index="1"),
            r"has rollout_index '1', not an int",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(final_probability="0.5"),
            r"has final_probability '0\.5', not a number or null",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(final_probability=True),
            r"has final_probability True, not a number or null",
        ),
        (
            lambda record: record["payload"]["trajectory"]["steps"][0].update(action=5),
            r"does not decode: TypeError\('step action 5 is not a string'\)",
        ),
        (
            lambda record: record["payload"]["trajectory"]["steps"][0].update(observation=6),
            r"does not decode: TypeError\('step observation 6 is not a string'\)",
        ),
        (
            lambda record: record["payload"]["trajectory"].update(raw_final_answer=7),
            r"does not decode: TypeError\('raw_final_answer 7 is not a string'\)",
        ),
        (
            lambda record: record["payload"]["transcript"][0].update(role=8),
            r"does not decode: TypeError\('transcript role 8 is not a string'\)",
        ),
        (
            lambda record: record["payload"]["transcript"][0].update(text=9),
            r"does not decode: TypeError\('transcript text 9 is not a string'\)",
        ),
    ],
    ids=[
        "no-steps", "list-payload", "list-text", "status-late", "instant-number",
        "question-id-list", "index-string", "prob-string", "prob-true",
        "action-number", "observation-number", "answer-number", "role-number", "text-number",
    ],
)
def test_replay_rejects_a_prefix_the_appender_could_not_write(tmp_path, edit, named):
    _group(TrajectoryLedger(tmp_path), "q-1", probs=(0.6, 0.5))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    prefix = json.loads(lines[-1])
    edit(prefix)
    log.write_text("\n".join(lines[:-1] + [dumps_canonical(prefix)]) + "\n")
    _assert_each_access_refuses(tmp_path, prefix["sequence_no"], f"q-1#k1 .*{named}")


def test_an_append_that_fails_part_way_leaves_a_log_that_replays(tmp_path, monkeypatch):
    ledger = TrajectoryLedger(tmp_path)
    first, second = (make_trajectory(tid=f"q-1#k{k}", k=k) for k in range(2))
    encode = ledger_module._encode_prefixes

    def fail_after_one_record(prefixes):
        yield next(encode(prefixes))
        raise OSError("no space left on device")

    with monkeypatch.context() as m:
        m.setattr(ledger_module, "_encode_prefixes", fail_after_one_record)
        with pytest.raises(OSError):
            ledger.append_prefix_batch(DAY, [(t, _transcript(t)) for t in (first, second)])
    assert ledger.append_prefix_batch(DAY, [(second, _transcript(second))]) == [2]
    log = next(tmp_path.glob("ledger-*.jsonl"))
    assert [json.loads(line)["sequence_no"] for line in log.read_text().splitlines()] == [1, 2]
    assert [t.trajectory_id for t in replay(tmp_path).all_trajectories()] == ["q-1#k0", "q-1#k1"]
    assert ledger.trajectories_for(DAY, "q-1") == [first, second]


def test_replay_rejects_an_unknown_record_kind(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1", probs=(0.5,))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    extra = json.loads(lines[-1])
    extra["sequence_no"] += 1
    extra["kind"] = "RETRACT"
    extra["payload"] = {}
    log.write_text("\n".join(lines + [dumps_canonical(extra)]) + "\n")
    with pytest.raises(ReplayError, match=r"unknown record kind 'RETRACT'") as err:
        replay(tmp_path)
    assert err.value.sequence_no == 2


@pytest.mark.parametrize(
    "edit, sequence_no, named",
    [
        (lambda record: [record], None, r"a record must be a JSON object, not list"),
        (lambda record: dict(record, sequence_no=True), True, r"sequence_no must strictly increase"),
        (
            lambda record: dict(record, trajectory_id=[record["trajectory_id"]]),
            1,
            r"trajectory_id \['q-1#k0'\] is not a string",
        ),
    ],
    ids=["list-record", "sequence-true", "id-list"],
)
def test_replay_rejects_an_envelope_the_appender_could_not_write(tmp_path, edit, sequence_no, named):
    _group(TrajectoryLedger(tmp_path), "q-1", probs=(0.5,))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    log.write_text(dumps_canonical(edit(json.loads(log.read_text()))) + "\n")
    _assert_each_access_refuses(tmp_path, sequence_no, named)


def test_replay_rejects_non_increasing_sequence(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1", probs=(0.5, 0.6))
    log = next(tmp_path.glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    duplicated = json.loads(lines[-1])
    duplicated["trajectory_id"] = "q-1#k9"
    log.write_text("\n".join(lines + [dumps_canonical(duplicated)]) + "\n")
    with pytest.raises(ReplayError):
        replay(tmp_path)


# -- lazy day loading ------------------------------------------------------------


def _three_day_ledger(root):
    """Day 0 resolved, day 1 half resolved / half discarded, day 2 pending."""
    ledger = TrajectoryLedger(root)
    for offset in range(3):
        for q in range(2):
            qid = f"q-d{offset}-{q}"
            ledger.append_prefix_batch(
                DAY + timedelta(days=offset),
                [
                    (t, _transcript(t))
                    for t in (
                        replace(
                            make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, prob=prob),
                            prediction_time=T0 + timedelta(days=offset),
                        )
                        for k, prob in enumerate((0.2, 0.9, None))
                    )
                ]
            )
    resolved_at = T1 + timedelta(days=1)
    ledger.backfill(
        DAY,
        [Outcome(question_id=f"q-d0-{q}", label=q, resolved_at=T1) for q in range(2)],
    )
    day1 = DAY + timedelta(days=1)
    ledger.backfill(day1, [Outcome(question_id="q-d1-0", label=1, resolved_at=resolved_at)])
    ledger.discard(day1, [Unresolved("q-d1-1", "postponed")], resolved_at)
    return ledger


def _reads(monkeypatch):
    """Record the path of every log the ledger reads."""
    read = []
    real = ledger_module.read_log_records
    monkeypatch.setattr(
        ledger_module, "read_log_records", lambda path, fold: read.append(path) or real(path, fold)
    )
    return read


def test_construction_reads_no_log(tmp_path, monkeypatch):
    _three_day_ledger(tmp_path)
    read = _reads(monkeypatch)
    TrajectoryLedger(tmp_path)
    assert read == []


def test_fresh_ledger_answers_day_scoped_queries_like_replay(tmp_path, monkeypatch):
    _three_day_ledger(tmp_path)
    whole = replay(tmp_path)
    read = _reads(monkeypatch)
    for day in whole.log_days():
        fresh = TrajectoryLedger(tmp_path)
        qids = fresh.questions_for_day(day)
        assert qids == whole.questions_for_day(day) and len(qids) == 2
        for qid in qids:
            assert fresh.trajectories_for(day, qid) == whole.trajectories_for(day, qid)
            for t in fresh.trajectories_for(day, qid):
                assert fresh.get(day, t.trajectory_id) == whole.get(day, t.trajectory_id)
                assert fresh.transcript(day, t.trajectory_id) == whole.transcript(day, t.trajectory_id)
        assert list(fresh.export_training_batch(day)) == list(whole.export_training_batch(day))
        assert [path.name for path in read] == [f"ledger-{day.isoformat()}.jsonl"]
        read.clear()


def test_all_trajectories_keep_day_order_after_a_later_day_was_read_first(tmp_path):
    _three_day_ledger(tmp_path)
    fresh = TrajectoryLedger(tmp_path)
    fresh.questions_for_day(DAY + timedelta(days=2))
    fresh.backfill(
        DAY + timedelta(days=1),
        [Outcome(question_id="q-d1-0", label=1, resolved_at=T1)],
    )
    order = [t.trajectory_id for t in fresh.all_trajectories()]
    assert order == [t.trajectory_id for t in replay(tmp_path).all_trajectories()]
    assert order == [f"q-d{d}-{q}#k{k}" for d in range(3) for q in range(2) for k in range(3)]


def _day_answers(ledger, day):
    """Every query about one log day, as comparable values."""
    answers = {
        "questions": ledger.questions_for_day(day),
        "export": list(ledger.export_training_batch(day)),
    }
    for qid in answers["questions"]:
        answers[qid] = ledger.trajectories_for(day, qid)
        for t in answers[qid]:
            answers[t.trajectory_id] = (
                ledger.get(day, t.trajectory_id), ledger.transcript(day, t.trajectory_id)
            )
    return answers


def test_release_drops_a_day_that_the_next_query_replays_unchanged(tmp_path, monkeypatch):
    ledger = _three_day_ledger(tmp_path)
    days = ledger.log_days()
    before = {day: _day_answers(ledger, day) for day in days}
    everything = ledger.all_trajectories()
    read = _reads(monkeypatch)
    for day in days:
        ledger.release(day)
        assert day not in ledger._days
        assert _day_answers(ledger, day) == before[day]
        assert [path.name for path in read] == [f"ledger-{day.isoformat()}.jsonl"]
        read.clear()
    ledger.release(days[0])
    ledger.release(days[0] - timedelta(days=9))  # never read: nothing to drop
    assert ledger.all_trajectories() == everything


def test_append_after_release_continues_the_sequence(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    ledger.release(DAY)
    assert _append(ledger, make_trajectory(tid="q-2#k0", qid="q-2")) == 5
    ledger.release(DAY)
    assert ledger.backfill(DAY, [OUTCOME]) == 4
    assert _ledger_states_equal(ledger, replay(tmp_path))
    with next(tmp_path.glob("ledger-*.jsonl")).open() as log:
        seqs = [json.loads(line)["sequence_no"] for line in log]
    assert seqs == list(range(1, 10))


def test_release_then_append_repairs_a_torn_tail(tmp_path):
    ledger = TrajectoryLedger(tmp_path)
    _group(ledger, "q-1")
    ledger.release(DAY)
    log = next(tmp_path.glob("ledger-*.jsonl"))
    data = log.read_bytes()
    log.write_bytes(data[: len(data) - 40])  # a crashed writer tore the last prefix
    assert len(ledger.trajectories_for(DAY, "q-1")) == 3
    assert ledger.backfill(DAY, [OUTCOME]) == 3
    replayed = replay(tmp_path)
    assert _ledger_states_equal(ledger, replayed)
    assert {t.status for t in replayed.all_trajectories()} == {TrajectoryStatus.RESOLVED}


def test_day_lookups_do_not_see_other_days(tmp_path):
    ledger = _three_day_ledger(tmp_path)
    assert ledger.trajectories_for(DAY, "q-d1-0") == []
    with pytest.raises(LedgerError):
        ledger.discard(DAY, [Unresolved("q-d2-0", "not_published")], T1)


# -- random interleaving property --------------------------------------------------------


def test_status_machine_over_random_interleavings(tmp_path):
    rng = random.Random(1312)
    for trial in range(25):
        root = tmp_path / f"trial{trial}"
        ledger = TrajectoryLedger(root)
        question_labels: dict[str, int] = {}
        next_k: dict[str, int] = {}
        for _ in range(40):
            action = rng.choice(("append", "backfill", "discard", "replay"))
            qid = f"q-{rng.randrange(5)}"
            if action == "append":
                k = next_k.get(qid, 0)
                if k >= 6:
                    continue
                next_k[qid] = k + 1
                prob = rng.choice([None, round(rng.random(), 2)])
                _append(ledger, make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, prob=prob))
            elif action == "backfill" and qid in next_k:
                label = question_labels.setdefault(qid, rng.randrange(2))
                outcome = Outcome(question_id=qid, label=label, resolved_at=T1)
                first = ledger.backfill(DAY, [outcome])
                assert ledger.backfill(DAY, [outcome]) == 0 or first == 0
            elif action == "discard" and qid in next_k:
                ledger.discard(DAY, [Unresolved(qid, "not_published")], T1)
            elif action == "replay":
                assert _ledger_states_equal(ledger, replay(root))

        # status machine: PENDING -> {RESOLVED, DISCARDED} only, enforced by replay
        replayed = replay(root)
        assert _ledger_states_equal(ledger, replayed)
        for group in ledger.export_training_batch(T0.date()):
            entries = group["trajectories"]
            rewards = [e["reward"] for e in entries]
            assert all(-1.0 <= r <= 0.0 for r in rewards)
            labels = {ledger.get(DAY, e["trajectory_id"]).label for e in entries}
            assert labels == {group["label"]}
            advantages = [e["advantage"] for e in entries]
            if max(rewards) > min(rewards):
                mean = statistics.fmean(advantages)
                pop_std = math.sqrt(math.fsum((a - mean) ** 2 for a in advantages) / len(advantages))
                assert abs(mean) <= 1e-6
                assert abs(pop_std - 1.0) <= 1e-6
            else:
                assert advantages == [0.0] * len(advantages)
