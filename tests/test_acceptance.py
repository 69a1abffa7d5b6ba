"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The closed-loop simulation (criteria 6, 8, 9) runs once as a
module fixture at the pinned seed.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from datetime import timedelta

import pytest

from futureworld.benchmark import BenchmarkPoolConfig
from futureworld.domain import TrajectoryStatus
from futureworld.jsonl import dumps_canonical, to_row
from futureworld.embedding import HashingEmbedder
from futureworld.ledger import TrajectoryLedger, replay
from futureworld.orchestrator import BenchmarkSettings, CycleConfig, Orchestrator
from futureworld.prompts import BenchmarkCaps
from futureworld.qpipeline import (
    DEFAULT_DOMAIN_RULES,
    TemplateError,
    allocate_budget,
    construct_pair,
    resample,
)
from futureworld.resolve import Unresolved
from futureworld.scoring import (
    ChoiceAnswer,
    NumericAnswer,
    ProbPrediction,
    accuracy,
    brier,
    ece,
    f1_choice,
    numeric_score,
    overall,
    trajectory_reward,
)
from futureworld.sources import fetch_all

from conftest import T0, T1, make_pair, make_trajectory
from test_ledger import _append, _ledger_states_equal

ACCEPTANCE_SEED = 6
SIM_DAYS = 5
SIM_QUESTIONS_PER_DAY = 100
SIM_ROLLOUTS = 4


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- criterion 1: formula oracles ------------------------------------------------


def _oracle_reward(prob, label):
    if prob is None or prob < 0 or prob > 1:
        return -1.0
    return -abs(prob - label) ** 2


def _oracle_brier(pairs):
    return statistics.fmean(
        (p - z) ** 2 if (p is not None and 0 <= p <= 1) else 1.0 for p, z in pairs
    )


def _oracle_accuracy(pairs):
    hits = sum(
        1
        for p, z in pairs
        if p is not None and 0 <= p <= 1 and (1 if p >= 0.5 else 0) == z
    )
    return hits / len(pairs)


def _oracle_ece(pairs, bins=10):
    buckets = [[] for _ in range(bins)]
    for p, z in pairs:
        buckets[bins - 1 if p == 1.0 else int(p * bins)].append((p, z))
    total = 0.0
    for bucket in buckets:
        if bucket:
            gap = abs(
                statistics.fmean(z for _, z in bucket) - statistics.fmean(p for p, _ in bucket)
            )
            total += len(bucket) / len(pairs) * gap
    return total


def _oracle_f1(gold, predicted, is_binary):
    if is_binary and sum(predicted) != 1:
        return 0.0
    tp = sum(g and p for g, p in zip(gold, predicted))
    if sum(predicted) == 0 or tp == 0:
        return 0.0
    precision, recall = tp / sum(predicted), tp / sum(gold)
    return 2 * precision * recall / (precision + recall)


def _oracle_numeric(predicted, history, eps=1e-8):
    sigma = statistics.stdev(history)
    return max(0.0, 1.0 - ((predicted - history[-1]) / (3 * sigma + eps)) ** 2)


def _oracle_overall(parts):
    present = [p for p in parts if p is not None]
    return statistics.fmean(present)


def test_criterion_1_formula_oracles():
    rng = random.Random(20260302)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 15)
        pairs = [
            (None if rng.random() < 0.08 else round(rng.random(), 4), rng.randrange(2))
            for _ in range(n)
        ]
        preds = [ProbPrediction(p, z) for p, z in pairs]
        worst = max(worst, abs(brier(preds) - _oracle_brier(pairs)))
        worst = max(worst, abs(accuracy(preds) - _oracle_accuracy(pairs)))
        valid = [(p, z) for p, z in pairs if p is not None]
        if valid:
            worst = max(
                worst,
                abs(ece([ProbPrediction(p, z) for p, z in valid]) - _oracle_ece(valid)),
            )
        p0, z0 = pairs[0]
        worst = max(worst, abs(trajectory_reward(p0, z0) - _oracle_reward(p0, z0)))

        m = rng.randrange(2, 27)
        gold = [0] * m
        for i in rng.sample(range(m), rng.randrange(1, m + 1)):
            gold[i] = 1
        predicted = [rng.randrange(2) for _ in range(m)]
        is_binary = m == 2
        worst = max(
            worst,
            abs(
                f1_choice(ChoiceAnswer(tuple(gold), tuple(predicted)), is_binary)
                - _oracle_f1(gold, predicted, is_binary)
            ),
        )

        history = tuple(rng.uniform(-30, 90) for _ in range(8))
        guess = history[-1] + rng.uniform(-40, 40)
        worst = max(
            worst,
            abs(numeric_score(NumericAnswer(guess, history)) - _oracle_numeric(guess, history)),
        )

        parts = [rng.choice([None, rng.random()]) for _ in range(4)]
        if any(p is not None for p in parts):
            worst = max(worst, abs(overall(*parts) - _oracle_overall(parts)))
    elapsed = time.monotonic() - started
    _report(
        "1 formula-oracle agreement (1000 instances, max err "
        f"{worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-9 and elapsed < 10.0,
    )


# -- criteria 2 and 3: anchored arithmetic ------------------------------------------


def test_criterion_2_anchored_arithmetic():
    overall_value = overall(0.8125, 0.4031, 0.2078, 0.0517)
    multi_select = f1_choice(ChoiceAnswer(gold=(1, 0), predicted=(1, 1)), is_binary=True)
    _report(
        f"2 anchored arithmetic (overall={overall_value:.6f}, binary multi-select F1={multi_select})",
        abs(overall_value - 0.368775) <= 5e-5 and multi_select == 0.0,
    )


def test_criterion_3_numeric_worked_case():
    ours = numeric_score(NumericAnswer(predicted=10.0, history=tuple(map(float, range(1, 9)))))
    sigma = statistics.stdev(range(1, 9))
    independent = max(0.0, 1.0 - (2.0 / (3.0 * sigma + 1e-8)) ** 2)
    _report(
        f"3 numeric worked case (score={ours:.7f})",
        abs(ours - independent) <= 1e-6 and abs(ours - 0.9259259) <= 1e-6,
    )


# -- criterion 4: resampling ------------------------------------------------------------


def _exhaustive_min_spread(counts, target):
    budget = min(target, sum(counts.values()))
    best = None
    for combo in itertools.product(*[range(counts[d] + 1) for d in sorted(counts)]):
        if sum(combo) == budget:
            spread = max(combo) - min(combo)
            best = spread if best is None else min(best, spread)
    return best


def test_criterion_4_budget_allocation_and_determinism():
    rng = random.Random(41)
    ok = True
    for _ in range(200):
        counts = {f"d{i}": rng.randrange(1, 9) for i in range(rng.randrange(1, 6))}
        target = rng.randrange(0, 21)
        budgets = allocate_budget(counts, target)
        ok &= sum(budgets.values()) == min(target, sum(counts.values()))
        ok &= all(0 <= budgets[d] <= counts[d] for d in counts)
        ok &= all(
            budgets[e] <= budgets[d] + 1 or budgets[d] == counts[d]
            for d in budgets
            for e in budgets
        )
        ok &= max(budgets.values()) - min(budgets.values()) == _exhaustive_min_spread(
            counts, target
        )

    pairs = []
    for i in range(16):
        pairs.append(
            make_pair(
                qid=f"q-w{i:02d}",
                text=f"Will the highest temperature in Lima be between {60 + i}-{61 + i}°F on April 18?",
                description=None,
            )
        )
    for i in range(9):
        pairs.append(
            make_pair(
                qid=f"q-s{i}",
                text=f"Will Kestrel Rovers beat Solway Athletic in their match on April 1{i}?",
                description=None,
            )
        )
    embedder = HashingEmbedder(seed=2)
    outputs = {
        "\n".join(
            dumps_canonical(to_row(p))
            for p in resample(pairs, 12, DEFAULT_DOMAIN_RULES, embedder, seed=77)
        )
        for _ in range(3)
    }
    ok &= len(outputs) == 1
    _report("4 resampling allocation optimality + determinism", ok)


# -- criterion 5: two-phase ledger property ------------------------------------------------


def test_criterion_5_ledger_properties(tmp_path):
    from futureworld.domain import Outcome

    rng = random.Random(55)
    ok = True
    for trial in range(30):
        root = tmp_path / f"trial{trial}"
        ledger = TrajectoryLedger(root)
        labels: dict[str, int] = {}
        next_k: dict[str, int] = {}
        for _ in range(50):
            action = rng.choice(("append", "backfill", "discard", "replay"))
            qid = f"q-{rng.randrange(6)}"
            if action == "append":
                k = next_k.get(qid, 0)
                if k >= 5:
                    continue
                next_k[qid] = k + 1
                prob = rng.choice([None, round(rng.random(), 2)])
                _append(ledger, make_trajectory(tid=f"{qid}#k{k}", qid=qid, k=k, prob=prob))
            elif action == "backfill" and qid in next_k:
                label = labels.setdefault(qid, rng.randrange(2))
                outcome = Outcome(question_id=qid, label=label, resolved_at=T1)
                ledger.backfill(T0.date(), [outcome])
                ok &= ledger.backfill(T0.date(), [outcome]) == 0  # idempotent
            elif action == "discard" and qid in next_k:
                ledger.discard(T0.date(), [Unresolved(qid, "not_published")], T1)
            else:
                ok &= _ledger_states_equal(ledger, replay(root))

        ok &= _ledger_states_equal(ledger, replay(root))
        for t in ledger.all_trajectories():
            if t.status is TrajectoryStatus.RESOLVED:
                ok &= t.label in (0, 1) and -1.0 <= t.reward <= 0.0
            else:
                ok &= t.label is None and t.reward is None
        for group in ledger.export_training_batch(T0.date()):
            entries = group["trajectories"]
            statuses = {ledger.get(T0.date(), e["trajectory_id"]).status for e in entries}
            ok &= statuses == {TrajectoryStatus.RESOLVED}
            rewards = [e["reward"] for e in entries]
            advantages = [e["advantage"] for e in entries]
            if max(rewards) > min(rewards):
                mean = statistics.fmean(advantages)
                pop_std = math.sqrt(
                    math.fsum((a - mean) ** 2 for a in advantages) / len(advantages)
                )
                ok &= abs(mean) <= 1e-6 and abs(pop_std - 1.0) <= 1e-6
            else:
                ok &= advantages == [0.0] * len(advantages)
    _report("5 two-phase ledger interleaving properties", ok)


# -- criteria 6 and 8: closed-loop simulation ------------------------------------------------


@pytest.fixture(scope="module")
def timed_sim(tmp_path_factory):
    """The closed-loop simulation's orchestrator and result, and its wall time in seconds."""
    run_dir = tmp_path_factory.mktemp("acceptance-sim")
    config = CycleConfig(
        seed=ACCEPTANCE_SEED,
        agents=("oracle", "constant", "malformed"),
        questions_per_day=SIM_QUESTIONS_PER_DAY,
        rollouts_per_question=SIM_ROLLOUTS,
        event_rate=300,
        unresolved_rate=0.3565,
    )
    orch = Orchestrator(config, run_dir)
    started = time.monotonic()
    result = orch.simulate(SIM_DAYS)
    return orch, result, time.monotonic() - started


@pytest.fixture(scope="module")
def sim(timed_sim):
    orch, result, _ = timed_sim
    return orch, result


def test_criterion_6a_unresolved_fraction(sim):
    _, result = sim
    issued = sum(r.questions_issued for r in result.cycle_reports)
    unresolved = sum(r.unresolved_count for r in result.cycle_reports)
    fraction = unresolved / issued
    _report(
        f"6a unresolved fraction {fraction:.4f} within ±0.02 of 0.3565",
        abs(fraction - 0.3565) <= 0.02,
    )


def test_criterion_6b_oracle_beats_constant_daily(sim):
    _, result = sim
    daily_ok = all(
        r.metrics["oracle"]["brier"] < r.metrics["constant"]["brier"]
        for r in result.cycle_reports
    )
    constant_ok = all(
        abs(r.metrics["constant"]["brier"] - 0.25) <= 0.03 for r in result.cycle_reports
    )
    briers = [f"{r.metrics['oracle']['brier']:.3f}<{r.metrics['constant']['brier']:.3f}"
              for r in result.cycle_reports]
    _report(f"6b daily Brier oracle<constant ({', '.join(briers)})", daily_ok and constant_ok)


def test_criterion_6c_oracle_calibration(sim):
    orch, _ = sim
    ledger = orch.ledger_for("oracle")
    resolved = [
        t for t in ledger.all_trajectories() if t.status is TrajectoryStatus.RESOLVED
    ]
    preds = [ProbPrediction(t.final_probability, t.label) for t in resolved if t.final_probability is not None]
    value = ece(preds)
    _report(
        f"6c oracle ECE {value:.4f} < 0.05 over N={len(preds)} resolved predictions",
        value < 0.05 and len(preds) >= 300,
    )


def test_criterion_6d_malformed_floor_reward(sim):
    orch, _ = sim
    ledger = orch.ledger_for("malformed")
    resolved = [
        t for t in ledger.all_trajectories() if t.status is TrajectoryStatus.RESOLVED
    ]
    _report(
        f"6d malformed agent floor reward on all {len(resolved)} resolved rollouts",
        len(resolved) > 0 and all(t.reward == -1.0 for t in resolved),
    )


def test_criterion_6_runtime(timed_sim):
    _, _, seconds = timed_sim
    _report(
        f"6 runtime {seconds:.1f}s < 60s "
        f"(D={SIM_DAYS}, M={SIM_QUESTIONS_PER_DAY}, K={SIM_ROLLOUTS}, scripted agents)",
        seconds < 60.0,
    )


def test_criterion_8_non_leakage(sim):
    orch, result = sim
    # every description the day's candidates yield, issued or not
    config = orch.config
    descriptions: dict[str, str] = {}
    for offset in range(SIM_DAYS):
        day = config.start_day + timedelta(days=offset)
        issue_at = config.phase_datetime(day, config.issue_time)
        for event in fetch_all(config, day).events:
            try:
                pair = construct_pair(event, config.question_templates, issue_at)
            except TemplateError:
                continue
            if pair.description:
                descriptions[pair.question.id] = pair.description
    assert descriptions, "expected some generated descriptions to test against"

    ok = True
    checked_prompts = 0
    for agent in orch.config.agents:
        ledger = orch.ledger_for(agent)
        for t in ledger.all_trajectories():
            transcript = ledger.transcript(t.prediction_time.date(), t.trajectory_id)
            joined = "\n".join(turn.text for turn in transcript)
            ok &= "realized_label" not in joined
            ok &= '"label"' not in joined and '"status"' not in joined
            description = descriptions.get(t.question_id)
            if description is not None:
                prompt = transcript[0].text
                ok &= description not in prompt
                checked_prompts += 1
    _report(
        f"8 non-leakage over {checked_prompts} prompts and all transcripts",
        ok and checked_prompts > 0,
    )


# -- criterion 7: benchmark phase ----------------------------------------------------------------


def test_criterion_7_benchmark_caps_and_lag(tmp_path):
    config = CycleConfig(
        seed=9,
        agents=("oracle", "constant"),
        questions_per_day=10,
        event_rate=40,
        benchmark=BenchmarkSettings(
            caps=BenchmarkCaps(),
            pool=BenchmarkPoolConfig(
                binary_choice=9,
                simple_mc=16,
                difficult_mc=20,
                numeric=26,
                unresolved_rate=0.1,
                unresolved_rate_by_type={"numeric": 1.0},
            ),
        ),
    )
    orch = Orchestrator(config, tmp_path)
    ok = True
    start = config.start_day
    reports = [orch.run_benchmark_phase(start + timedelta(days=i)) for i in range(3)]
    for report in reports:
        counts = report["issued_by_type"]
        ok &= counts.get("binary_choice", 0) <= 5
        ok &= counts.get("simple_mc", 0) <= 10
        ok &= counts.get("difficult_mc", 0) <= 15
        ok &= counts.get("numeric", 0) <= 20
        ok &= report["issued"] <= 50
    ok &= reports[0]["scored_day"] is None
    ok &= reports[1]["scored_day"] is None
    ok &= reports[2]["scored_day"] == start.isoformat()  # two-day lag
    score = reports[2]["scores"]["oracle"]
    ok &= score["s_num"] is None  # type with no resolved questions is absent
    present = [score["s_bin"], score["s_smc"], score["s_dmc"]]
    ok &= all(v is not None for v in present)
    ok &= abs(score["s_overall"] - sum(present) / 3) <= 1e-12
    _report("7 benchmark caps, two-day lag, missing-type averaging", ok)


# -- criterion 9: restartability ------------------------------------------------------------------


def test_criterion_9_restartability(tmp_path):
    config = CycleConfig(
        seed=17, agents=("oracle", "constant"), questions_per_day=30, event_rate=90
    )
    day = config.start_day

    straight = Orchestrator(config, tmp_path / "straight")
    straight.run_issue_phase(day)
    straight.run_resolve_phase(day)

    interrupted = tmp_path / "interrupted"
    phase_one = Orchestrator(config, interrupted)
    phase_one.run_issue_phase(day)
    del phase_one  # process killed between phases
    phase_two = Orchestrator(config, interrupted)  # fresh process replays the logs
    phase_two.run_issue_phase(day)
    phase_two.run_resolve_phase(day)

    ok = True
    for agent in config.agents:
        lhs = sorted((tmp_path / "straight" / "ledgers" / agent).glob("ledger-*.jsonl"))
        rhs = sorted((interrupted / "ledgers" / agent).glob("ledger-*.jsonl"))
        ok &= [p.name for p in lhs] == [p.name for p in rhs]
        ok &= all(a.read_bytes() == b.read_bytes() for a, b in zip(lhs, rhs))
        ok &= _ledger_states_equal(
            replay(tmp_path / "straight" / "ledgers" / agent),
            replay(interrupted / "ledgers" / agent),
        )
    _report("9 restart between phases reproduces the ledger byte-for-byte", ok)
