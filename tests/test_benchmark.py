from __future__ import annotations

from datetime import date, datetime, timezone

import pytest

from futureworld.benchmark import (
    BenchmarkAnswer,
    BenchmarkPoolConfig,
    DegenerateAnswerer,
    SeededAnswerer,
    generate_benchmark_pool,
    score_benchmark_batch,
)
from futureworld.jsonl import to_row
from futureworld.prompts import BenchmarkCaps, select_daily_benchmark

DAY = date(2026, 3, 2)
RESOLVE_AT = datetime(2026, 3, 3, 20, 30, tzinfo=timezone.utc)


def test_pool_generation_counts_and_determinism():
    config = BenchmarkPoolConfig()
    questions, gold = generate_benchmark_pool(DAY, config, seed=3, resolve_at=RESOLVE_AT)
    by_type = {}
    for q in questions:
        by_type[q.qtype] = by_type.get(q.qtype, 0) + 1
    assert by_type == {
        "binary_choice": config.binary_choice,
        "simple_mc": config.simple_mc,
        "difficult_mc": config.difficult_mc,
        "numeric": config.numeric,
    }
    again, _ = generate_benchmark_pool(DAY, config, seed=3, resolve_at=RESOLVE_AT)
    assert [to_row(q) for q in questions] == [to_row(q) for q in again]
    assert len(gold) == len(questions)


def test_numeric_questions_carry_seven_known_values():
    questions, gold = generate_benchmark_pool(
        DAY, BenchmarkPoolConfig(), seed=1, resolve_at=RESOLVE_AT
    )
    gold_by_id = {g.question_id: g for g in gold}
    for q in questions:
        if q.qtype == "numeric":
            assert len(q.history) == 7
            assert gold_by_id[q.id].value is not None


def test_gold_options_are_valid_indices():
    questions, gold = generate_benchmark_pool(
        DAY, BenchmarkPoolConfig(), seed=2, resolve_at=RESOLVE_AT
    )
    by_id = {q.id: q for q in questions}
    for record in gold:
        q = by_id[record.question_id]
        if q.qtype == "numeric":
            continue
        assert record.gold_options
        assert all(0 <= i < len(q.options) for i in record.gold_options)
        if q.qtype == "binary_choice":
            assert len(record.gold_options) == 1


def test_selection_from_generated_pool_respects_caps():
    questions, _ = generate_benchmark_pool(
        DAY,
        BenchmarkPoolConfig(binary_choice=9, simple_mc=20, difficult_mc=30, numeric=40),
        seed=4,
        resolve_at=RESOLVE_AT,
    )
    selected = select_daily_benchmark(questions, BenchmarkCaps(), seed=1)
    counts = {}
    for q in selected:
        counts[q.qtype] = counts.get(q.qtype, 0) + 1
    assert counts == {"binary_choice": 5, "simple_mc": 10, "difficult_mc": 15, "numeric": 20}


def _score_setup(unresolved_type=None):
    config = BenchmarkPoolConfig(
        binary_choice=4, simple_mc=4, difficult_mc=4, numeric=4, unresolved_rate=0.0,
        unresolved_rate_by_type={unresolved_type: 1.0} if unresolved_type else {},
    )
    questions, gold = generate_benchmark_pool(DAY, config, seed=5, resolve_at=RESOLVE_AT)
    gold_map = {g.question_id: g for g in gold}
    answerer = SeededAnswerer(name="tester", skill=0.8, seed=6, gold=gold_map)
    answers = {q.id: answerer.answer(q) for q in questions}
    return questions, answers, gold_map


def test_scoring_produces_all_four_type_scores():
    questions, answers, gold = _score_setup()
    report = score_benchmark_batch(questions, answers, gold)
    for value in (report.s_bin, report.s_smc, report.s_dmc, report.s_num):
        assert value is not None and 0.0 <= value <= 1.0
    expected = (report.s_bin + report.s_smc + report.s_dmc + report.s_num) / 4
    assert report.s_overall == pytest.approx(expected)


def test_unresolved_type_is_absent_and_overall_averages_the_rest():
    questions, answers, gold = _score_setup(unresolved_type="numeric")
    report = score_benchmark_batch(questions, answers, gold)
    assert report.s_num is None
    assert report.s_overall == pytest.approx((report.s_bin + report.s_smc + report.s_dmc) / 3)
    assert "numeric" not in report.n_by_type
    assert "--" in report.render_text()


def test_perfect_answerer_scores_one():
    questions, _, gold = _score_setup()
    answerer = SeededAnswerer(name="perfect", skill=1.0, seed=1, gold=gold)
    answers = {q.id: answerer.answer(q) for q in questions}
    # exact numeric predictions need the noise suppressed
    answers = {
        qid: BenchmarkAnswer(qid, a.qtype, a.selected, gold[qid].value if a.qtype == "numeric" else a.value)
        for qid, a in answers.items()
    }
    report = score_benchmark_batch(questions, answers, gold)
    assert report.s_bin == 1.0 and report.s_smc == 1.0 and report.s_dmc == 1.0
    assert report.s_num == pytest.approx(1.0)
    assert report.s_overall == pytest.approx(1.0)


def test_degenerate_answers_score_zero_on_choices():
    questions, _, gold = _score_setup()
    answerer = DegenerateAnswerer()
    answers = {q.id: answerer.answer(q) for q in questions}
    report = score_benchmark_batch(questions, answers, gold)
    assert report.s_bin == 0.0  # multi-select on binary
    assert report.s_smc == 0.0  # empty selection
    assert report.s_dmc == 0.0


def test_unanswered_questions_are_excluded():
    questions, answers, gold = _score_setup()
    sparse = {qid: a for qid, a in answers.items() if a.qtype == "binary_choice"}
    report = score_benchmark_batch(questions, sparse, gold)
    assert report.s_bin is not None
    assert report.s_smc is None and report.s_dmc is None and report.s_num is None
    assert report.s_overall == pytest.approx(report.s_bin)
