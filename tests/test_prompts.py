from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from futureworld.prompts import (
    BENCHMARK_PROMPTS,
    PREDICTION_PROMPT,
    BenchmarkCaps,
    BenchmarkQuestion,
    PromptError,
    render_benchmark_prompt,
    render_prediction_prompt,
    select_daily_benchmark,
)

from conftest import T1, make_pair, make_question

PROMPTS = {"probabilistic": PREDICTION_PROMPT, **BENCHMARK_PROMPTS}


def _bench(qid: str, qtype: str, n_options: int = 0, history=()) -> BenchmarkQuestion:
    return BenchmarkQuestion(
        id=qid,
        qtype=qtype,
        text=f"Benchmark question {qid}?",
        options=tuple(f"Option {i}" for i in range(n_options)),
        resolution_time=T1,
        resolver_key="benchmark",
        history=history,
    )


def test_default_templates_carry_placeholders():
    assert set(BENCHMARK_PROMPTS) == {"binary_choice", "simple_mc", "difficult_mc", "numeric"}
    for name, body in PROMPTS.items():
        assert body.count("<QUESTION>") == 1, name
        choice = name in ("binary_choice", "simple_mc", "difficult_mc")
        assert body.count("<OPTIONS>") == (1 if choice else 0), name


def test_prompt_wording_is_pinned():
    # The prediction prompt is the first turn of every stored trajectory;
    # a change to any wording must be a deliberate edit of these digests.
    digests = {name: hashlib.sha256(body.encode("utf-8")).hexdigest()[:16] for name, body in PROMPTS.items()}
    assert digests == {
        "probabilistic": "f2628a46d30d5da0",
        "binary_choice": "cc1467a552cb133d",
        "simple_mc": "b459914f1b976c7e",
        "difficult_mc": "7dcdd6045bfd6438",
        "numeric": "07fe8dcb55d2fe6c",
    }


def test_prediction_prompt_inserts_question_verbatim():
    q = make_question()
    prompt = render_prediction_prompt(q)
    assert q.text in prompt
    assert render_prediction_prompt(q) == prompt


def test_prediction_prompt_never_contains_description():
    pair = make_pair(description="A very distinctive background paragraph, station xyz-17.")
    prompt = render_prediction_prompt(pair.question)
    assert pair.description not in prompt
    assert "xyz-17" not in prompt


def test_benchmark_prompt_enumerates_options_in_order():
    bq = BenchmarkQuestion(
        id="b1",
        qtype="binary_choice",
        text="Will the ferry run tomorrow?",
        options=("Yes", "No"),
        resolution_time=T1,
        resolver_key="benchmark",
    )
    prompt = render_benchmark_prompt(bq)
    assert "A. Yes\nB. No" in prompt
    assert bq.text in prompt


def test_option_count_bounds_enforced():
    with pytest.raises(PromptError):
        _bench("b2", "difficult_mc", n_options=27)
    with pytest.raises(PromptError):
        _bench("b3", "simple_mc", n_options=2)
    with pytest.raises(PromptError):
        _bench("b4", "binary_choice", n_options=3)


def test_numeric_prompt_has_no_options_block():
    bq = _bench("b5", "numeric", history=(1.0,) * 7)
    prompt = render_benchmark_prompt(bq)
    assert "<OPTIONS>" not in prompt
    assert "A." not in prompt


# -- daily selection -------------------------------------------------------------


def _pool(per_type: int) -> list[BenchmarkQuestion]:
    pool = []
    for qtype, n_options in (("binary_choice", 2), ("simple_mc", 3), ("difficult_mc", 6), ("numeric", 0)):
        for i in range(per_type):
            history = (1.0,) * 7 if qtype == "numeric" else ()
            pool.append(_bench(f"{qtype}-{i:03d}", qtype, n_options, history))
    return pool


def test_selection_hits_caps_with_a_rich_pool():
    selected = select_daily_benchmark(_pool(100), BenchmarkCaps(), seed=1)
    by_type = {}
    for q in selected:
        by_type[q.qtype] = by_type.get(q.qtype, 0) + 1
    assert by_type == {"binary_choice": 5, "simple_mc": 10, "difficult_mc": 15, "numeric": 20}
    assert len(selected) == 50


def test_selection_respects_pool_capacity():
    pool = [q for q in _pool(100) if q.qtype != "numeric"]
    pool += [_bench(f"numeric-{i}", "numeric", history=(1.0,) * 7) for i in range(2)]
    selected = select_daily_benchmark(pool, BenchmarkCaps(), seed=1)
    assert sum(1 for q in selected if q.qtype == "numeric") == 2


def test_selection_is_seed_deterministic():
    pool = _pool(40)
    first = [q.id for q in select_daily_benchmark(pool, BenchmarkCaps(), seed=7)]
    second = [q.id for q in select_daily_benchmark(pool, BenchmarkCaps(), seed=7)]
    third = [q.id for q in select_daily_benchmark(pool, BenchmarkCaps(), seed=8)]
    assert first == second
    assert first != third


def test_selection_trims_to_day_total_when_caps_oversubscribe():
    caps = BenchmarkCaps(binary_choice=8, simple_mc=20, difficult_mc=20, numeric=20, total=50)
    selected = select_daily_benchmark(_pool(60), caps, seed=2)
    assert len(selected) <= 50


def test_selection_trims_the_surplus_in_reverse_type_order():
    # 67 selected for a total of 50: numeric goes first, then difficult_mc,
    # so all 40 binary questions stay although theirs is the largest cap.
    caps = BenchmarkCaps(binary_choice=40, simple_mc=10, difficult_mc=15, numeric=2, total=50)
    selected = select_daily_benchmark(_pool(60), caps, seed=2)
    assert Counter(q.qtype for q in selected) == {"binary_choice": 40, "simple_mc": 10}
    # With room for 60, difficult_mc keeps its 10 lowest ids of the 15 it drew.
    roomier = select_daily_benchmark(_pool(60), replace(caps, total=60), seed=2)
    drawn = [q.id for q in select_daily_benchmark(_pool(60), replace(caps, total=67), seed=2)]
    difficult = [qid for qid in drawn if qid.startswith("difficult_mc")]
    kept = [qid for qid in drawn if not qid.startswith("numeric") and qid not in difficult[10:]]
    assert [q.id for q in roomier] == kept
