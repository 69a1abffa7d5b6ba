from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from futureworld.domain import OTHER_DOMAIN
from futureworld.jsonl import dumps_canonical, to_row
from futureworld.embedding import HashingEmbedder
from futureworld.qpipeline import (
    DEFAULT_DOMAIN_RULES,
    DEFAULT_TEMPLATES,
    DomainRule,
    JUDGE_UNAVAILABLE,
    MeaningfulJudge,
    ResolvableJudge,
    SafeJudge,
    TemplateError,
    allocate_budget,
    apply_filters,
    classify_domain,
    construct_pair,
    default_judges,
    embed_pair,
    resample,
    resample_domain,
)

from conftest import T0, make_event, make_pair

EMBEDDER = HashingEmbedder(seed=0)


# -- construct_pair ------------------------------------------------------------


def test_construct_temperature_question_reads_naturally():
    event = make_event(city="Dallas", band="84-85°F", date="April 18")
    pair = construct_pair(event, DEFAULT_TEMPLATES, T0)
    assert pair.question.text == "Will the highest temperature in Dallas be between 84-85°F on April 18?"
    assert pair.question.resolver_metadata["identifier"] == "evt-001"
    assert pair.description is not None


def test_construct_empty_payload_is_missing_field_error():
    event = make_event()
    object.__setattr__(event, "payload", {"template": "temperature"})
    with pytest.raises(TemplateError):
        construct_pair(event, DEFAULT_TEMPLATES, T0)


def test_construct_unknown_template_error():
    event = make_event(template="horoscope")
    with pytest.raises(TemplateError):
        construct_pair(event, DEFAULT_TEMPLATES, T0)


def test_construct_is_deterministic():
    event = make_event()
    a = construct_pair(event, DEFAULT_TEMPLATES, T0)
    b = construct_pair(event, DEFAULT_TEMPLATES, T0)
    assert a == b


def test_construct_matches_template_by_fields_when_unnamed():
    event = make_event()
    payload = {k: v for k, v in event.payload.items() if k != "template"}
    object.__setattr__(event, "payload", payload)
    pair = construct_pair(event, DEFAULT_TEMPLATES, T0)
    assert "Dallas" in pair.question.text


# -- filters ---------------------------------------------------------------------


def test_all_judges_eligible_keeps_pair():
    decision = apply_filters(make_pair(), default_judges())
    assert decision.keep
    assert len(decision.verdicts) == 3
    assert {v.filter_name for v in decision.verdicts} == {"resolvable", "meaningful", "safe"}


def test_safety_flag_drops_pair_and_records_all_verdicts():
    pair = make_pair(text="Will the storm near Tampa cause casualties on April 18?")
    decision = apply_filters(pair, default_judges())
    assert not decision.keep
    assert len(decision.verdicts) == 3
    safe = next(v for v in decision.verdicts if v.filter_name == "safe")
    assert not safe.eligible and "casualties" in safe.reason


class _BrokenJudge:
    name = "meaningful"

    def judge(self, question, description):
        raise TimeoutError("judge endpoint unreachable")


def test_judge_failure_is_a_conservative_drop():
    judges = [ResolvableJudge(), _BrokenJudge(), SafeJudge()]
    decision = apply_filters(make_pair(), judges)
    assert not decision.keep
    assert JUDGE_UNAVAILABLE in decision.drop_reasons


def test_filters_require_one_judge_per_criterion():
    with pytest.raises(ValueError):
        apply_filters(make_pair(), [ResolvableJudge(), SafeJudge()])


def test_meaningful_judge_rejects_fragments():
    pair = make_pair(text="Rain soon?")
    eligible, _ = MeaningfulJudge().judge(pair.question, None)
    assert not eligible


# -- classify_domain --------------------------------------------------------------


def test_classify_first_matching_rule_wins():
    pair = make_pair(text="Will the temperature match expectations in Dallas on April 18?")
    rules = (
        DomainRule("weather", ("temperature",)),
        DomainRule("sports", ("match",)),
    )
    assert classify_domain(pair, rules) == "weather"
    assert classify_domain(pair, tuple(reversed(rules))) == "sports"


def test_classify_fallback_to_other():
    pair = make_pair(text="Will the committee publish the霜 report by April 18?", description=None)
    assert classify_domain(pair, DEFAULT_DOMAIN_RULES) == OTHER_DOMAIN


def test_classify_requires_rules():
    with pytest.raises(ValueError):
        classify_domain(make_pair(), ())


# -- allocate_budget ------------------------------------------------------------------


def brute_force_min_spread(counts: dict[str, int], target: int) -> int:
    """Exhaustive minimizer of max-min over feasible allocations."""
    budget = min(target, sum(counts.values()))
    domains = sorted(counts)
    best = None
    for combo in itertools.product(*[range(counts[d] + 1) for d in domains]):
        if sum(combo) != budget:
            continue
        spread = max(combo) - min(combo)
        best = spread if best is None else min(best, spread)
    return best


def test_allocate_spec_cases():
    a = allocate_budget({"a": 10, "b": 2, "c": 10}, 6)
    assert {d: m for d, (_, m) in a.per_domain.items()} == {"a": 2, "b": 2, "c": 2}
    b = allocate_budget({"a": 1, "b": 10, "c": 10}, 5)
    assert {d: m for d, (_, m) in b.per_domain.items()} == {"a": 1, "b": 2, "c": 2}
    c = allocate_budget({"a": 3}, 10)
    assert {d: m for d, (_, m) in c.per_domain.items()} == {"a": 3}


def test_allocate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        allocate_budget({"a": 0}, 3)
    with pytest.raises(ValueError):
        allocate_budget({"a": 3}, -1)


def _check_allocation_invariants(counts, target, allocation):
    budgets = {d: m for d, (_, m) in allocation.per_domain.items()}
    assert sum(budgets.values()) == min(target, sum(counts.values()))
    for d, m in budgets.items():
        assert 0 <= m <= counts[d]
    for d in budgets:
        for e in budgets:
            assert budgets[e] <= budgets[d] + 1 or budgets[d] == counts[d]


def test_allocate_water_filling_matches_exhaustive_minimizer():
    rng = random.Random(99)
    for _ in range(200):
        n_domains = rng.randrange(1, 6)
        counts = {f"d{i}": rng.randrange(1, 9) for i in range(n_domains)}
        target = rng.randrange(0, 21)
        allocation = allocate_budget(counts, target)
        _check_allocation_invariants(counts, target, allocation)
        budgets = [m for _, m in allocation.per_domain.values()]
        assert max(budgets) - min(budgets) == brute_force_min_spread(counts, target)


def test_allocate_invariants_hold_on_larger_random_instances():
    rng = random.Random(7)
    for _ in range(200):
        counts = {f"d{i}": rng.randrange(1, 400) for i in range(rng.randrange(1, 12))}
        target = rng.randrange(0, 1200)
        _check_allocation_invariants(counts, target, allocate_budget(counts, target))


# -- embedding ----------------------------------------------------------------------


def test_embed_identical_pairs_identical_vectors():
    a = embed_pair(make_pair(), EMBEDDER)
    b = embed_pair(make_pair(), EMBEDDER)
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    rng = random.Random(12)
    for _ in range(25):
        text = "".join(rng.choice("abcdefg hij") for _ in range(rng.randrange(0, 60)))
        pair = make_pair(text=(text or "x") + " will it happen on April 18?", description=None)
        vec = embed_pair(pair, EMBEDDER)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_description_changes_embedding():
    with_desc = embed_pair(make_pair(description="A long background paragraph."), EMBEDDER)
    without = embed_pair(make_pair(description=None), EMBEDDER)
    assert not np.array_equal(with_desc, without)


# -- resample_domain --------------------------------------------------------------------


def _blob_pairs():
    weather = [
        make_pair(
            qid=f"q-w{i}",
            text=f"Will the highest temperature in Dallas be between 84-85°F on April 1{i}?",
            description=None,
        )
        for i in range(3)
    ]
    sports = [
        make_pair(
            qid=f"q-s{i}",
            text=f"Will Rivergate FC beat Harbor City in their match on May 2{i}?",
            description=None,
        )
        for i in range(3)
    ]
    return weather, sports


def test_two_blob_embedding_geometry_and_selection():
    weather, sports = _blob_pairs()
    pairs = weather + sports
    vectors = [embed_pair(p, EMBEDDER) for p in pairs]
    within = []
    between = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            dist = float(np.linalg.norm(vectors[i] - vectors[j]))
            same_blob = (i < 3) == (j < 3)
            (within if same_blob else between).append(dist)
    assert max(within) < min(between)  # blobs verified by the pairwise-distance oracle

    selected = resample_domain(pairs, 2, EMBEDDER, seed=5)
    assert len(selected) == 2
    kinds = {p.pair_id[2] for p in selected}
    assert kinds == {"w", "s"}


def test_resample_domain_identity_and_k1():
    weather, sports = _blob_pairs()
    pairs = weather + sports
    assert resample_domain(pairs, len(pairs), EMBEDDER, seed=1) == pairs
    assert resample_domain(pairs, 0, EMBEDDER, seed=1) == []
    single = resample_domain(pairs, 1, EMBEDDER, seed=1)
    points = np.stack([embed_pair(p, EMBEDDER) for p in pairs])
    centroid = points.mean(axis=0)
    dists = np.linalg.norm(points - centroid, axis=1)
    expected = pairs[int(np.argmin(dists))]
    assert single == [expected]


def test_resample_domain_budget_over_capacity_is_an_error():
    weather, _ = _blob_pairs()
    with pytest.raises(ValueError):
        resample_domain(weather, 4, EMBEDDER, seed=0)


# -- resample (full stage) ------------------------------------------------------------


def _skewed_pairs():
    pairs = []
    for i in range(18):
        pairs.append(
            make_pair(
                qid=f"q-w{i:02d}",
                text=f"Will the highest temperature in Oslo be between {40 + i}-{41 + i}°F on April 18?",
                description=None,
            )
        )
    for i in range(12):
        pairs.append(
            make_pair(
                qid=f"q-s{i:02d}",
                text=f"Will Braxton Town beat Eastmoor SC in their match on April 1{i % 9}?",
                description=None,
            )
        )
    return pairs


def test_resample_balances_skewed_domains():
    pairs = _skewed_pairs()
    out = resample(pairs, 20, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=3)
    assert len(out) == 20
    domains = [p.question.domain for p in out]
    assert domains.count("weather") == 10
    assert domains.count("sports") == 10


def test_resample_zero_target_and_capacity_cap():
    pairs = _skewed_pairs()
    assert resample(pairs, 0, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=3) == []
    everything = resample(pairs, 500, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=3)
    assert len(everything) == len(pairs)


def test_resample_is_deterministic_across_runs():
    pairs = _skewed_pairs()
    serialize = lambda out: "\n".join(dumps_canonical(to_row(p)) for p in out)
    runs = {serialize(resample(pairs, 11, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=8)) for _ in range(3)}
    assert len(runs) == 1


def test_resample_is_a_projection():
    pairs = _skewed_pairs()
    once = resample(pairs, 14, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=2)
    twice = resample(once, 14, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=2)
    assert [p.pair_id for p in once] == [p.pair_id for p in twice]


def test_resample_never_selects_filtered_pairs():
    pairs = _skewed_pairs()
    judges = default_judges()
    kept = [p for p in pairs if apply_filters(p, judges).keep]
    out = resample(kept, 10, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=4)
    kept_ids = {p.pair_id for p in kept}
    assert all(p.pair_id in kept_ids for p in out)
