from __future__ import annotations

import dataclasses
import itertools
import random

import numpy as np
import pytest

from futureworld.domain import OTHER_DOMAIN, QuestionDescriptionPair
from futureworld.jsonl import dumps_canonical, to_row
from futureworld.embedding import HashingEmbedder
from futureworld.qpipeline import (
    DEFAULT_BLOCKLIST,
    DEFAULT_DOMAIN_RULES,
    DEFAULT_TEMPLATES,
    DomainRule,
    TemplateError,
    allocate_budget,
    apply_filters,
    classify_domain,
    construct_pair,
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


def _without_identifier() -> QuestionDescriptionPair:
    pair = make_pair()
    question = dataclasses.replace(pair.question, resolver_metadata={})
    return dataclasses.replace(pair, question=question)


@pytest.mark.parametrize(
    "pair, blocklist, reasons",
    [
        (make_pair(), DEFAULT_BLOCKLIST, []),
        (make_pair(resolver_key=""), DEFAULT_BLOCKLIST, ["no resolver registered for this question"]),
        (_without_identifier(), DEFAULT_BLOCKLIST, ["no identifier to match an outcome record against"]),
        (make_pair(text="Will it rain in Dallas on April 18."), DEFAULT_BLOCKLIST, ["not phrased as a question"]),
        (make_pair(text="Rain soon?"), DEFAULT_BLOCKLIST, ["too short to describe a concrete outcome"]),
        (
            make_pair(text="Will the storm near Tampa cause casualties on April 18?"),
            DEFAULT_BLOCKLIST,
            ["blocklisted term: casualties"],
        ),
        (
            make_pair(description="Officials reported a hostage situation downtown."),
            DEFAULT_BLOCKLIST,
            ["blocklisted term: hostage"],
        ),
        # the reason names the term as configured; the match ignores case
        (make_pair(), ("Tampa", "DALLAS", "dallas"), ["blocklisted term: DALLAS"]),
        (make_pair(text="Will the storm near Tampa cause casualties on April 18?"), (), []),
        # one reason per criterion, in the order resolvable, meaningful, safe
        (
            make_pair(resolver_key="", text="Hostage casualties soon?"),
            DEFAULT_BLOCKLIST,
            [
                "no resolver registered for this question",
                "too short to describe a concrete outcome",
                "blocklisted term: casualties",
            ],
        ),
    ],
    ids=[
        "eligible", "no-resolver", "no-identifier", "not-a-question", "too-short",
        "blocklisted-text", "blocklisted-description-only", "custom-blocklist",
        "empty-blocklist", "one-reason-per-criterion",
    ],
)
def test_apply_filters_gives_each_criterions_reason(pair, blocklist, reasons):
    decision = apply_filters(pair, blocklist)
    assert decision.drop_reasons == reasons
    assert decision.keep is (not reasons)
    if blocklist == DEFAULT_BLOCKLIST:
        assert apply_filters(pair).drop_reasons == reasons


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
    assert allocate_budget({"a": 10, "b": 2, "c": 10}, 6) == {"a": 2, "b": 2, "c": 2}
    assert allocate_budget({"a": 1, "b": 10, "c": 10}, 5) == {"a": 1, "b": 2, "c": 2}
    assert allocate_budget({"a": 3}, 10) == {"a": 3}
    # budgets come in sorted domain order whatever the order of the counts
    assert list(allocate_budget({"c": 4, "a": 4, "b": 4}, 5)) == ["a", "b", "c"]


def test_allocate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        allocate_budget({"a": 0}, 3)
    with pytest.raises(ValueError):
        allocate_budget({"a": 3}, -1)


def _check_allocation_invariants(counts, target, budgets):
    assert budgets.keys() == counts.keys()
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
        budgets = allocate_budget(counts, target)
        _check_allocation_invariants(counts, target, budgets)
        assert max(budgets.values()) - min(budgets.values()) == brute_force_min_spread(counts, target)


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
    kinds = {p.question.id[2] for p in selected}
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
    assert [p.question.id for p in once] == [p.question.id for p in twice]


def test_resample_never_selects_filtered_pairs():
    pairs = _skewed_pairs()
    kept = [p for p in pairs if apply_filters(p).keep]
    out = resample(kept, 10, DEFAULT_DOMAIN_RULES, EMBEDDER, seed=4)
    kept_ids = {p.question.id for p in kept}
    assert all(p.question.id in kept_ids for p in out)
