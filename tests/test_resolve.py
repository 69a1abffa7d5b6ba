from __future__ import annotations

from datetime import date, timedelta, timezone

import pytest

from futureworld.domain import Outcome
from futureworld.jsonl import dumps_canonical
from futureworld.sources import generate_synthetic_world
from futureworld.resolve import (
    FileLookupResolver,
    REASON_MATCH_FAILED,
    REASON_NOT_PUBLISHED,
    REASON_POSTPONED,
    REASON_RESOLVER_ERROR,
    ResolutionRecord,
    SyntheticTruthResolver,
    Unresolved,
    resolve_batch,
    resolve_question,
)

from conftest import T1, make_question

DAY = date(2026, 3, 2)
NOW = T1


def _world(n=100, unresolved_rate=0.0, seed=1):
    return generate_synthetic_world(DAY, NOW, timezone.utc, seed, n, unresolved_rate)


def _truth_resolver(world):
    return SyntheticTruthResolver(truth={row["identifier"]: row for row in world.truth_rows})


def _question_for(event, qid=None):
    return make_question(
        qid=qid or f"q-{event.identifier}",
        identifier=event.identifier,
        resolver_key="synthetic",
    )


def test_synthetic_truth_passthrough():
    world = _world()
    registry = {"synthetic": _truth_resolver(world)}
    result = resolve_question(_question_for(world.events[0]), registry, NOW)
    assert isinstance(result, Outcome)
    assert result.label == world.truth_rows[0]["label"]


def test_unretrievable_event_is_not_published():
    world = _world(unresolved_rate=1.0)
    row = next(r for r in world.truth_rows if r["unresolved_reason"] == "not_published")
    event = world.events[world.truth_rows.index(row)]
    registry = {"synthetic": _truth_resolver(world)}
    result = resolve_question(_question_for(event), registry, NOW)
    assert result == Unresolved(f"q-{event.identifier}", REASON_NOT_PUBLISHED)


def test_postponed_event_reports_postponed():
    world = _world(unresolved_rate=1.0)
    row = next(r for r in world.truth_rows if r["unresolved_reason"] == REASON_POSTPONED)
    event = world.events[world.truth_rows.index(row)]
    registry = {"synthetic": _truth_resolver(world)}
    result = resolve_question(_question_for(event), registry, NOW)
    assert result.reason == REASON_POSTPONED


class _MisroutedResolver:
    def resolve(self, question):
        return ResolutionRecord(identifier="some-other-event", label=1)


def test_identifier_mismatch_is_match_failed():
    question = make_question(identifier="evt-77", resolver_key="synthetic")
    result = resolve_question(question, {"synthetic": _MisroutedResolver()}, NOW)
    assert result.reason == REASON_MATCH_FAILED


def test_unknown_resolver_key_is_resolver_error():
    question = make_question(resolver_key="akvault")
    result = resolve_question(question, {}, NOW)
    assert result.reason == REASON_RESOLVER_ERROR


class _CrashingResolver:
    def resolve(self, question):
        raise RuntimeError("backend offline")


def test_resolver_exception_is_resolver_error():
    result = resolve_question(make_question(), {"synthetic": _CrashingResolver()}, NOW)
    assert result.reason == REASON_RESOLVER_ERROR


def test_premature_call_is_not_published():
    world = _world()
    registry = {"synthetic": _truth_resolver(world)}
    question = _question_for(world.events[0])
    early = question.resolution_time - timedelta(hours=2)
    result = resolve_question(question, registry, early)
    assert result.reason == REASON_NOT_PUBLISHED


class _FabricatingResolver:
    def resolve(self, question):
        return ResolutionRecord(identifier=question.resolver_metadata["identifier"], label=3)


def test_non_binary_label_never_becomes_an_outcome():
    result = resolve_question(make_question(), {"synthetic": _FabricatingResolver()}, NOW)
    assert isinstance(result, Unresolved)


# -- resolve_batch -----------------------------------------------------------------


def test_batch_all_resolvable():
    world = _world(n=100, unresolved_rate=0.0)
    registry = {"synthetic": _truth_resolver(world)}
    questions = [_question_for(e) for e in world.events]
    result = resolve_batch(questions, registry, NOW)
    assert len(result.outcomes) == 100
    assert result.unresolved == []


def test_batch_partition_is_total_and_fraction_tracks_rate():
    world = _world(n=4000, unresolved_rate=0.3565, seed=9)
    registry = {"synthetic": _truth_resolver(world)}
    questions = [_question_for(e) for e in world.events]
    result = resolve_batch(questions, registry, NOW)
    assert len(result.outcomes) + len(result.unresolved) == 4000
    assert abs(len(result.unresolved) / 4000 - 0.3565) <= 0.02
    reasons = result.unresolved_reasons()
    assert set(reasons) <= {REASON_NOT_PUBLISHED, REASON_POSTPONED}


def test_batch_premature_question_does_not_abort_others():
    world = _world(n=5)
    registry = {"synthetic": _truth_resolver(world)}
    questions = [_question_for(e) for e in world.events]
    late = make_question(qid="q-late", identifier="evt-none")
    object.__setattr__(late, "resolution_time", NOW + timedelta(days=2))
    result = resolve_batch(questions + [late], registry, NOW)
    assert len(result.outcomes) == 5
    assert result.unresolved == [Unresolved("q-late", REASON_NOT_PUBLISHED)]


def test_determinism_same_world_same_partition():
    world = _world(n=300, unresolved_rate=0.4, seed=4)
    registry = {"synthetic": _truth_resolver(world)}
    questions = [_question_for(e) for e in world.events]
    a = resolve_batch(questions, registry, NOW)
    b = resolve_batch(questions, registry, NOW)
    assert a.outcomes == b.outcomes
    assert a.unresolved == b.unresolved


def test_resolution_is_read_only_for_the_ledger():
    # the batch result carries outcomes only; applying them is the caller's job
    world = _world(n=3)
    registry = {"synthetic": _truth_resolver(world)}
    questions = [_question_for(e) for e in world.events]
    result = resolve_batch(questions, registry, NOW)
    assert all(isinstance(o, Outcome) for o in result.outcomes)


# -- file lookup resolver ----------------------------------------------------------


def test_file_lookup_resolver_round_trip(tmp_path):
    path = tmp_path / "answers.jsonl"
    rows = [
        {"resolver_key": "filedb", "identifier": "evt-001", "label": 1,
         "published_at": "2026-03-03T18:00:00+00:00"},
        {"resolver_key": "filedb", "identifier": "evt-002", "label": 0,
         "published_at": "2026-03-09T18:00:00+00:00"},
    ]
    path.write_text("\n".join(dumps_canonical(r) for r in rows) + "\n")
    registry = {"filedb": FileLookupResolver(path=path)}

    published = make_question(qid="q-evt-001", identifier="evt-001", resolver_key="filedb")
    outcome = resolve_question(published, registry, NOW)
    assert isinstance(outcome, Outcome) and outcome.label == 1

    future = make_question(qid="q-evt-002", identifier="evt-002", resolver_key="filedb")
    assert resolve_question(future, registry, NOW).reason == REASON_NOT_PUBLISHED

    missing = make_question(qid="q-evt-404", identifier="evt-404", resolver_key="filedb")
    assert resolve_question(missing, registry, NOW).reason == REASON_NOT_PUBLISHED


def test_a_labelled_answer_row_resolves_to_its_label_whatever_its_value(tmp_path):
    path = tmp_path / "answers.jsonl"
    path.write_text(dumps_canonical({"identifier": "evt-001", "label": 1, "value": "n/a"}) + "\n")
    registry = {"filedb": FileLookupResolver(path=path)}
    question = make_question(qid="q-evt-001", identifier="evt-001", resolver_key="filedb")
    outcome = resolve_question(question, registry, NOW)
    assert isinstance(outcome, Outcome) and outcome.label == 1


def test_unresolved_reason_vocabulary_enforced():
    with pytest.raises(ValueError):
        Unresolved("q-1", "mysterious")
