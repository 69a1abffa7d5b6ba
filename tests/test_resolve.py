from __future__ import annotations

from datetime import date, timedelta, timezone

import pytest

from futureworld import jsonl
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
    answer_file_resolvers,
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
    row = next(r for r in world.truth_rows if r.get("status") == "not_published")
    event = world.events[world.truth_rows.index(row)]
    registry = {"synthetic": _truth_resolver(world)}
    result = resolve_question(_question_for(event), registry, NOW)
    assert result == Unresolved(f"q-{event.identifier}", REASON_NOT_PUBLISHED)


def test_postponed_event_reports_postponed():
    world = _world(unresolved_rate=1.0)
    row = next(r for r in world.truth_rows if r.get("status") == REASON_POSTPONED)
    event = world.events[world.truth_rows.index(row)]
    registry = {"synthetic": _truth_resolver(world)}
    result = resolve_question(_question_for(event), registry, NOW)
    assert result.reason == REASON_POSTPONED


def test_a_question_with_no_truth_row_is_a_resolver_error():
    # The built-in world writes a row for every event, so a missing one is a routing fault.
    registry = {"synthetic": _truth_resolver(_world())}
    question = make_question(qid="q-evt-404", identifier="evt-404", resolver_key="synthetic")
    assert resolve_question(question, registry, NOW) == Unresolved("q-evt-404", REASON_RESOLVER_ERROR)


#: Truth rows as an earlier build wrote them: each held a drawn label, and an
#: unretrievable event was marked only by ``"will_resolve": false`` beside it.
EARLIER_TRUTH_ROWS = {
    "resolvable": {"identifier": "evt-001", "label": 1, "resolver_key": "synthetic",
                   "unresolved_reason": None, "will_resolve": True},
    "unretrievable": {"identifier": "evt-001", "label": 1, "resolver_key": "synthetic",
                      "unresolved_reason": "not_published", "will_resolve": False},
}


@pytest.mark.parametrize("row", EARLIER_TRUTH_ROWS.values(), ids=EARLIER_TRUTH_ROWS)
def test_a_truth_row_of_an_earlier_build_is_a_resolver_error_not_a_label(tmp_path, row):
    path = tmp_path / "truth-2026-03-02.jsonl"
    path.write_text(dumps_canonical(row) + "\n", encoding="utf-8")
    registry = {"synthetic": SyntheticTruthResolver.from_files([path])}
    question = make_question(qid="q-evt-001", identifier="evt-001", resolver_key="synthetic")
    assert resolve_question(question, registry, NOW) == Unresolved("q-evt-001", REASON_RESOLVER_ERROR)


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
    registry = {"filedb": FileLookupResolver.from_files([path])}

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
    registry = {"filedb": FileLookupResolver.from_files([path])}
    question = make_question(qid="q-evt-001", identifier="evt-001", resolver_key="filedb")
    outcome = resolve_question(question, registry, NOW)
    assert isinstance(outcome, Outcome) and outcome.label == 1


#: One answer file per case: its text (None: no file), and what question
#: evt-001, resolving at NOW, comes to: a label, or an unresolved reason.
ANSWER_FILES = {
    "label 1": ('{"identifier":"evt-001","label":1}\n', 1),
    "label 0": ('{"identifier":"evt-001","label":0}\n', 0),
    "label 0.6": ('{"identifier":"evt-001","label":0.6}\n', REASON_RESOLVER_ERROR),
    'label "1"': ('{"identifier":"evt-001","label":"1"}\n', REASON_RESOLVER_ERROR),
    "label true": ('{"identifier":"evt-001","label":true}\n', REASON_RESOLVER_ERROR),
    "label 1.0": ('{"identifier":"evt-001","label":1.0}\n', REASON_RESOLVER_ERROR),
    "label null": ('{"identifier":"evt-001","label":null}\n', REASON_RESOLVER_ERROR),
    "no label": ('{"identifier":"evt-001"}\n', REASON_RESOLVER_ERROR),
    "status postponed": ('{"identifier":"evt-001","status":"postponed"}\n', REASON_POSTPONED),
    "status not_published": (
        '{"identifier":"evt-001","status":"not_published"}\n', REASON_NOT_PUBLISHED
    ),
    "unknown status": ('{"identifier":"evt-001","label":1,"status":"void"}\n', REASON_RESOLVER_ERROR),
    "missing row": ('{"identifier":"evt-002","label":1}\n', REASON_NOT_PUBLISHED),
    "published by now": (
        '{"identifier":"evt-001","label":1,"published_at":"2026-03-03T20:30:00+00:00"}\n', 1
    ),
    "future published_at": (
        '{"identifier":"evt-001","label":1,"published_at":"2026-03-03T20:30:01+00:00"}\n',
        REASON_NOT_PUBLISHED,
    ),
    "bad published_at": (
        '{"identifier":"evt-001","label":1,"published_at":"tomorrow"}\n', REASON_RESOLVER_ERROR
    ),
    "unreadable file": (None, REASON_RESOLVER_ERROR),
    "malformed line": (
        '{"identifier":"evt-001","label":1}\n{"identifier":"evt-002",\n', REASON_RESOLVER_ERROR
    ),
    "row without identifier": (
        '{"identifier":"evt-001","label":1}\n{"label":0}\n', REASON_RESOLVER_ERROR
    ),
}


@pytest.mark.parametrize("text, expected", ANSWER_FILES.values(), ids=ANSWER_FILES)
def test_an_answer_file_row_resolves_to_its_label_or_reason(tmp_path, text, expected):
    path = tmp_path / "answers.jsonl"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    registry = answer_file_resolvers({"filedb": str(path)})
    question = make_question(qid="q-evt-001", identifier="evt-001", resolver_key="filedb")
    result = resolve_question(question, registry, NOW)
    if isinstance(expected, int):
        assert result == Outcome("q-evt-001", expected, NOW)
    else:
        assert result == Unresolved("q-evt-001", expected)


def test_a_batch_adds_at_most_one_decoder_to_the_cache(tmp_path):
    path = tmp_path / "answers.jsonl"
    path.write_text(
        "".join(dumps_canonical({"identifier": f"evt-{i:03d}", "label": i % 2}) + "\n" for i in range(200))
    )
    registry = answer_file_resolvers({"filedb": str(path)})
    questions = [
        make_question(qid=f"q-{i:03d}", identifier=f"evt-{i:03d}", resolver_key="filedb")
        for i in range(200)
    ]
    resolve_batch(questions[:1], registry, NOW)  # builds the field decoders once
    before = jsonl._decoder.cache_info().currsize
    result = resolve_batch(questions, registry, NOW)
    assert len(result.outcomes) == 200
    assert jsonl._decoder.cache_info().currsize - before <= 1


def test_unresolved_reason_vocabulary_enforced():
    with pytest.raises(ValueError):
        Unresolved("q-1", "mysterious")
