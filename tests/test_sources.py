from __future__ import annotations

from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone

import pytest

from futureworld.jsonl import dumps_canonical, read_jsonl, to_row
from futureworld.qpipeline import DEFAULT_TEMPLATES, construct_pair
from futureworld.sources import (
    SourceSpec,
    SyntheticWorldConfig,
    fetch_candidates,
    generate_synthetic_world,
    read_feed_file,
    write_truth_file,
)

from conftest import make_event

DAY = date(2026, 3, 2)


def resolve_at(day: date) -> datetime:
    return datetime.combine(day + timedelta(days=1), time(20, 30), tzinfo=timezone.utc)


def fetch(spec: SourceSpec, day: date = DAY):
    return fetch_candidates(spec, day, resolve_at(day), timezone.utc)


def world_config(**params) -> SyntheticWorldConfig:
    return SyntheticWorldConfig(day=DAY, resolve_at=resolve_at(DAY), **params)


def synthetic_spec(seed: int = 7, event_rate: int = 100, **params) -> SourceSpec:
    merged = {"seed": seed, "event_rate": event_rate}
    merged.update(params)
    return SourceSpec(source_id="synthetic", kind="synthetic", params=merged)


def test_source_spec_validates_kind_and_params():
    with pytest.raises(ValueError):
        SourceSpec(source_id="x", kind="rss")
    with pytest.raises(ValueError):
        SourceSpec(source_id="x", kind="file_feed")
    # A param the kind does not read is a misspelling, not something to ignore.
    with pytest.raises(ValueError, match="unknown synthetic source params: event_count"):
        SourceSpec("w", "synthetic", params={"event_count": 5})
    with pytest.raises(ValueError, match="unknown file_feed source params: event_rate, seed"):
        SourceSpec("f", "file_feed", params={"path": "a.jsonl", "seed": 1, "event_rate": 5})
    read = {"seed": 1, "event_rate": 5, "unresolved_rate": 0.1, "latent_p_mixture": [(0.2, 0.8, 1)]}
    assert SourceSpec("w", "synthetic", params=read).params == read


def test_synthetic_fetch_is_deterministic_byte_for_byte():
    spec = synthetic_spec(seed=7, event_rate=100)
    first = fetch(spec)
    second = fetch(spec)
    assert len(first.events) == 100
    encode = lambda r: "\n".join(dumps_canonical(to_row(e)) for e in r.events)
    assert encode(first) == encode(second)


def test_synthetic_worlds_differ_across_days_and_seeds():
    spec = synthetic_spec(seed=7, event_rate=50)
    a = fetch(spec).events
    b = fetch(spec, DAY + timedelta(days=1)).events
    c = fetch(synthetic_spec(seed=8, event_rate=50)).events
    assert [e.payload for e in a] != [e.payload for e in b]
    assert [e.payload for e in a] != [e.payload for e in c]


def test_expected_resolution_falls_on_next_day():
    for event in fetch(synthetic_spec(event_rate=40)).events:
        assert event.expected_resolution == resolve_at(DAY)
        assert event.expected_resolution > event.observed_at


def test_unresolved_rate_zero_means_everything_resolves():
    world = generate_synthetic_world(world_config(event_count=200, unresolved_rate=0.0), seed=1)
    assert all(e.will_resolve for e in world.events)


def test_latent_one_means_all_labels_positive():
    config = world_config(event_count=150, latent_mixture=((1.0, 1.0, 1.0),))
    world = generate_synthetic_world(config, seed=3)
    assert all(e.realized_label == 1 for e in world.events)
    assert all(e.latent_p == 1.0 for e in world.events)


def test_unresolved_fraction_tracks_configured_rate():
    config = world_config(event_count=10_000, unresolved_rate=0.3565)
    world = generate_synthetic_world(config, seed=5)
    frac = sum(1 for e in world.events if not e.will_resolve) / len(world.events)
    assert abs(frac - 0.3565) <= 0.02


def test_invalid_config_ranges_rejected():
    with pytest.raises(ValueError):
        world_config(unresolved_rate=1.5)
    with pytest.raises(ValueError):
        world_config(latent_mixture=((0.9, 0.2, 1.0),))


def test_truth_never_leaks_into_candidate_payload():
    world = generate_synthetic_world(world_config(event_count=120), seed=2)
    for event in world.candidates():
        serialized = dumps_canonical(to_row(event))
        assert "realized_label" not in serialized
        assert "will_resolve" not in serialized
        assert "latent_p" not in serialized


def test_question_texts_unique_within_a_day():
    world = generate_synthetic_world(world_config(event_count=300), seed=4)
    signatures = [
        tuple(sorted((k, v) for k, v in e.event.payload.items() if k != "identifier"))
        for e in world.events
    ]
    assert len(signatures) == len(set(signatures))


def test_truth_file_round_trip(tmp_path):
    world = generate_synthetic_world(world_config(event_count=30), seed=9)
    path = tmp_path / "truth.jsonl"
    write_truth_file(path, world.truth_rows())
    table = {row["identifier"]: row for row in read_jsonl(path)}
    assert len(table) == 30
    sample = world.events[0]
    assert table[sample.identifier]["label"] == sample.realized_label


# -- file feed ---------------------------------------------------------------


def test_file_feed_passthrough(tmp_path):
    feed = tmp_path / "feed.jsonl"
    events = [make_event(identifier=f"evt-{i:03d}") for i in range(3)]
    feed.write_text("\n".join(dumps_canonical(to_row(e)) for e in events) + "\n")
    spec = SourceSpec(source_id="feed", kind="file_feed", params={"path": str(feed)})
    result = fetch(spec)
    assert len(result.events) == 3
    assert result.errors == []


def test_file_feed_reports_malformed_records_and_continues(tmp_path):
    feed = tmp_path / "feed.jsonl"
    events = [make_event(identifier=f"evt-{i:03d}") for i in range(3)]
    lines = [dumps_canonical(to_row(e)) for e in events]
    lines[1] = '{"source_id": "broken"'
    feed.write_text("\n".join(lines) + "\n")
    result = fetch(
        SourceSpec(source_id="feed", kind="file_feed", params={"path": str(feed)}), DAY
    )
    assert len(result.events) == 2
    assert len(result.errors) == 1
    assert result.errors[0].line_number == 2


def test_file_feed_filters_to_cycle_alignment(tmp_path):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(dumps_canonical(to_row(make_event())) + "\n")
    spec = SourceSpec(source_id="feed", kind="file_feed", params={"path": str(feed)})
    assert len(fetch(spec).events) == 1
    assert fetch(spec, DAY + timedelta(days=3)).events == []


def test_file_feed_reports_an_identifier_seen_on_another_line(tmp_path):
    feed = tmp_path / "feed.jsonl"
    first = make_event(identifier="evt-007")
    again = replace(first, expected_resolution=first.expected_resolution + timedelta(days=1))
    feed.write_text("\n".join(dumps_canonical(to_row(e)) for e in (first, again)) + "\n")
    events, errors = read_feed_file(feed)
    assert events == [first]
    assert [e.line_number for e in errors] == [2]
    assert "evt-007" in errors[0].message
    # the repeat would have been issued a day later under the same question id
    spec = SourceSpec(source_id="feed", kind="file_feed", params={"path": str(feed)})
    later = fetch(spec, DAY + timedelta(days=1))
    assert later.events == [] and len(later.errors) == 1


def test_file_feed_keeps_raw_line_separators_inside_a_string(tmp_path):
    feed = tmp_path / "feed.jsonl"
    event = make_event(city="Oslo\u2028Nord\x85Vest")
    feed.write_text(dumps_canonical(to_row(event)) + "\n", encoding="utf-8")
    assert read_feed_file(feed) == ([event], [])


def test_file_feed_loads_numeric_payload_values_and_reports_wrong_typed_fields(tmp_path):
    feed = tmp_path / "feed.jsonl"
    numeric = make_event(template="index_threshold", index="Meridian 300", threshold=4000)
    wrong_typed = {**to_row(make_event(identifier="evt-002")), "observed_at": 5}
    feed.write_text("".join(dumps_canonical(r) + "\n" for r in (to_row(numeric), wrong_typed)))
    events, errors = read_feed_file(feed)
    assert events == [numeric] and events[0].payload["threshold"] == 4000
    pair = construct_pair(events[0], DEFAULT_TEMPLATES, resolve_at(DAY) - timedelta(days=1))
    assert pair.question.text == "Will the Meridian 300 close above 4000 points on April 18?"
    assert [e.line_number for e in errors] == [2]
    assert errors[0].message == "CandidateEvent observed_at must be an RFC 3339 time, got 5"


def test_missing_feed_file_raises(tmp_path):
    spec = SourceSpec(source_id="feed", kind="file_feed", params={"path": str(tmp_path / "nope.jsonl")})
    with pytest.raises(FileNotFoundError):
        fetch(spec)
