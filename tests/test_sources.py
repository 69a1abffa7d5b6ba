from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone

import pytest

from futureworld.jsonl import dumps_canonical, read_jsonl, to_row
from futureworld.orchestrator import CycleConfig
from futureworld.qpipeline import DEFAULT_TEMPLATES, construct_pair
from futureworld.sources import (
    LATENT_MIXTURE,
    fetch_all,
    generate_synthetic_world,
    read_feeds,
    write_truth_file,
)

from conftest import make_event

DAY = date(2026, 3, 2)


def resolve_at(day: date) -> datetime:
    return datetime.combine(day + timedelta(days=1), time(20, 30), tzinfo=timezone.utc)


def fetch(config: CycleConfig, day: date = DAY):
    return fetch_all(config, day)


def world(event_count: int, seed: int, unresolved_rate: float = 0.3565):
    return generate_synthetic_world(
        DAY, resolve_at(DAY), timezone.utc, seed, event_count, unresolved_rate
    )


def synthetic_config(seed: int = 7, event_rate: int = 100) -> CycleConfig:
    return CycleConfig(seed=seed, event_rate=event_rate)


def feed_config(*paths) -> CycleConfig:
    return CycleConfig(sources=tuple(map(str, paths)))


def test_synthetic_fetch_is_deterministic_byte_for_byte():
    config = synthetic_config(seed=7, event_rate=100)
    first = fetch(config)
    second = fetch(config)
    assert len(first.events) == 100
    encode = lambda r: "\n".join(dumps_canonical(to_row(e)) for e in r.events)
    assert encode(first) == encode(second)


def test_synthetic_worlds_differ_across_days_and_seeds():
    config = synthetic_config(seed=7, event_rate=50)
    a = fetch(config).events
    b = fetch(config, DAY + timedelta(days=1)).events
    c = fetch(synthetic_config(seed=8, event_rate=50)).events
    assert [e.payload for e in a] != [e.payload for e in b]
    assert [e.payload for e in a] != [e.payload for e in c]


def test_expected_resolution_falls_on_next_day():
    for event in fetch(synthetic_config(event_rate=40)).events:
        assert event.expected_resolution == resolve_at(DAY)
        assert event.expected_resolution > event.observed_at


def test_unresolved_rate_zero_means_everything_resolves():
    rows = world(200, seed=1, unresolved_rate=0.0).truth_rows
    assert all(set(r) == {"identifier", "label"} for r in rows)


def test_labels_are_drawn_from_the_latent_mixture():
    day_world = world(10_000, seed=3)
    mean_latent = sum(h["latent_p"] for h in day_world.hint_rows) / len(day_world.hint_rows)
    mixture_mean = sum(w * (lo + hi) / 2 for lo, hi, w in LATENT_MIXTURE)
    assert abs(mean_latent - mixture_mean) <= 0.02
    # an unretrievable event's row holds no label: compare the labelled events alone
    labelled = [
        (t["label"], h["latent_p"])
        for t, h in zip(day_world.truth_rows, day_world.hint_rows)
        if "label" in t
    ]
    mean_label = sum(label for label, _ in labelled) / len(labelled)
    mean_labelled_latent = sum(p for _, p in labelled) / len(labelled)
    assert abs(mean_label - mean_labelled_latent) <= 0.02


def test_unresolved_fraction_tracks_configured_rate():
    rows = world(10_000, seed=5, unresolved_rate=0.3565).truth_rows
    frac = sum(1 for r in rows if "status" in r) / len(rows)
    assert abs(frac - 0.3565) <= 0.02
    assert all(set(r) == {"identifier", "label"} or set(r) == {"identifier", "status"} for r in rows)
    assert {r["status"] for r in rows if "status" in r} == {"postponed", "not_published"}


def test_invalid_config_ranges_rejected():
    with pytest.raises(ValueError, match="unresolved_rate must lie in"):
        CycleConfig(unresolved_rate=1.5)
    with pytest.raises(ValueError, match="event_rate must be non-negative"):
        CycleConfig(event_rate=-1)


def test_truth_never_leaks_into_candidate_payload():
    for event in world(120, seed=2).events:
        serialized = dumps_canonical(to_row(event))
        assert "realized_label" not in serialized
        assert '"label"' not in serialized and '"status"' not in serialized
        assert "latent_p" not in serialized


def test_built_in_world_bytes_are_pinned():
    # candidates then hint rows, and apart from them the truth rows, one canonical line each
    result = fetch(synthetic_config(seed=7, event_rate=100))
    digest = lambda rows: hashlib.sha256(
        "".join(dumps_canonical(r) + "\n" for r in rows).encode()
    ).hexdigest()
    assert digest([*map(to_row, result.events), *result.hint_rows]) == (
        "07401effd78d7930af27f63d477ca38382ccc27d395fdc78c21fee7ae0a361ad"
    )
    assert digest(result.truth_rows) == "dffa410ffd1e6e426841de2c2ea04fcb4197ed74d6b3eefaf0a9d7b141990eb6"


def test_question_texts_unique_within_a_day():
    signatures = [
        tuple(sorted((k, v) for k, v in e.payload.items() if k != "identifier"))
        for e in world(300, seed=4).events
    ]
    assert len(signatures) == len(set(signatures))


def test_truth_file_round_trip(tmp_path):
    day_world = world(30, seed=9)
    path = tmp_path / "truth.jsonl"
    write_truth_file(path, day_world.truth_rows)
    table = {row["identifier"]: row for row in read_jsonl(path)}
    assert len(table) == 30
    assert [table[e.identifier] for e in day_world.events] == day_world.truth_rows


# -- file feed ---------------------------------------------------------------


def test_file_feed_passthrough(tmp_path):
    feed = tmp_path / "feed.jsonl"
    events = [make_event(identifier=f"evt-{i:03d}") for i in range(3)]
    lines = [dumps_canonical(to_row(e)) for e in events]
    lines.insert(1, "  ")  # a blank line is skipped: neither a record error nor an event
    feed.write_text("\n".join(lines) + "\n")
    result = fetch(feed_config(feed))
    assert len(result.events) == 3
    assert result.errors == []


def test_file_feed_reports_malformed_records_and_continues(tmp_path):
    feed = tmp_path / "feed.jsonl"
    events = [make_event(identifier=f"evt-{i:03d}") for i in range(3)]
    lines = [dumps_canonical(to_row(e)) for e in events]
    lines[1] = '{"source_id": "broken"'
    feed.write_text("\n".join(lines) + "\n")
    result = fetch(feed_config(feed), DAY)
    assert len(result.events) == 2
    assert len(result.errors) == 1
    assert result.errors[0].line_number == 2


def test_file_feed_filters_to_cycle_alignment(tmp_path):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(dumps_canonical(to_row(make_event())) + "\n")
    config = feed_config(feed)
    assert len(fetch(config).events) == 1
    assert fetch(config, DAY + timedelta(days=3)).events == []


def test_file_feed_reports_an_identifier_seen_on_another_line(tmp_path):
    feed = tmp_path / "feed.jsonl"
    first = make_event(identifier="evt-007")
    again = replace(first, expected_resolution=first.expected_resolution + timedelta(days=1))
    feed.write_text("\n".join(dumps_canonical(to_row(e)) for e in (first, again)) + "\n")
    events, errors = read_feeds([feed])
    assert events == [first]
    assert [e.line_number for e in errors] == [2]
    assert "evt-007" in errors[0].message
    # the repeat would have been issued a day later under the same question id
    later = fetch(feed_config(feed), DAY + timedelta(days=1))
    assert later.events == [] and len(later.errors) == 1


def test_an_identifier_repeated_in_a_later_feed_is_reported_with_its_file(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(dumps_canonical(to_row(make_event(identifier="evt-1"))) + "\n")
    repeated = (make_event(identifier="evt-2"), make_event(identifier="evt-1", city="Oslo"))
    b.write_text("".join(dumps_canonical(to_row(e)) + "\n" for e in repeated))
    events, errors = read_feeds([a, b])
    assert [e.identifier for e in events] == ["evt-1", "evt-2"]
    assert [(e.path, e.line_number) for e in errors] == [(b, 2)]
    assert errors[0].message == f"duplicate identifier 'evt-1' (first on line 1 of {a})"


def test_file_feed_keeps_raw_line_separators_inside_a_string(tmp_path):
    feed = tmp_path / "feed.jsonl"
    event = make_event(city="Oslo\u2028Nord\x85Vest")
    feed.write_text(dumps_canonical(to_row(event)) + "\n", encoding="utf-8")
    assert read_feeds([feed]) == ([event], [])


def test_file_feed_loads_numeric_payload_values_and_reports_wrong_typed_fields(tmp_path):
    feed = tmp_path / "feed.jsonl"
    numeric = make_event(template="index_threshold", index="Meridian 300", threshold=4000)
    wrong_typed = {**to_row(make_event(identifier="evt-002")), "observed_at": 5}
    feed.write_text("".join(dumps_canonical(r) + "\n" for r in (to_row(numeric), wrong_typed)))
    events, errors = read_feeds([feed])
    assert events == [numeric] and events[0].payload["threshold"] == 4000
    pair = construct_pair(events[0], DEFAULT_TEMPLATES, resolve_at(DAY) - timedelta(days=1))
    assert pair.question.text == "Will the Meridian 300 close above 4000 points on April 18?"
    assert [e.line_number for e in errors] == [2]
    assert errors[0].message == "CandidateEvent observed_at must be an RFC 3339 time, got 5"


def test_missing_feed_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        fetch(feed_config(tmp_path / "nope.jsonl"))
