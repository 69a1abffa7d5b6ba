from __future__ import annotations

import ast
import dataclasses
import json
from datetime import date
from pathlib import Path

import pytest

import futureworld
from futureworld.benchmark import BenchmarkAnswer, GoldRecord
from futureworld.domain import Outcome, Question, Trajectory
from futureworld.jsonl import dumps_canonical, from_row, read_jsonl, to_row, write_jsonl
from futureworld.orchestrator import IssueReport
from futureworld.prompts import BenchmarkQuestion
from futureworld.resolve import ResolutionRecord
from futureworld.scoring import ScoreReport

from conftest import T1, make_event, make_pair, make_question, make_trajectory

PACKAGE = Path(futureworld.__file__).parent

#: Calls that read or write file text.
FILE_TEXT_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}

#: The only code outside ``jsonl`` allowed to make such calls, and why.
ALLOWED = {
    ("jsonl.py", "*"): "the run-directory file format",
    ("ledger.py", "TrajectoryLedger._append_batch"): "the ledger's fsynced log appender",
    ("ledger.py", "read_log_records"): "the ledger's log replay, with its torn-tail rules",
    ("orchestrator.py", "CycleConfig.from_yaml"): "the YAML config load",
}


def _file_text_sites(tree: ast.AST, scope: tuple[str, ...] = ()):
    """Yield (enclosing function, call) for each call that touches file text.

    ``splitlines`` counts when it splits the text a call returned, as in
    ``path.read_text().splitlines()``; it also splits at U+2028 and U+0085.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _file_text_sites(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            splits_read_text = name == "splitlines" and isinstance(func.value, ast.Call)
            if name in FILE_TEXT_CALLS or splits_read_text:
                yield ".".join(scope), name
        yield from _file_text_sites(node, scope)


def test_run_directory_files_are_read_and_written_only_through_jsonl():
    used = set()
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, call in _file_text_sites(ast.parse(path.read_text(encoding="utf-8"))):
            key = (path.name, "*") if (path.name, "*") in ALLOWED else (path.name, function)
            if key in ALLOWED:
                used.add(key)
            else:
                stray.append(f"{path.name}: {function or '<module>'} calls {call}()")
    assert stray == [], "read and write run-directory files through futureworld.jsonl"
    assert used == set(ALLOWED), "an allowance is no longer needed; remove it"


def test_jsonl_lines_end_at_newline_only(tmp_path):
    rows = [{"text": "a b\x85c\x1cd\re"}, {"text": ""}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    assert read_jsonl(path) == rows


#: One instance of each record the field-walking codec handles, and its
#: canonical line; the lines are what the hand-written codecs wrote.
RECORDS = [
    (
        make_event(),
        '{"expected_resolution":"2026-03-03T20:30:00+00:00","observed_at":"2026-03-02T12:00:00+00:00",'
        '"payload":{"band":"84-85°F","city":"Dallas","date":"April 18","identifier":"evt-001",'
        '"template":"temperature"},"resolver_key":"synthetic","source_id":"synthetic",'
        '"source_url":"synthetic://test/evt-001"}',
    ),
    (
        make_question(),
        '{"domain":"weather","id":"q-1","prediction_time":"2026-03-02T20:00:00+00:00",'
        '"resolution_time":"2026-03-03T20:30:00+00:00","resolver_key":"synthetic",'
        '"resolver_metadata":{"identifier":"evt-001"},"source":"synthetic",'
        '"source_url":"synthetic://test/evt-001",'
        '"text":"Will the highest temperature in Dallas be between 84-85°F on April 18?"}',
    ),
    (
        make_pair(),
        '{"description":"Recent highs have been stable.","question":{"domain":"weather",'
        '"id":"q-1","prediction_time":"2026-03-02T20:00:00+00:00",'
        '"resolution_time":"2026-03-03T20:30:00+00:00","resolver_key":"synthetic",'
        '"resolver_metadata":{"identifier":"evt-001"},"source":"synthetic",'
        '"source_url":"synthetic://test/evt-001",'
        '"text":"Will the highest temperature in Dallas be between 84-85°F on April 18?"}}',
    ),
    (
        Outcome(question_id="q-1", label=1, resolved_at=T1),
        '{"label":1,"question_id":"q-1","resolved_at":"2026-03-03T20:30:00+00:00"}',
    ),
    (
        ResolutionRecord(identifier="evt-001", label=1, published_at=T1),
        '{"identifier":"evt-001","label":1,"published_at":"2026-03-03T20:30:00+00:00",'
        '"status":"resolved"}',
    ),
    (
        make_trajectory().resolved(1),
        '{"final_probability":0.7,"label":1,"prediction_time":"2026-03-02T20:00:00+00:00",'
        '"question_id":"q-1","raw_final_answer":"FINAL: 0.7","reward":-0.09000000000000002,"rollout_index":0,'
        '"status":"RESOLVED","steps":[{"action":"dallas temperature forecast",'
        '"issued_at":"2026-03-02T20:00:00+00:00","observation":"forecast digest"}],'
        '"trajectory_id":"q-1#k0"}',
    ),
    (
        BenchmarkQuestion(
            id="bq-1", qtype="numeric", text="What will the index be?", options=(),
            resolution_time=T1, resolver_key="benchmark", history=(10.5, 11.0),
        ),
        '{"history":[10.5,11.0],"id":"bq-1","options":[],"qtype":"numeric",'
        '"resolution_time":"2026-03-03T20:30:00+00:00","resolver_key":"benchmark",'
        '"text":"What will the index be?"}',
    ),
    (
        GoldRecord(question_id="bq-2", qtype="simple_mc", gold_options=(0, 2), will_resolve=False),
        '{"gold_options":[0,2],"qtype":"simple_mc","question_id":"bq-2","value":null,'
        '"will_resolve":false}',
    ),
    (
        BenchmarkAnswer(question_id="bq-1", qtype="numeric", value=11.25),
        '{"qtype":"numeric","question_id":"bq-1","selected":[],"value":11.25}',
    ),
    (
        ScoreReport(
            s_bin=0.5, accuracy=0.75, n_predictions=4, n_by_type={"binary_choice": 4},
            intervals={"accuracy": (0.5, 1.0)},
        ),
        '{"accuracy":0.75,"brier":null,"ece":null,"intervals":{"accuracy":[0.5,1.0]},'
        '"n_by_type":{"binary_choice":4},"n_predictions":4,"s_bin":0.5,"s_dmc":null,'
        '"s_num":null,"s_overall":null,"s_smc":null}',
    ),
    (
        IssueReport(
            day=date(2026, 3, 2), candidates=300, dropped_by_reason={"not phrased as a question": 3},
            questions_issued=20, rollouts_recorded={"oracle": 80},
        ),
        '{"candidates":300,"construct_errors":0,"constructed":0,"day":"2026-03-02",'
        '"dropped_by_reason":{"not phrased as a question":3},"feed_errors":0,"filtered_kept":0,'
        '"questions_issued":20,"rollouts_recorded":{"oracle":80}}',
    ),
]


@pytest.mark.parametrize(
    "record, line", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_every_record_round_trips_through_its_canonical_line(record, line):
    row = to_row(record)
    assert list(row) == [f.name for f in dataclasses.fields(record)]
    assert dumps_canonical(row) == line
    assert from_row(type(record), json.loads(line)) == record


def test_a_wrong_typed_value_names_its_field():
    row = to_row(make_question())
    with pytest.raises(ValueError, match="Question prediction_time must be an RFC 3339 time, got 5"):
        from_row(Question, {**row, "prediction_time": 5})
    with pytest.raises(ValueError, match="Question resolver_metadata must be a mapping, got list"):
        from_row(Question, {**row, "resolver_metadata": []})
    with pytest.raises(ValueError, match="Question lacks required keys: text"):
        from_row(Question, {k: v for k, v in row.items() if k != "text"})
    with pytest.raises(ValueError, match="GoldRecord gold_options\\[1\\] must be int, got str"):
        from_row(GoldRecord, {"question_id": "bq-2", "qtype": "simple_mc", "gold_options": [0, "2"]})
    trajectory = to_row(make_trajectory())
    with pytest.raises(ValueError, match="Trajectory status must be one of 'PENDING', .*, got 'OPEN'"):
        from_row(Trajectory, {**trajectory, "status": "OPEN"})
