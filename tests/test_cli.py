from __future__ import annotations

import json
import re
import shutil
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta

import pytest

from futureworld.cli import main
from futureworld.jsonl import dumps_canonical, read_jsonl, to_row
from futureworld.orchestrator import CycleConfig, Orchestrator
from futureworld.sources import fetch_all

from conftest import make_event


def test_simulate_issue_resolve_export_cycle(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 11\nstart_day: 2026-03-02\nquestions_per_day: 8\nevent_rate: 40\n"
        "agents: [constant]\n"
    )
    assert main(["issue", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    assert main(["resolve", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    assert main(["export", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    out = capsys.readouterr().out
    assert "questions_issued" in out
    assert "constant" in out
    rows = read_jsonl(run_dir / "exports" / "constant" / "train-2026-03-02.jsonl")
    assert rows and f"constant: {len(rows)} groups -> " in out


@pytest.mark.parametrize(
    "command, before, day, report, filled",
    [
        ("issue", [], "2026-03-02", "reports/issue-2026-03-02.json", "rollouts_recorded"),
        ("resolve", ["issue"], "2026-03-02", "reports/cycle-2026-03-02.json", "outcomes_resolved"),
        # the scoring evening of the first day's batch, so its scores are filled
        (
            "benchmark", ["benchmark", "benchmark"], "2026-03-04",
            "benchmark/benchmark-2026-03-04.json", "scores",
        ),
    ],
    ids=["issue", "resolve", "benchmark"],
)
def test_each_phase_command_prints_the_report_file_it_writes(
    tmp_path, capsys, command, before, day, report, filled
):
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text("seed: 11\nquestions_per_day: 8\nevent_rate: 40\nagents: [oracle, constant]\n")
    for n, name in enumerate(before):
        earlier = (date(2026, 3, 2) + timedelta(days=n)).isoformat()
        assert main([name, "--config", str(config), "--run-dir", str(run_dir), "--day", earlier]) == 0
    capsys.readouterr()
    # the first run does the day's phase, the second runs it over the day it did
    for _ in range(2):
        assert main([command, "--config", str(config), "--run-dir", str(run_dir), "--day", day]) == 0
        printed = capsys.readouterr().out
        assert printed.encode() == (run_dir / report).read_bytes()
        assert json.loads(printed)[filled]


def test_export_command_writes_the_resolve_phases_groups_west_of_utc(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 3\nquestions_per_day: 40\nagents: [oracle]\ntimezone: America/New_York\n"
        "benchmark: {enabled: false}\n"
    )
    Orchestrator(CycleConfig.from_yaml(config), run_dir).simulate(2)
    for day in ("2026-03-02", "2026-03-03"):
        export = run_dir / "exports" / "oracle" / f"train-{day}.jsonl"
        written = export.read_bytes()
        export.unlink()
        assert main(["export", "--config", str(config), "--run-dir", str(run_dir), "--day", day]) == 0
        assert written and export.read_bytes() == written


def test_export_command_writes_only_its_batch_when_two_issue_days_share_a_log_day(tmp_path, capsys):
    # 20:00 AST on March 7 and 20:00 ADT on March 8 are both on UTC March 8, yet
    # each day's batch has its own ledger log
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 3\nstart_day: 2026-03-07\nquestions_per_day: 20\nevent_rate: 40\n"
        "agents: [oracle]\ntimezone: America/Halifax\nbenchmark: {enabled: false}\n"
    )
    Orchestrator(CycleConfig.from_yaml(config), run_dir).simulate(2)
    for day in ("2026-03-07", "2026-03-08"):
        export = run_dir / "exports" / "oracle" / f"train-{day}.jsonl"
        written = export.read_bytes()
        export.unlink()
        assert main(["export", "--config", str(config), "--run-dir", str(run_dir), "--day", day]) == 0
        assert written and export.read_bytes() == written


@pytest.mark.parametrize("per_day", ["20", "0"])
def test_export_command_writes_every_agent_the_run_holds_without_its_config(tmp_path, capsys, per_day):
    run_dir = tmp_path / "run"
    args = ["--agents", "oracle,constant,noisy,malformed", "--questions-per-day", per_day]
    assert main(["simulate", "--days", "3", *args, "--run-dir", str(run_dir)]) == 0
    exports = run_dir / "exports"
    written = {p.relative_to(exports): p.read_bytes() for p in exports.glob("*/train-2026-03-02.jsonl")}
    assert len(written) == 4
    shutil.rmtree(exports)
    assert main(["export", "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    rewritten = {p.relative_to(exports): p.read_bytes() for p in exports.glob("*/*.jsonl")}
    assert rewritten == written


def test_export_command_refuses_a_day_never_issued(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["export", "--run-dir", str(run_dir), "--day", "2030-01-01"]) == 1
    assert "no issued batch found for 2030-01-01" in capsys.readouterr().err
    assert not (run_dir / "exports").exists()


def test_export_command_writes_only_the_agents_its_batch_was_issued_with(tmp_path, capsys):
    run_dir, exports = tmp_path / "run", tmp_path / "run" / "exports"
    first, later = tmp_path / "first.yaml", tmp_path / "later.yaml"
    first.write_text("seed: 3\nquestions_per_day: 8\nevent_rate: 40\nagents: [oracle]\n")
    later.write_text("seed: 3\nquestions_per_day: 8\nevent_rate: 40\nagents: [oracle, constant]\n")
    # constant joins on the second day, so it has a ledger but no batch of the first
    for command, config, day in (
        ("issue", first, "2026-03-02"), ("issue", later, "2026-03-03"), ("resolve", first, "2026-03-02")
    ):
        assert main([command, "--config", str(config), "--run-dir", str(run_dir), "--day", day]) == 0
    assert (run_dir / "ledgers" / "constant").is_dir()
    written = {p.relative_to(exports).as_posix(): p.read_bytes() for p in exports.rglob("*.jsonl")}
    assert list(written) == ["oracle/train-2026-03-02.jsonl"]
    shutil.rmtree(exports)
    assert main(["export", "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    assert {p.relative_to(exports).as_posix(): p.read_bytes() for p in exports.rglob("*.jsonl")} == written


def test_a_resolve_without_the_issuing_config_backfills_the_agents_the_batch_was_issued_with(
    tmp_path, capsys
):
    config = tmp_path / "config.yaml"
    config.write_text("seed: 7\nquestions_per_day: 40\nagents: [oracle, noisy]\n")
    runs = {}
    for name, resolve_config in (("given", ["--config", str(config)]), ("default", [])):
        run_dir = tmp_path / name
        assert main(["issue", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
        assert main(["resolve", *resolve_config, "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
        runs[name] = {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    assert runs["default"] == runs["given"]
    log = runs["default"]["ledgers/noisy/ledger-2026-03-02.jsonl"].decode().splitlines()
    assert Counter(json.loads(line)["kind"] for line in log) == {"PREFIX": 160, "BACKFILL": 96, "DISCARD": 64}


def test_a_ledger_that_does_not_replay_is_one_error_line(tmp_path, capsys):
    run_dir = tmp_path / "run"
    args = ["--agents", "oracle", "--questions-per-day", "4", "--run-dir", str(run_dir)]
    assert main(["simulate", "--days", "1", *args]) == 0
    log = next((run_dir / "ledgers" / "oracle").glob("ledger-*.jsonl"))
    lines = log.read_text().splitlines()
    log.write_text("\n".join([lines[0].replace('"sequence_no":1,', '"sequence_no":0,'), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["export", "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 1
    err = capsys.readouterr().err
    assert err == "error: sequence_no must strictly increase (sequence_no=0)\n"


def test_simulate_command_prints_reports(tmp_path, capsys):
    code = main(
        [
            "simulate", "--days", "1", "--seed", "4", "--agents", "constant",
            "--questions-per-day", "6", "--run-dir", str(tmp_path / "sim"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated 1 days" in out
    assert "[constant]" in out
    assert list((tmp_path / "sim").rglob("*.txt")) == []  # every report is its JSON record


def test_simulate_flags_replace_only_the_config_fields_they_name(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 3\nquestions_per_day: 8\nevent_rate: 40\nagents: [oracle]\nbenchmark: {enabled: false}\n"
    )
    run_dir = tmp_path / "run"
    flags = ["--seed", "5", "--agents", "constant", "--run-dir", str(run_dir)]
    assert main(["simulate", "--days", "1", "--config", str(config), *flags]) == 0
    assert not (run_dir / "benchmark").exists()
    assert [p.name for p in (run_dir / "ledgers").iterdir()] == ["constant"]
    expected = tmp_path / "expected"
    Orchestrator(replace(CycleConfig.from_yaml(config), seed=5, agents=("constant",)), expected).simulate(1)
    questions = "questions/questions-2026-03-02.jsonl"
    assert (run_dir / questions).read_bytes() == (expected / questions).read_bytes()


def test_simulate_command_refuses_an_empty_agent_list(tmp_path, capsys):
    run_dir = tmp_path / "sim"
    assert main(["simulate", "--days", "1", "--agents", "", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown agents ['']")
    assert not run_dir.exists()


def test_ingest_writes_candidates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--day", "2026-03-02"]) == 0
    out_file = tmp_path / "candidates-2026-03-02.jsonl"
    assert out_file.exists()
    assert len(out_file.read_text().splitlines()) == 300  # default event rate


def test_ingest_reports_each_record_error_and_writes_the_good_records(tmp_path, capsys):
    feed = tmp_path / "feed.jsonl"
    feed.write_text(dumps_canonical(to_row(make_event(identifier="evt-ok"))) + "\n" + "not json\n")
    config, out = tmp_path / "cycle.yaml", tmp_path / "ingested.jsonl"
    config.write_text(f"sources: {json.dumps([str(feed)])}\n")
    assert main(["ingest", "--config", str(config), "--day", "2026-03-02", "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith(f"record error at {feed}:2: ")
    assert [row["payload"]["identifier"] for row in read_jsonl(out)] == ["evt-ok"]


@pytest.mark.parametrize("feeds", [0, 2], ids=["built-in", "two-feeds"])
def test_ingest_writes_the_candidates_the_issue_phase_fetches(tmp_path, feeds):
    text = "seed: 5\nevent_rate: 40\nquestions_per_day: 8\nagents: [constant]\n"
    if feeds:
        paths = [tmp_path / f"feed-{n}.jsonl" for n in range(feeds)]
        for n, path in enumerate(paths):
            events = [make_event(identifier=f"evt-{n}-{i}", band=f"{50 + i}-{51 + i}°F") for i in range(3)]
            path.write_text("".join(dumps_canonical(to_row(e)) + "\n" for e in events))
        text += f"sources: {json.dumps([str(p) for p in paths])}\n"
    config = tmp_path / "cycle.yaml"
    config.write_text(text)
    out, run_dir = tmp_path / "ingested.jsonl", tmp_path / "run"
    assert main(["ingest", "--config", str(config), "--day", "2026-03-02", "--out", str(out)]) == 0
    assert main(["issue", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 0
    fetched = fetch_all(CycleConfig.from_yaml(config), date(2026, 3, 2)).events
    assert len(out.read_text().splitlines()) == (3 * feeds or 40)
    assert out.read_text() == "".join(dumps_canonical(to_row(e)) + "\n" for e in fetched)
    issued = read_jsonl(run_dir / "questions" / "questions-2026-03-02.jsonl")
    identifiers = {q["resolver_metadata"]["identifier"] for q in issued}
    assert identifiers and identifiers <= {e.identifier for e in fetched}


def test_resolve_without_issued_batch_fails_cleanly(tmp_path, capsys):
    code = main(["resolve", "--run-dir", str(tmp_path / "empty"), "--day", "2026-03-02"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["resolve", "--day", "2026-03-02"],
        ["export", "--day", "2026-03-02"],
        ["simulate", "--days", "0"],
    ],
    ids=["resolve", "export", "simulate"],
)
def test_a_command_that_fails_before_its_phase_writes_leaves_no_run_directory(tmp_path, capsys, args):
    run_dir = tmp_path / "never-made"
    assert main([*args, "--run-dir", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not run_dir.exists()


def test_score_command_probabilistic(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    truth = tmp_path / "truth.jsonl"
    # q4 has no truth row and q5 an unresolved (null) label: each is counted, not scored
    preds.write_text(
        "\n".join(
            dumps_canonical({"question_id": f"q{i}", "prob": p})
            for i, p in enumerate((0.9, 0.2, 0.7, 0.4, 0.5, 0.1))
        )
        + "\n"
    )
    truth.write_text(
        "\n".join(
            dumps_canonical({"question_id": f"q{i}", "label": z})
            for i, z in zip((0, 1, 2, 3, 5), (1, 0, 1, 0, None))
        )
        + "\n"
    )
    out = tmp_path / "report.json"
    assert main(["score", "--in", str(preds), "--truth", str(truth), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n_predictions"] == 4
    assert report["accuracy"] == 1.0
    assert report["brier"] < 0.25
    assert "scored 4 predictions; 1 had no truth row; 1 had a null label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pred, label, named",
    [
        (0.9, 0.6, "label must be int, got float"),
        (0.9, True, "label must be int, got bool"),
        ("0.7", 1, "prob must be float, got str"),
    ],
)
def test_score_command_names_the_question_of_a_wrong_typed_value(tmp_path, capsys, pred, label, named):
    preds, truth = tmp_path / "preds.jsonl", tmp_path / "truth.jsonl"
    preds.write_text("".join(dumps_canonical({"question_id": q, "prob": pred}) + "\n" for q in ("q0", "q1")))
    rows = [{"question_id": "q0", "label": 1}, {"question_id": "q1", "label": label}]
    truth.write_text("".join(dumps_canonical(r) + "\n" for r in rows))
    out = tmp_path / "report.json"
    assert main(["score", "--in", str(preds), "--truth", str(truth), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: question q") and named in err
    assert not out.exists()


def test_score_command_names_a_truth_row_without_a_label(tmp_path, capsys):
    preds, truth = tmp_path / "preds.jsonl", tmp_path / "truth.jsonl"
    preds.write_text("".join(dumps_canonical({"question_id": q, "prob": 0.9}) + "\n" for q in ("q0", "q1")))
    rows = [{"question_id": "q0", "label": 1}, {"question_id": "q1"}]
    truth.write_text("".join(dumps_canonical(r) + "\n" for r in rows))
    assert main(["score", "--in", str(preds), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{truth} row 2 has no label" in err


@pytest.mark.parametrize(
    "preds, truth, bad",
    [
        ([{"question_id": "b0", "qtype": "numeric", "value": 3.0}, [1, 2]], [], "preds"),
        ([{"question_id": "q0", "prob": 0.9}, "probably"], [{"question_id": "q0", "label": 1}], "preds"),
        ([{"question_id": "q0", "prob": 0.9}, {"prob": 0.4}], [{"question_id": "q0", "label": 1}], "preds"),
        ([{"question_id": "q0", "prob": 0.9}], [{"question_id": "q0", "label": 1}, {"label": 0}], "truth"),
    ],
    ids=["array-row", "string-row", "prediction-without-id", "truth-without-id"],
)
def test_score_command_names_a_row_that_is_no_object_with_a_question_id(tmp_path, capsys, preds, truth, bad):
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("preds", "truth", "questions")}
    for name, rows in (("preds", preds), ("truth", truth), ("questions", [])):
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in rows))
    args = ["score", "--in", str(paths["preds"]), "--truth", str(paths["truth"])]
    assert main(args + ["--questions", str(paths["questions"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{paths[bad]} row 2 " in err and "question_id" in err


def test_score_command_scores_a_benchmark_day_as_its_scoring_evening_did(tmp_path, capsys):
    run_dir, config = tmp_path / "run", tmp_path / "config.yaml"
    config.write_text("seed: 8\nagents: [oracle, malformed]\n")
    days = [date(2026, 3, 2) + timedelta(days=n) for n in range(3)]
    for day in days:
        args = ["benchmark", "--config", str(config), "--run-dir", str(run_dir), "--day", day.isoformat()]
        assert main(args) == 0
    printed = capsys.readouterr().out
    bench, d = run_dir / "benchmark", days[0].isoformat()
    evening = json.loads((bench / f"benchmark-{days[2].isoformat()}.json").read_text())
    assert evening["scored_day"] == d and f'"scored_day": "{d}"' in printed
    for agent in ("oracle", "malformed"):
        out = tmp_path / f"score-{agent}.json"
        args = ["score", "--in", str(bench / f"preds-{agent}-{d}.jsonl"), "--truth", str(bench / f"gold-{d}.jsonl")]
        assert main(args + ["--questions", str(bench / f"issued-{d}.jsonl"), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == evening["scores"][agent]


@pytest.mark.parametrize(
    "bad, row, named",
    [
        ("preds", {"question_id": "bq-1", "qtype": "numeric", "value": "x"}, "value must be float, got str"),
        ("truth", {"question_id": "bq-1", "qtype": "numeric", "value": [3.0]}, "value must be float, got list"),
        ("questions", {"id": "bq-1", "qtype": "numeric"}, "lacks required keys"),
    ],
    ids=["in", "truth", "questions"],
)
def test_score_command_names_the_file_and_row_of_a_bad_benchmark_row(tmp_path, capsys, bad, row, named):
    good = {
        "preds": {"question_id": "bq-0", "qtype": "numeric", "value": 3.0},
        "truth": {"question_id": "bq-0", "qtype": "numeric", "value": 3.0},
        "questions": {
            "id": "bq-0", "qtype": "numeric", "text": "What will the value be?", "options": [],
            "resolution_time": "2026-03-03T20:30:00+00:00", "resolver_key": "benchmark",
        },
    }
    paths = {name: tmp_path / f"{name}.jsonl" for name in good}
    for name, path in paths.items():
        rows = [good[name]] + ([row] if name == bad else [])
        path.write_text("".join(dumps_canonical(r) + "\n" for r in rows))
    args = ["score", "--in", str(paths["preds"]), "--truth", str(paths["truth"])]
    assert main(args + ["--questions", str(paths["questions"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]} row 2: ") and named in err


def test_cycle_command_refuses_to_run_without_live(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["cycle", "--run-dir", str(run_dir)]) == 2
    assert "--live" in capsys.readouterr().err
    assert not run_dir.exists()


def test_cycle_command_runs_the_phases_due_by_the_wall_clock(tmp_path, capsys):
    run_dir, config = tmp_path / "run", tmp_path / "config.yaml"
    config.write_text(
        'seed: 2\nquestions_per_day: 8\nevent_rate: 40\nagents: [constant]\nissue_time: "00:00"\n'
        "benchmark: {enabled: false}\n"
    )
    assert main(["cycle", "--live", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    match = re.fullmatch(r"executed: issue:(\d{4}-\d{2}-\d{2})\n", capsys.readouterr().out)
    assert match is not None
    assert read_jsonl(run_dir / "questions" / f"questions-{match[1]}.jsonl")


def test_score_command_asks_for_the_questions_of_benchmark_predictions(tmp_path, capsys):
    row = dumps_canonical({"question_id": "b0", "qtype": "numeric", "value": 3.0}) + "\n"
    for name in ("preds.jsonl", "gold.jsonl"):
        (tmp_path / name).write_text(row)
    args = ["score", "--in", str(tmp_path / "preds.jsonl"), "--truth", str(tmp_path / "gold.jsonl")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--questions" in err


def test_score_command_names_an_empty_predictions_file(tmp_path, capsys):
    preds, truth = tmp_path / "preds.jsonl", tmp_path / "truth.jsonl"
    preds.write_text("")
    truth.write_text(dumps_canonical({"question_id": "q0", "label": 1}) + "\n")
    assert main(["score", "--in", str(preds), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(preds) in err and "no predictions" in err
    assert "--questions" not in err


def test_score_command_refuses_probabilistic_and_benchmark_rows_in_one_file(tmp_path, capsys):
    preds, truth = tmp_path / "preds.jsonl", tmp_path / "truth.jsonl"
    rows = [{"question_id": "q0", "prob": 0.8}] + [
        {"question_id": f"b{i}", "qtype": "numeric", "value": 3.0} for i in range(2)
    ]
    preds.write_text("".join(dumps_canonical(r) + "\n" for r in rows))
    truth.write_text(dumps_canonical({"question_id": "q0", "label": 1}) + "\n")
    out = tmp_path / "report.json"
    assert main(["score", "--in", str(preds), "--truth", str(truth), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(preds) in captured.err
    assert "1 probabilistic" in captured.err and "2 benchmark predictions" in captured.err
    assert "scored" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, named",
    [
        ('blocklist: [hostage, ""]', "blocklist"),
        ('domain_rules: [{label: science, keywords: [telescope, " "]}]', "domain_rules"),
    ],
    ids=["blocklist", "domain-rules"],
)
def test_issue_refuses_a_blank_filter_word(tmp_path, capsys, setting, named):
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(f"seed: 11\nquestions_per_day: 8\nevent_rate: 40\nagents: [constant]\n{setting}\n")
    assert main(["issue", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "must not be blank" in err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "agents, named", [("[oracle, orcale]", "orcale"), ("[oracle, oracle]", "repeat")]
)
def test_bad_agent_names_are_rejected_before_anything_is_written(tmp_path, capsys, agents, named):
    run_dir = tmp_path / "run"
    config = tmp_path / "config.yaml"
    config.write_text(f"seed: 11\nquestions_per_day: 8\nevent_rate: 40\nagents: {agents}\n")
    assert main(["issue", "--config", str(config), "--run-dir", str(run_dir), "--day", "2026-03-02"]) == 1
    assert named in capsys.readouterr().err
    assert not run_dir.exists()
