from __future__ import annotations

import json

import pytest

from futureworld.cli import main
from futureworld.jsonl import dumps_canonical
from futureworld.orchestrator import CycleConfig, Orchestrator


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
    assert (run_dir / "exports" / "constant" / "train-2026-03-02.jsonl").exists()


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


def test_export_command_refuses_a_day_never_issued(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["export", "--run-dir", str(run_dir), "--day", "2030-01-01"]) == 1
    assert "no issued batch found for 2030-01-01" in capsys.readouterr().err
    assert not (run_dir / "exports").exists()


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


def test_ingest_writes_candidates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--day", "2026-03-02"]) == 0
    out_file = tmp_path / "candidates-2026-03-02.jsonl"
    assert out_file.exists()
    assert len(out_file.read_text().splitlines()) == 300  # default event rate


def test_resolve_without_issued_batch_fails_cleanly(tmp_path, capsys):
    code = main(["resolve", "--run-dir", str(tmp_path / "empty"), "--day", "2026-03-02"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_score_command_probabilistic(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    truth = tmp_path / "truth.jsonl"
    preds.write_text(
        "\n".join(
            dumps_canonical({"question_id": f"q{i}", "prob": p})
            for i, p in enumerate((0.9, 0.2, 0.7, 0.4))
        )
        + "\n"
    )
    truth.write_text(
        "\n".join(
            dumps_canonical({"question_id": f"q{i}", "label": z})
            for i, z in enumerate((1, 0, 1, 0))
        )
        + "\n"
    )
    out = tmp_path / "report.json"
    assert main(["score", "--in", str(preds), "--truth", str(truth), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0
    assert report["brier"] < 0.25


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
