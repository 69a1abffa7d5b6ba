from __future__ import annotations

import ast
import builtins
import dataclasses
import gc
import json
import os
import random
import re
import shutil
import sys
import tracemalloc
import weakref
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
import yaml

from futureworld import cli, jsonl, orchestrator
from futureworld.orchestrator import BenchmarkSettings, CycleConfig, CycleReport, IssueReport, Orchestrator
from futureworld.ledger import TrajectoryLedger, replay
from futureworld.resolve import SyntheticTruthResolver
from futureworld.benchmark import BenchmarkPoolConfig
from futureworld.domain import CandidateEvent, Question, TrajectoryStatus
from futureworld.prompts import BenchmarkCaps, BenchmarkQuestion
from futureworld.qpipeline import DEFAULT_DOMAIN_RULES, DomainRule, QuestionTemplate
from futureworld.rollout import RolloutLimits
from futureworld.jsonl import read_jsonl
from futureworld.scoring import ProbPrediction, summarize_probabilistic
from futureworld.seeding import derive_seed
from futureworld.sources import fetch_all

from test_ledger import _reads

START = date(2026, 3, 2)


def _config(**overrides) -> CycleConfig:
    base = dict(
        seed=11,
        agents=("oracle", "constant"),
        questions_per_day=20,
        event_rate=70,
        benchmark=BenchmarkSettings(
            pool=BenchmarkPoolConfig(binary_choice=7, simple_mc=12, difficult_mc=16, numeric=22)
        ),
    )
    base.update(overrides)
    return CycleConfig(**base)


def test_issue_phase_fetches_filters_and_records(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    report = orch.run_issue_phase(START)
    assert report.candidates == 70
    assert 0 < report.filtered_kept <= report.constructed <= report.candidates
    assert report.questions_issued == 20
    assert report.rollouts_recorded == {"oracle": 80, "constant": 80}
    assert orch.questions_path(START).exists()
    assert orch.truth_path(START).exists()
    # every dropped pair counts once under each reason the filter gave
    dropped = report.constructed - report.filtered_kept
    assert dropped > 0 and all(n > 0 for n in report.dropped_by_reason.values())
    assert sum(report.dropped_by_reason.values()) >= dropped
    saved = jsonl.read_json(orch.issue_report_path(START))
    assert saved["dropped_by_reason"] == report.dropped_by_reason
    blocked = Orchestrator(_config(blocklist=("temperature",)), tmp_path / "blocked")
    assert blocked.run_issue_phase(START).dropped_by_reason["blocklisted term: temperature"] > 0


def test_no_written_float_goes_through_the_built_in_sum(tmp_path, monkeypatch):
    """From CPython 3.12 ``sum`` compensates float rounding, so a mean it gives may differ in the
    last bit from 3.11's; the loop must add floats with ``scoring.sum_in_order`` instead."""
    built_in_sum, refused = builtins.sum, []

    def guarded_sum(iterable, /, start=0):
        items = list(iterable)
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("futureworld") and any(type(v) is float for v in items):
            refused.append(caller)
            raise TypeError(f"{caller} adds floats with the built-in sum")
        return built_in_sum(items, start)

    monkeypatch.setattr(builtins, "sum", guarded_sum)
    result = Orchestrator(_config(), tmp_path).simulate(3)
    assert refused == []
    scored = result.benchmark_reports[-1]["scores"]["oracle"]
    assert scored["s_num"] is not None and scored["s_overall"] is not None
    assert all(report.metrics["oracle"]["mean_reward"] is not None for report in result.cycle_reports)


def test_a_simulated_run_writes_only_the_files_a_later_phase_reads(tmp_path):
    Orchestrator(_config(), tmp_path).simulate(2)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "benchmark", "exports", "hints", "ledgers", "questions", "reports", "truth",
    ]


def test_building_an_orchestrator_creates_nothing(tmp_path):
    run_dir = tmp_path / "missing"
    orch = Orchestrator(_config(), run_dir)
    assert not run_dir.exists()
    assert set(vars(orch)) == {"config", "run_dir"}  # nothing to keep between calls
    # an evening before the issue time has nothing to write either
    assert orch.run_due_phases(datetime.combine(START, time(12, 0), timezone.utc)) == []
    assert not run_dir.exists()


def test_the_orchestrator_reads_no_clock():
    tree = ast.parse(Path(orchestrator.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name == "time" or name.startswith("time.")] == []
    clock_calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("now", "utcnow", "today")
    ]
    assert clock_calls == []


def test_issue_phase_capacity_bound(tmp_path):
    orch = Orchestrator(_config(questions_per_day=500), tmp_path)
    report = orch.run_issue_phase(START)
    assert report.questions_issued == report.filtered_kept


def test_issue_phase_zero_candidates(tmp_path):
    orch = Orchestrator(_config(event_rate=0), tmp_path)
    report = orch.run_issue_phase(START)
    assert report.questions_issued == 0
    assert orch.questions_path(START).exists()


def test_issue_phase_is_idempotent(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    first = orch.run_issue_phase(START)
    written = orch.issue_report_path(START).read_bytes()
    again = Orchestrator(_config(), tmp_path).run_issue_phase(START)
    assert jsonl.to_row(again) == jsonl.to_row(first)  # counts the rollouts the day log holds
    assert first.dropped_by_reason and again.dropped_by_reason == first.dropped_by_reason
    assert orch.issue_report_path(START).read_bytes() == written


def test_resolve_phase_accounting_and_idempotence(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    orch.run_issue_phase(START)
    report = orch.run_resolve_phase(START)
    assert report.questions_issued == 20
    assert report.outcomes_resolved + report.unresolved_count == 20
    assert report.groups_exported["oracle"] == report.outcomes_resolved
    rerun = orch.run_resolve_phase(START)
    assert jsonl.to_row(rerun) == jsonl.to_row(report)


def test_a_replayed_day_exports_the_rows_the_resolve_phase_wrote(tmp_path):
    agents = ("oracle", "malformed")
    orch = Orchestrator(_config(agents=agents), tmp_path)
    orch.run_issue_phase(START)
    report = orch.run_resolve_phase(START)
    for agent in agents:
        written = read_jsonl(orch.export_path(agent, START))
        assert len(written) == report.groups_exported[agent] > 0
        rows = TrajectoryLedger(tmp_path / "ledgers" / agent).export_training_batch(START)
        assert next(rows) == written[0]  # the groups come one at a time
        assert [written[0], *rows] == written


def test_resolve_phase_requires_issued_batch(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    with pytest.raises(FileNotFoundError):
        orch.run_resolve_phase(START)


def test_fully_resolvable_world_exports_every_question(tmp_path):
    orch = Orchestrator(_config(unresolved_rate=0.0), tmp_path)
    orch.run_issue_phase(START)
    report = orch.run_resolve_phase(START)
    assert report.unresolved_count == 0
    assert report.groups_exported["oracle"] == report.questions_issued


def test_unresolvable_world_exports_nothing(tmp_path):
    orch = Orchestrator(_config(unresolved_rate=1.0), tmp_path)
    result = orch.simulate(1)
    report = result.cycle_reports[0]
    assert report.outcomes_resolved == 0
    assert report.groups_exported == {"oracle": 0, "constant": 0}
    export = orch.export_path("oracle", START)
    assert export.read_text() == ""


def _count_fsyncs(monkeypatch):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    return fsyncs


def test_resolve_phase_fsyncs_at_most_twice_per_agent(tmp_path, monkeypatch):
    fsyncs = _count_fsyncs(monkeypatch)
    orch = Orchestrator(_config(benchmark=BenchmarkSettings(enabled=False)), tmp_path)
    per_phase = []
    resolve = orch.run_resolve_phase

    def counted(day):
        before = len(fsyncs)
        report = resolve(day)
        per_phase.append(len(fsyncs) - before)
        return report

    monkeypatch.setattr(orch, "run_resolve_phase", counted)
    orch.simulate(2)
    assert len(per_phase) == 2
    assert all(0 < n <= 2 * len(orch.config.agents) for n in per_phase)
    assert list(tmp_path.rglob("index.json")) == []


def test_issue_phase_makes_one_durable_append_per_agent(tmp_path, monkeypatch):
    fsyncs = _count_fsyncs(monkeypatch)
    orch = Orchestrator(_config(), tmp_path)
    report = orch.run_issue_phase(START)
    assert report.rollouts_recorded == {"oracle": 80, "constant": 80}
    assert len(fsyncs) == len(orch.config.agents)
    orch.run_issue_phase(START)
    assert len(fsyncs) == len(orch.config.agents)  # a complete day appends nothing


def _files(run_dir, pattern):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in sorted(run_dir.glob(pattern))}


def _check_repairs_of_a_torn_issue_append(tmp_path, repair):
    """Cut the first agent's prefix append at several offsets, then ``repair``.

    The offsets include 0, one byte, the last byte, and the end of the
    second-to-last record, which leaves one group a rollout short.
    """
    config = _config(benchmark=BenchmarkSettings(enabled=False))
    straight = tmp_path / "straight"
    orch = Orchestrator(config, straight)
    orch.run_issue_phase(START)
    issued = tmp_path / "issued"
    shutil.copytree(straight, issued)
    orch.run_resolve_phase(START)
    expected = {glob: _files(straight, glob) for glob in ("ledgers/*/*.jsonl", "exports/*/*.jsonl")}

    log_name = f"ledger-{START.isoformat()}.jsonl"
    data = (issued / "ledgers" / "oracle" / log_name).read_bytes()
    size = len(data)
    last_record = data.rindex(b"\n", 0, size - 1) + 1
    offsets = [0, 1, size - 1, last_record] + random.Random(5).sample(range(2, size - 1), 6)
    for i, offset in enumerate(offsets):
        crashed = tmp_path / f"crash-{i}"
        shutil.copytree(issued, crashed)
        # The crash hit the first agent's append, so the second never started.
        oracle_log = crashed / "ledgers" / "oracle" / log_name
        oracle_log.write_bytes(data[:offset])
        (crashed / "ledgers" / "constant" / log_name).unlink()
        repair(Orchestrator(config, crashed))
        for glob, files in expected.items():
            assert _files(crashed, glob) == files, f"cut at byte {offset}"


def test_restart_completes_groups_cut_anywhere_in_the_issue_batch(tmp_path):
    def repair(orch):
        orch.run_issue_phase(START)
        orch.run_resolve_phase(START)

    _check_repairs_of_a_torn_issue_append(tmp_path, repair)


def test_resolve_alone_completes_groups_cut_anywhere_in_the_issue_batch(tmp_path):
    # As `fw resolve --day` runs it: no issue phase first.
    _check_repairs_of_a_torn_issue_append(tmp_path, lambda orch: orch.run_resolve_phase(START))


def test_evening_reads_only_todays_and_yesterdays_logs(tmp_path, monkeypatch):
    config = _config(benchmark=BenchmarkSettings(enabled=False))
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    for offset in range(4):
        Orchestrator(config, tmp_path).run_due_phases(evening(offset))
    assert len(list((tmp_path / "ledgers" / "oracle").glob("ledger-*.jsonl"))) == 4

    read = _reads(monkeypatch)
    derived = []
    real_read_jsonl = orchestrator.read_jsonl
    monkeypatch.setattr(
        orchestrator, "read_jsonl", lambda path: derived.append(path.name) or real_read_jsonl(path)
    )
    today = START + timedelta(days=4)
    yesterday = today - timedelta(days=1)
    executed = Orchestrator(config, tmp_path).run_due_phases(evening(4))
    assert executed == [f"issue:{today}", f"resolve:{yesterday}"]
    yesterday_logs = {f"{agent}/ledger-{yesterday.isoformat()}.jsonl" for agent in config.agents}
    assert {f"{p.parent.name}/{p.name}" for p in read} == yesterday_logs  # today's was new
    assert derived.count(f"questions-{yesterday.isoformat()}.jsonl") == 1


def test_cron_evening_completes_yesterdays_short_batch_before_resolving_it(tmp_path):
    config = _config(benchmark=BenchmarkSettings(enabled=False))
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    tomorrow = START + timedelta(days=1)
    straight = tmp_path / "straight"
    Orchestrator(config, straight).run_due_phases(evening(0))
    crashed = tmp_path / "crashed"
    shutil.copytree(straight, crashed)
    issue_report = straight / "reports" / f"issue-{START.isoformat()}.json"
    issued = issue_report.read_bytes()
    executed = Orchestrator(config, straight).run_due_phases(evening(1))
    assert executed == [f"issue:{tomorrow}", f"resolve:{START}"]
    assert issue_report.read_bytes() == issued  # a complete batch is not re-issued

    # The crash hit the first agent's prefix append, so the second never started.
    log_name = f"ledger-{START.isoformat()}.jsonl"
    oracle_log = crashed / "ledgers" / "oracle" / log_name
    oracle_log.write_bytes(oracle_log.read_bytes()[: oracle_log.stat().st_size // 2])
    (crashed / "ledgers" / "constant" / log_name).unlink()
    executed = Orchestrator(config, crashed).run_due_phases(evening(1))
    assert executed == [f"issue:{tomorrow}", f"resolve:{START}"]
    for glob in ("ledgers/*/*.jsonl", "exports/*/*.jsonl"):
        assert _files(crashed, glob) == _files(straight, glob)


def _resolved_files(run_dir):
    """The ledgers, exports and cycle reports: what resolving batches writes."""
    return {
        name: data
        for glob in ("ledgers/*/*.jsonl", "exports/*/*.jsonl", "reports/cycle-*")
        for name, data in _files(run_dir, glob).items()
    }


def test_a_skipped_cron_evening_resolves_its_batch_late(tmp_path):
    config = _config(seed=3, event_rate=40, agents=("oracle",), benchmark=BenchmarkSettings(enabled=False))
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    day = lambda offset: START + timedelta(days=offset)
    straight, skipped = tmp_path / "straight", tmp_path / "skipped"
    for offset in range(4):
        Orchestrator(config, straight).run_due_phases(evening(offset))

    assert Orchestrator(config, skipped).run_due_phases(evening(0)) == [f"issue:{day(0)}"]
    # Evening 1 never runs: day 1 is never issued, and day 0 waits for evening 2.
    assert Orchestrator(config, skipped).run_due_phases(evening(2)) == [
        f"issue:{day(2)}", f"resolve:{day(0)}"
    ]
    assert Orchestrator(config, skipped).run_due_phases(evening(3)) == [
        f"issue:{day(3)}", f"resolve:{day(2)}"
    ]
    expected = {k: v for k, v in _resolved_files(straight).items() if day(1).isoformat() not in k}
    assert _resolved_files(skipped) == expected
    pending = [t for t in replay(skipped / "ledgers" / "oracle").all_trajectories()
               if t.status is TrajectoryStatus.PENDING]
    assert pending and {t.prediction_time.date() for t in pending} == {day(3)}


def test_a_missed_scoring_evening_scores_its_benchmark_batch_late(tmp_path):
    config = _config(seed=3, event_rate=40, agents=("oracle",))
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    day = lambda offset: START + timedelta(days=offset)
    straight, skipped = tmp_path / "straight", tmp_path / "skipped"
    for offset in range(6):
        executed = Orchestrator(config, straight).run_due_phases(evening(offset))
        resolved = [f"resolve:{day(offset - 1)}"] if offset else []
        assert executed == [f"issue:{day(offset)}", *resolved, f"benchmark:{day(offset)}"]
    for offset in (0, 1, 3, 4, 5):  # evening 2, when day 0's batch is due, never runs
        Orchestrator(config, skipped).run_due_phases(evening(offset))

    bench = lambda run, offset: json.loads((run / "benchmark" / f"benchmark-{day(offset)}.json").read_text())
    late = bench(skipped, 2)
    assert late["issued"] == 0 and late["issued_by_type"] == {}
    assert late["scored_day"] == day(0).isoformat() == bench(straight, 2)["scored_day"]
    assert late["scores"] == bench(straight, 2)["scores"] and late["scores"]["oracle"]
    for offset in (3, 5):  # the evenings after it score as before
        assert bench(skipped, offset) == bench(straight, offset)
    assert [*straight.rglob("*.txt"), *skipped.rglob("*.txt")] == []  # every report is its JSON record
    assert {bench(skipped, offset)["scored_day"] for offset in range(6)} == {
        None, *(day(offset).isoformat() for offset in (0, 1, 3))
    }


def test_a_cron_between_the_issue_and_resolve_times_resolves_every_batch(tmp_path):
    # 20:15 is after the 20:00 issue time and before the 20:30 resolve time:
    # each evening issues today and resolves the day before yesterday.
    config = _config(seed=3, event_rate=40, agents=("oracle",), benchmark=BenchmarkSettings(enabled=False))
    day = lambda offset: START + timedelta(days=offset)
    at = lambda offset, hour, minute: datetime.combine(day(offset), time(hour, minute), timezone.utc)
    straight, early = tmp_path / "straight", tmp_path / "early"
    for offset in range(5):
        Orchestrator(config, straight).run_due_phases(at(offset, 21, 0))
        executed = Orchestrator(config, early).run_due_phases(at(offset, 20, 15))
        resolved = [f"resolve:{day(offset - 2)}"] if offset >= 2 else []
        assert executed == [f"issue:{day(offset)}"] + resolved
    # The next call after 20:30 catches up with the straight run.
    assert Orchestrator(config, early).run_due_phases(at(4, 20, 30)) == [
        f"issue:{day(4)}", f"resolve:{day(3)}"
    ]
    assert _resolved_files(early) == _resolved_files(straight)


class _Killed(Exception):
    pass


def _kill_before_write(monkeypatch, n):
    """Raise before the n-th derived-file write or ledger append.

    Returns the calls seen: each derived file's name, or ``_append_batch``.
    """
    calls = []

    def guarded(write, label):
        def call(*args, **kwargs):
            calls.append(label(*args))
            if len(calls) == n:
                raise _Killed(f"write {n}: {calls[-1]}")
            return write(*args, **kwargs)

        return call

    monkeypatch.setattr(
        jsonl, "write_atomically", guarded(jsonl.write_atomically, lambda path, chunks: path.name)
    )
    monkeypatch.setattr(
        TrajectoryLedger,
        "_append_batch",
        guarded(TrajectoryLedger._append_batch, lambda *args: "_append_batch"),
    )
    return calls


def _run_files(run_dir):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}


# In New York a batch issued at 20:00 local time is issued on the next UTC date
@pytest.mark.parametrize("zone", ["UTC", "America/New_York"])
def test_an_evening_killed_before_any_write_reruns_to_the_uninterrupted_files(tmp_path, monkeypatch, zone):
    config = _config(seed=3, event_rate=40, timezone=zone)
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), config.zone)
    history = tmp_path / "history"
    for offset in range(2):
        Orchestrator(config, history).run_due_phases(evening(offset))
    straight = tmp_path / "straight"
    shutil.copytree(history, straight)
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        Orchestrator(config, straight).run_due_phases(evening(2))
    expected = _run_files(straight)
    # prefixes, backfills and discards, and 12 files: the issue's 4, 3 of the resolve, 5 of the benchmark
    assert writes.count("_append_batch") == 2 * 3 and len(writes) == 6 + 12

    for n in range(1, len(writes) + 1):
        killed = tmp_path / f"killed-{n}"
        shutil.copytree(history, killed)
        with monkeypatch.context() as m:
            _kill_before_write(m, n)
            with pytest.raises(_Killed):
                Orchestrator(config, killed).run_due_phases(evening(2))
        Orchestrator(config, killed).run_due_phases(evening(2))
        files = _run_files(killed)
        differ = sorted(k for k in expected.keys() | files.keys() if expected.get(k) != files.get(k))
        assert differ == [], f"killed before write {n} ({writes[n - 1]})"


def test_an_evening_killed_after_its_questions_marker_is_finished_by_the_next_evenings(
    tmp_path, monkeypatch
):
    # No same-evening re-run: a cron deployment next runs the next evening.
    config = _config(seed=3, event_rate=40)
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    killed_day = (START + timedelta(days=2)).isoformat()
    history = tmp_path / "history"
    for offset in range(2):
        Orchestrator(config, history).run_due_phases(evening(offset))

    def next_three_evenings(run_dir):
        for offset in range(3, 6):
            Orchestrator(config, run_dir).run_due_phases(evening(offset))
        return _run_files(run_dir)

    straight, unbenched = tmp_path / "straight", tmp_path / "unbenched"
    shutil.copytree(history, straight)
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        Orchestrator(config, straight).run_due_phases(evening(2))
    expected = next_three_evenings(straight)
    shutil.copytree(history, unbenched)
    no_benchmark = replace(config, benchmark=replace(config.benchmark, enabled=False))
    Orchestrator(no_benchmark, unbenched).run_due_phases(evening(2))
    expected_unbenched = next_three_evenings(unbenched)

    marker = writes.index(f"questions-{killed_day}.jsonl")
    issued = writes.index(f"issued-{killed_day}.jsonl")
    for i in range(marker + 1, len(writes)):
        killed = tmp_path / f"killed-{i}"
        shutil.copytree(history, killed)
        with monkeypatch.context() as m:
            _kill_before_write(m, i + 1)
            with pytest.raises(_Killed):
                Orchestrator(config, killed).run_due_phases(evening(2))
        files = next_three_evenings(killed)
        if i <= issued:  # the day's benchmark was never issued, and a past day is not issued late
            # its gold and answers, written before the issued marker, are orphans like a sidecar
            # before its marker
            for name in ("gold", *(f"preds-{agent}" for agent in config.agents)):
                files.pop(f"benchmark/{name}-{killed_day}.jsonl", None)
            want = expected_unbenched
        else:
            want = expected
        differ = sorted(k for k in want.keys() | files.keys() if want.get(k) != files.get(k))
        assert differ == [], f"killed before write {i + 1} ({writes[i]})"


def test_a_benchmark_batch_is_never_answered_after_its_issue_evening(tmp_path, monkeypatch):
    # A later evening is past the batch's resolve time, so its answers could know the outcomes.
    config = _config(seed=3, event_rate=40)
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    killed_day = (START + timedelta(days=2)).isoformat()
    late_answers = {f"preds-{agent}-{killed_day}.jsonl" for agent in config.agents}
    history = tmp_path / "history"
    for offset in range(2):
        Orchestrator(config, history).run_due_phases(evening(offset))
    straight = tmp_path / "straight"
    shutil.copytree(history, straight)
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        Orchestrator(config, straight).run_due_phases(evening(2))

    for i in range(writes.index(f"questions-{killed_day}.jsonl") + 1, len(writes)):
        killed = tmp_path / f"killed-{i}"
        shutil.copytree(history, killed)
        with monkeypatch.context() as m:
            _kill_before_write(m, i + 1)
            with pytest.raises(_Killed):
                Orchestrator(config, killed).run_due_phases(evening(2))
        with monkeypatch.context() as m:
            later_writes = _kill_before_write(m, 0)
            for offset in range(3, 6):
                Orchestrator(config, killed).run_due_phases(evening(offset))
        assert late_answers.isdisjoint(later_writes), f"killed before write {i + 1} ({writes[i]})"
        shutil.rmtree(killed)


def _stamped_reads(monkeypatch):
    """Spy on ``jsonl.read_lines``, recording each read as (path, instant, inside an issue phase).

    Returns the reads and ``stamp(orch)``, which wraps ``orch``'s phases so
    that a read gets the ``now`` of its ``run_due_phases`` call, or
    ``resolve_at(day)`` inside a ``run_resolve_phase(day)`` called on its own.
    """
    reads, state = [], {"now": None, "issue": False}
    read_lines = jsonl.read_lines
    monkeypatch.setattr(
        jsonl, "read_lines",
        lambda path: reads.append((Path(path), state["now"], state["issue"])) or read_lines(path),
    )

    def during(method, key, value_of):
        def run(arg):
            outer = state[key]
            state[key] = outer or value_of(arg)
            try:
                return method(arg)
            finally:
                state[key] = outer
        return run

    def stamp(orch):
        for name, key, value_of in (
            ("run_due_phases", "now", lambda now: now),
            ("run_resolve_phase", "now", orch.config.resolve_at),
            ("run_issue_phase", "issue", lambda day: True),
        ):
            monkeypatch.setattr(orch, name, during(getattr(orch, name), key, value_of))
        return orch

    return reads, stamp


@pytest.mark.parametrize(
    "run",
    ["simulate lag 1", "simulate lag 2", "cron evenings", "cron 20:15 and 21:00, lag 1", "cron 20:15, lag 1"],
)
def test_no_outcome_file_is_read_before_its_resolve_instant(tmp_path, monkeypatch, run):
    lag = 1 if "lag 1" in run else 2
    config = _config(seed=3, event_rate=40)
    config = replace(config, benchmark=replace(config.benchmark, lag_days=lag))
    reads, stamp = _stamped_reads(monkeypatch)
    if run.startswith("cron"):
        # a call between the issue and resolve times issues the lag-1 benchmark batch but
        # leaves its report, which reads gold not resolved yet, to a later call
        clocks = {
            "cron evenings": [time(21, 0)],
            "cron 20:15 and 21:00, lag 1": [time(20, 15), time(21, 0)],
            "cron 20:15, lag 1": [time(20, 15)],
        }[run]
        for offset in range(4):
            for clock in clocks:
                evening = datetime.combine(START + timedelta(days=offset), clock, timezone.utc)
                stamp(Orchestrator(config, tmp_path)).run_due_phases(evening)
        for offset in range(4):
            assert (tmp_path / "benchmark" / f"issued-{START + timedelta(days=offset)}.jsonl").exists()
    else:
        stamp(Orchestrator(config, tmp_path)).simulate(3)
    kinds = set()
    for path, instant, in_issue in reads:
        match = re.fullmatch(r"(truth|gold)-(\d{4}-\d{2}-\d{2})\.jsonl", path.name)
        if match:
            kinds.add(match[1])
            assert not in_issue, f"{path.name} read by an issue phase"
            resolves = config.resolve_at(date.fromisoformat(match[2]))
            assert instant is not None and instant >= resolves, f"{path.name} read at {instant}"
    assert kinds == {"truth", "gold"}


def _cut_append(monkeypatch, n, cut):
    """Let the n-th ledger append finish, keep ``cut(its bytes)`` of them, and raise."""
    append = TrajectoryLedger._append_batch
    calls = []

    def call(self, day, records):
        calls.append(day)
        path = self._log_path(day)
        start = path.stat().st_size if path.exists() else 0
        seqs = append(self, day, records)
        if len(calls) == n:
            with path.open("r+b") as fh:
                fh.seek(start)
                fh.truncate(start + cut(fh.read()))
            raise _Killed(f"append {n} cut")
        return seqs

    monkeypatch.setattr(TrajectoryLedger, "_append_batch", call)
    return calls


def _mid_record(appended):
    """An offset halfway into the middle record of an append."""
    ends = [i + 1 for i, byte in enumerate(appended) if byte == ord("\n")]
    k = len(ends) // 2
    return ((ends[k - 1] if k else 0) + ends[k]) // 2


CUTS = {
    "after its first byte": lambda appended: 1,
    "in mid-record": _mid_record,
    "before its last newline": lambda appended: len(appended) - 1,
}


@pytest.mark.parametrize("zone", ["UTC", "America/New_York"])
def test_an_evening_killed_inside_any_ledger_append_reruns_to_the_uninterrupted_files(
    tmp_path, monkeypatch, zone
):
    config = _config(seed=3, event_rate=40, timezone=zone)
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), config.zone)
    history = tmp_path / "history"
    for offset in range(2):
        Orchestrator(config, history).run_due_phases(evening(offset))
    straight = tmp_path / "straight"
    shutil.copytree(history, straight)
    with monkeypatch.context() as m:
        appends = _cut_append(m, 0, len)
        Orchestrator(config, straight).run_due_phases(evening(2))
    expected = _run_files(straight)
    assert len(appends) == 2 * 3  # prefixes, backfills, discards

    for n in range(1, len(appends) + 1):
        for where, cut in CUTS.items():
            killed = tmp_path / f"killed-{n}-{where.replace(' ', '-')}"
            shutil.copytree(history, killed)
            with monkeypatch.context() as m:
                _cut_append(m, n, cut)
                with pytest.raises(_Killed):
                    Orchestrator(config, killed).run_due_phases(evening(2))
            Orchestrator(config, killed).run_due_phases(evening(2))
            files = _run_files(killed)
            differ = sorted(k for k in expected.keys() | files.keys() if expected.get(k) != files.get(k))
            assert differ == [], f"append {n} cut {where}"


@pytest.mark.parametrize(
    "zone, start",
    [
        ("UTC", START),
        # 20:00 AST on March 7 and 20:00 ADT on March 8 are both on UTC March 8
        ("America/Halifax", date(2026, 3, 7)),
    ],
)
def test_a_simulation_writes_what_cron_evenings_and_a_last_resolve_write(tmp_path, zone, start):
    config = _config(seed=3, event_rate=40, timezone=zone, start_day=start)
    simulated, evenings = tmp_path / "simulated", tmp_path / "evenings"
    Orchestrator(config, simulated).simulate(3)
    for offset in range(3):
        day = start + timedelta(days=offset)
        Orchestrator(config, evenings).run_due_phases(datetime.combine(day, time(21, 0), config.zone))
    orch = Orchestrator(config, evenings)
    orch.run_resolve_phase(day)
    orch.write_summary()
    expected, files = _run_files(simulated), _run_files(evenings)
    assert "reports/summary.json" in expected
    assert sorted(k for k in expected.keys() | files.keys() if expected.get(k) != files.get(k)) == []


def test_a_simulation_killed_before_any_write_reruns_to_the_uninterrupted_files(tmp_path, monkeypatch):
    config = _config(seed=3, event_rate=40)
    straight = tmp_path / "straight"
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        Orchestrator(config, straight).simulate(3)
    expected = _run_files(straight)
    assert writes[-1] == "summary.json"

    for n in range(1, len(writes) + 1):
        killed = tmp_path / f"killed-{n}"
        with monkeypatch.context() as m:
            _kill_before_write(m, n)
            with pytest.raises(_Killed):
                Orchestrator(config, killed).simulate(3)
        Orchestrator(config, killed).simulate(3)
        files = _run_files(killed)
        differ = sorted(k for k in expected.keys() | files.keys() if expected.get(k) != files.get(k))
        assert differ == [], f"killed before write {n} ({writes[n - 1]})"
        shutil.rmtree(killed)


def test_resolve_reads_back_questions_holding_a_line_separator(tmp_path):
    from conftest import make_event

    # Escaped in the feed, the separator is raw in the questions file.
    events = [
        replace(
            make_event(identifier=f"evt-u{i}", city="Oslo\u2028Nord", band=f"{50+i}-{51+i}°F"),
            resolver_key="answers",
        )
        for i in range(4)
    ]
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(json.dumps(jsonl.to_row(e)) + "\n" for e in events))
    answers = tmp_path / "answers.jsonl"
    answers.write_text(
        "".join(json.dumps({"identifier": e.identifier, "label": i % 2}) + "\n" for i, e in enumerate(events))
    )
    config = _config(
        sources=(str(feed),),
        answer_files={"answers": str(answers)},
        agents=("constant",),
        benchmark=BenchmarkSettings(enabled=False),
    )
    orch = Orchestrator(config, tmp_path / "run")
    assert orch.run_issue_phase(START).questions_issued == 4
    assert "\u2028" in orch.questions_path(START).read_text(encoding="utf-8")
    report = orch.run_resolve_phase(START)
    assert report.outcomes_resolved == 4


def test_an_unreadable_answer_file_overrides_the_built_in_truth_for_its_key(tmp_path):
    config = _config(
        answer_files={"synthetic": str(tmp_path / "missing.jsonl")},
        benchmark=BenchmarkSettings(enabled=False),
    )
    orch = Orchestrator(config, tmp_path / "run")
    issued = orch.run_issue_phase(START).questions_issued
    report = orch.run_resolve_phase(START)
    assert issued > 0 and report.outcomes_resolved == 0
    assert report.unresolved_reasons == {"resolver_error": issued}


def test_resolve_phase_reads_only_the_batch_days_truth_file(tmp_path, monkeypatch):
    config = _config(benchmark=BenchmarkSettings(enabled=False))
    orch = Orchestrator(config, tmp_path)
    for offset in range(3):
        orch.run_issue_phase(START + timedelta(days=offset))
    read = []
    real = SyntheticTruthResolver.from_files.__func__
    monkeypatch.setattr(
        SyntheticTruthResolver,
        "from_files",
        classmethod(lambda cls, paths: read.extend(p.name for p in paths) or real(cls, paths)),
    )
    report = orch.run_resolve_phase(START + timedelta(days=1))
    assert read == [f"truth-{(START + timedelta(days=1)).isoformat()}.jsonl"]
    assert report.outcomes_resolved > 0


def test_exports_follow_the_issue_day_west_of_utc(tmp_path):
    config = CycleConfig(
        seed=3,
        questions_per_day=40,
        agents=("oracle",),
        timezone="America/New_York",
        benchmark=BenchmarkSettings(enabled=False),
    )
    orch = Orchestrator(config, tmp_path)
    result = orch.simulate(3)
    for report in result.cycle_reports:
        assert report.groups_exported["oracle"] == report.outcomes_resolved > 0
        issued = {row["id"] for row in read_jsonl(orch.questions_path(report.day))}
        export = orch.export_path("oracle", report.day)
        exported = {row["question_id"] for row in read_jsonl(export)}
        assert exported <= issued
    # 20:00 in New York is on the next UTC date, but each log is named by its issue day
    assert _file_days(tmp_path, "ledgers/oracle/*") == _file_days(tmp_path, "questions/*") == {
        START + timedelta(days=offset) for offset in range(3)
    }


def _file_days(run_dir, pattern):
    """The days that name the run-directory files matching ``pattern``."""
    return {date.fromisoformat(path.stem[-10:]) for path in run_dir.glob(pattern)}


def test_simulation_reports_are_deterministic(tmp_path):
    a = Orchestrator(_config(), tmp_path / "a").simulate(2)
    b = Orchestrator(_config(), tmp_path / "b").simulate(2)
    assert [jsonl.to_row(r) for r in a.cycle_reports] == [jsonl.to_row(r) for r in b.cycle_reports]
    assert a.benchmark_reports == b.benchmark_reports
    summary = "reports/summary.json"
    assert (tmp_path / "a" / summary).read_bytes() == (tmp_path / "b" / summary).read_bytes()


def test_reports_read_back_as_the_records_the_phases_returned(tmp_path, monkeypatch):
    orch = Orchestrator(_config(), tmp_path)
    issued = []
    issue = orch.run_issue_phase
    monkeypatch.setattr(orch, "run_issue_phase", lambda day: issued.append(issue(day)) or issued[-1])
    result = orch.simulate(2)
    assert [r.day for r in issued] == [r.day for r in result.cycle_reports] == [START, START + timedelta(days=1)]
    for report in issued:
        assert jsonl.from_row(IssueReport, jsonl.read_json(orch.issue_report_path(report.day))) == report
    cycles = [jsonl.read_json(orch.cycle_report_path(r.day)) for r in result.cycle_reports]
    assert [jsonl.from_row(CycleReport, row) for row in cycles] == result.cycle_reports
    assert jsonl.read_json(orch.report_path("summary.json"))["cycles"] == cycles


@pytest.mark.parametrize(
    "zone, start",
    [
        ("UTC", START),
        # 20:00 AST on March 7 and 20:00 ADT on March 8 are both on UTC March 8
        ("America/Halifax", date(2026, 3, 7)),
    ],
)
def test_final_reports_equal_scores_over_the_replayed_ledgers(tmp_path, monkeypatch, zone, start):
    config = _config(timezone=zone, start_day=start)
    orch = Orchestrator(config, tmp_path)
    live = _live_ledgers(monkeypatch)
    orch.simulate(3)
    assert not list(live)  # every ledger the simulation built was dropped
    final = json.loads(orch.report_path("summary.json").read_text())["final"]
    for agent in config.agents:
        preds = [
            ProbPrediction(prob=t.final_probability, label=t.label)
            for t in replay(tmp_path / "ledgers" / agent).all_trajectories()
            if t.status is TrajectoryStatus.RESOLVED
        ]
        expected = summarize_probabilistic(preds, seed=derive_seed(config.seed, "final-ci", agent))
        assert final[agent] == json.loads(json.dumps(jsonl.to_row(expected)))
        assert final[agent]["n_predictions"] == len(preds) > 0


def test_each_cycle_report_scores_what_its_export_trains_on(tmp_path):
    """A batch's metrics count the trajectories its export holds, its mean reward is
    the negated Brier score, and its rollout counts are its issue report's."""
    config = _config(agents=("oracle", "constant", "malformed"))
    orch = Orchestrator(config, tmp_path)
    result = orch.simulate(3)
    assert len(result.cycle_reports) == 3
    for report in result.cycle_reports:
        issued = jsonl.read_json(orch.issue_report_path(report.day))
        assert report.rollouts_recorded == issued["rollouts_recorded"]
        for agent in config.agents:
            metrics = report.metrics[agent]
            groups = read_jsonl(orch.export_path(agent, report.day))
            assert metrics["n"] == sum(len(group["trajectories"]) for group in groups)
            if metrics["n"] == 0:
                assert metrics["mean_reward"] is None and metrics["brier"] is None
            else:
                assert repr(metrics["mean_reward"]) == repr(0.0 - metrics["brier"])


def _live_ledgers(monkeypatch) -> weakref.WeakSet:
    """The ledgers built from now on that something still references."""
    live: weakref.WeakSet = weakref.WeakSet()
    init = TrajectoryLedger.__init__

    def spied_init(ledger, root):
        init(ledger, root)
        live.add(ledger)

    monkeypatch.setattr(TrajectoryLedger, "__init__", spied_init)
    return live


def _simulation_peak_bytes(config: CycleConfig, run_dir, days: int) -> int:
    orch = Orchestrator(config, run_dir)
    tracemalloc.start()
    try:
        orch.simulate(days)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_does_not_grow_with_the_number_of_days(tmp_path):
    """Only the days in flight are held: D=6 peaks within 15% of D=2.

    What still grows with D is small: the resolved (probability, label)
    pairs and the cycle reports, ~20 KB a day here. Holding every
    replayed day, as simulate once did, adds ~300 KB a day, so D=6 then
    peaks ~40% above D=2.
    """
    config = _config(questions_per_day=30, event_rate=40, benchmark=BenchmarkSettings(enabled=False))
    Orchestrator(config, tmp_path / "warm-up").simulate(1)  # first-use caches are not the loop's
    short = _simulation_peak_bytes(config, tmp_path / "d2", 2)
    long = _simulation_peak_bytes(config, tmp_path / "d6", 6)
    assert long <= 1.15 * short, (short, long)


def test_cron_evenings_do_not_accumulate_memory(tmp_path, monkeypatch):
    """An orchestrator kept over five evenings holds no ledger between them.

    Each phase drops the ledger of the agent-day it worked on, so no
    ledger built during an evening outlives it, and evening 5 peaks within
    15% of evening 2 (~4% above it here). Keeping their days, as evenings
    once did, holds one more agent-day per agent each evening, and evening 5
    then peaks ~60% above evening 2. A full collection
    before each evening empties the interpreter's free lists, whose blocks
    tracemalloc counts: how full earlier tests left them would otherwise move
    the peaks by ~20 KB an evening. A warm-up evening first fills the
    first-use caches (imports, compiled patterns, record plans), which would
    otherwise stay traced: run alone, the test then peaks as in the suite.
    """
    config = _config(questions_per_day=30, event_rate=40, benchmark=BenchmarkSettings(enabled=False))
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    Orchestrator(config, tmp_path / "warm-up").run_due_phases(evening(0))
    orch = Orchestrator(config, tmp_path / "run")
    live = _live_ledgers(monkeypatch)
    peaks = []
    tracemalloc.start()
    try:
        for offset in range(5):
            gc.collect()
            tracemalloc.reset_peak()
            orch.run_due_phases(evening(offset))
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert not list(live)
    finally:
        tracemalloc.stop()
    assert peaks[4] <= 1.15 * peaks[1], peaks


# "repaired" tears the config's first agent; the resolve completes its short groups
@pytest.mark.parametrize(
    "torn", [None, "oracle", "constant"], ids=["complete", "repaired", "repaired-constant"]
)
def test_the_resolve_phase_holds_one_agents_day_at_a_time(tmp_path, monkeypatch, torn):
    config = _config(benchmark=BenchmarkSettings(enabled=False))
    Orchestrator(config, tmp_path).run_issue_phase(START)
    if torn:
        log = tmp_path / "ledgers" / torn / f"ledger-{START.isoformat()}.jsonl"
        log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
    orch = Orchestrator(config, tmp_path)  # as `fw resolve` runs it, in a new process
    held, day_of, live = [], TrajectoryLedger._day, _live_ledgers(monkeypatch)

    def spied_day(ledger, day):
        log = day_of(ledger, day)
        held.append(sum(len(each._days) for each in live))
        return log

    monkeypatch.setattr(TrajectoryLedger, "_day", spied_day)
    read = _reads(monkeypatch)
    orch.run_resolve_phase(START)
    assert len(config.agents) == 2 and max(held) == 1
    logs = [tmp_path / "ledgers" / agent / f"ledger-{START.isoformat()}.jsonl" for agent in config.agents]
    assert sorted(read) == sorted(logs)  # each day log once, the repaired one included


def test_two_issue_days_on_one_utc_date_keep_their_own_logs_and_exports(tmp_path):
    # 20:00 AST on March 7 and 20:00 ADT on March 8 are both on UTC March 8
    start = date(2026, 3, 7)
    config = _config(
        seed=3, event_rate=40, timezone="America/Halifax", start_day=start,
        benchmark=BenchmarkSettings(enabled=False),
    )
    orch = Orchestrator(config, tmp_path)
    result = orch.simulate(3)
    issued = _file_days(tmp_path, "questions/*")
    assert issued == {start + timedelta(days=offset) for offset in range(3)}
    for agent in config.agents:
        assert _file_days(tmp_path, f"ledgers/{agent}/*") == issued
        exported: set[str] = set()
        for report in result.cycle_reports:
            qids = [row["question_id"] for row in read_jsonl(orch.export_path(agent, report.day))]
            assert report.groups_exported[agent] == len(qids) > 0
            assert exported.isdisjoint(qids), report.day
            exported.update(qids)

def test_benchmark_phase_caps_and_two_day_lag(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    day0, day1, day2 = START, START + timedelta(days=1), START + timedelta(days=2)
    r0 = orch.run_benchmark_phase(day0)
    assert r0["issued_by_type"] == {
        "binary_choice": 5, "simple_mc": 10, "difficult_mc": 15, "numeric": 20,
    }
    assert r0["issued"] <= 50
    assert r0["scored_day"] is None
    r1 = orch.run_benchmark_phase(day1)
    assert r1["scored_day"] is None  # one-day-old batch is not yet due
    r2 = orch.run_benchmark_phase(day2)
    assert r2["scored_day"] == day0.isoformat()
    assert set(r2["scores"]) == {"oracle", "constant"}
    for score in r2["scores"].values():
        assert score["s_overall"] is not None


def test_an_agent_added_after_a_benchmark_batch_is_issued_is_not_scored_on_it(tmp_path):
    Orchestrator(_config(agents=("oracle",)), tmp_path).run_benchmark_phase(START)
    orch = Orchestrator(_config(agents=("oracle", "constant")), tmp_path)
    reports = [orch.run_benchmark_phase(START + timedelta(days=n)) for n in (1, 2, 3)]
    assert reports[1]["scored_day"] == START.isoformat()
    assert set(reports[1]["scores"]) == {"oracle"}
    assert reports[2]["scored_day"] == (START + timedelta(days=1)).isoformat()
    assert set(reports[2]["scores"]) == {"oracle", "constant"}
    assert jsonl.read_json(orch.benchmark_report_path(START + timedelta(days=2))) == reports[1]


def test_the_issue_report_is_written_once_before_the_questions_marker(tmp_path, monkeypatch):
    """It names the batch's agents, so a re-run of a complete day under other agents writes no file."""
    stamp = START.isoformat()
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        report = Orchestrator(_config(), tmp_path).run_issue_phase(START)
    assert writes == [
        f"truth-{stamp}.jsonl", f"hints-{stamp}.jsonl", f"issue-{stamp}.json", f"questions-{stamp}.jsonl",
        "_append_batch", "_append_batch",
    ]
    assert report.rollouts_recorded == {"oracle": 80, "constant": 80}
    with monkeypatch.context() as m:
        writes = _kill_before_write(m, 0)
        rerun = Orchestrator(_config(agents=("oracle", "noisy")), tmp_path).run_issue_phase(START)
    assert writes == [] and rerun == report


@pytest.mark.parametrize("resolved", [False, True], ids=["added-after-issue", "added-after-resolve"])
def test_a_resolve_backfills_only_the_agents_its_batch_was_issued_with(tmp_path, resolved):
    """An agent added to the config later is not rolled out after the outcomes."""
    config = _config(agents=("oracle",), benchmark=BenchmarkSettings(enabled=False))
    straight = Orchestrator(config, tmp_path / "straight")
    straight.run_issue_phase(START)
    straight.run_resolve_phase(START)
    run_dir = tmp_path / "added"
    Orchestrator(config, run_dir).run_issue_phase(START)
    if resolved:
        Orchestrator(config, run_dir).run_resolve_phase(START)
    added = Orchestrator(replace(config, agents=("oracle", "constant")), run_dir)
    assert added.run_resolve_phase(START).rollouts_recorded == {"oracle": 80}
    assert _run_files(run_dir) == _run_files(tmp_path / "straight")


def test_agents_changed_after_an_evening_leave_its_batches_as_an_unchanged_run_writes_them(tmp_path):
    """Day 0's ledgers, exports, reports and benchmark scores follow the agents it was issued with."""
    config = _config(seed=3, event_rate=40)
    evening = lambda offset: datetime.combine(START + timedelta(days=offset), time(21, 0), timezone.utc)
    changed = replace(config, agents=("oracle", "noisy"))
    for run_dir, later in ((tmp_path / "unchanged", config), (tmp_path / "changed", changed)):
        Orchestrator(config, run_dir).run_due_phases(evening(0))
        for offset in (1, 2):
            Orchestrator(later, run_dir).run_due_phases(evening(offset))

    scored = f"benchmark/benchmark-{START + timedelta(days=2)}.json"  # scores day 0's batch
    day_zero_files = lambda run_dir: {
        k: v for k, v in _run_files(run_dir).items() if START.isoformat() in k or k == scored
    }
    expected = day_zero_files(tmp_path / "unchanged")
    assert day_zero_files(tmp_path / "changed") == expected
    assert set(json.loads(expected[scored])["scores"]) == {"oracle", "constant"}
    assert f"exports/constant/train-{START}.jsonl" in expected


def test_a_summary_naming_an_agent_never_issued_creates_no_ledger(tmp_path):
    config = _config(agents=("oracle",), benchmark=BenchmarkSettings(enabled=False))
    Orchestrator(config, tmp_path).simulate(1)
    Orchestrator(replace(config, agents=("oracle", "constant")), tmp_path).write_summary()
    assert [p.name for p in (tmp_path / "ledgers").iterdir()] == ["oracle"]


def test_a_summary_scores_the_agents_its_cycle_reports_name(tmp_path):
    """Not the config's: the final scores name the agents every cycle's metrics name."""
    config = _config(agents=("oracle", "constant"), benchmark=BenchmarkSettings(enabled=False))
    Orchestrator(config, tmp_path).simulate(2)
    summary = tmp_path / "reports" / "summary.json"
    written = summary.read_bytes()
    result = Orchestrator(replace(config, agents=("oracle", "noisy")), tmp_path).write_summary()
    assert list(result.final_reports) == ["constant", "oracle"]
    assert summary.read_bytes() == written


def test_benchmark_missing_type_uses_dash_convention(tmp_path):
    settings = BenchmarkSettings(
        pool=BenchmarkPoolConfig(unresolved_rate=0.0, unresolved_rate_by_type={"numeric": 1.0})
    )
    orch = Orchestrator(_config(benchmark=settings), tmp_path)
    orch.run_benchmark_phase(START)
    report = orch.run_benchmark_phase(START + timedelta(days=2))
    score = report["scores"]["oracle"]
    assert score["s_num"] is None
    present = [score["s_bin"], score["s_smc"], score["s_dmc"]]
    assert score["s_overall"] == pytest.approx(sum(present) / 3)


def test_benchmark_questions_resolve_at_the_cycle_resolve_time(tmp_path):
    config = _config(timezone="America/New_York", resolve_time="18:15")
    Orchestrator(config, tmp_path).run_benchmark_phase(START)
    expected = config.resolve_at(START)
    assert expected == datetime(2026, 3, 3, 23, 15, tzinfo=timezone.utc)  # 18:15 EST
    rows = read_jsonl(tmp_path / "benchmark" / f"issued-{START.isoformat()}.jsonl")
    assert rows
    assert {jsonl.from_row(BenchmarkQuestion, r).resolution_time for r in rows} == {expected}


def test_simulate_runs_multiple_days_with_conservation(tmp_path):
    orch = Orchestrator(_config(), tmp_path)
    result = orch.simulate(3)
    assert len(result.cycle_reports) == 3
    for report in result.cycle_reports:
        assert report.outcomes_resolved + report.unresolved_count == report.questions_issued
        for agent, n_groups in report.groups_exported.items():
            assert n_groups <= report.outcomes_resolved
    assert set(result.final_reports) == {"oracle", "constant"}
    assert result.final_reports["oracle"].n_predictions > 0


def test_restart_between_phases_matches_uninterrupted_run(tmp_path):
    config = _config()
    straight = Orchestrator(config, tmp_path / "straight")
    straight.run_issue_phase(START)
    straight.run_resolve_phase(START)

    interrupted_dir = tmp_path / "interrupted"
    first_process = Orchestrator(config, interrupted_dir)
    first_process.run_issue_phase(START)
    del first_process  # "crash" between phases
    second_process = Orchestrator(config, interrupted_dir)
    second_process.run_issue_phase(START)  # rerun is a no-op
    second_process.run_resolve_phase(START)

    for agent in config.agents:
        left = sorted((tmp_path / "straight" / "ledgers" / agent).glob("ledger-*.jsonl"))
        right = sorted((interrupted_dir / "ledgers" / agent).glob("ledger-*.jsonl"))
        assert [p.name for p in left] == [p.name for p in right]
        for lp, rp in zip(left, right):
            assert lp.read_bytes() == rp.read_bytes()


def test_file_feed_source_flows_through_issue(tmp_path):
    from futureworld.jsonl import dumps_canonical
    from conftest import make_event

    feed = tmp_path / "feed.jsonl"
    events = [make_event(identifier=f"evt-f{i:02d}", city="Oslo", band=f"{50+i}-{51+i}°F") for i in range(6)]
    feed.write_text("\n".join(dumps_canonical(jsonl.to_row(e)) for e in events) + "\n")
    config = _config(
        sources=(str(feed),),
        questions_per_day=4,
        agents=("constant",),
    )
    orch = Orchestrator(config, tmp_path / "run")
    report = orch.run_issue_phase(START)
    assert report.candidates == 6
    assert report.questions_issued == 4


def test_config_yaml_round_trip(tmp_path):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text(
        """
seed: 42
start_day: 2026-04-01
issue_time: "20:00"
resolve_time: "20:30"
timezone: America/New_York
questions_per_day: 50
rollouts_per_question: 2
agents: [oracle, malformed]
event_rate: 120
unresolved_rate: 0.2
limits: {max_steps: 6, per_move_timeout: 30.0, min_searches: 1}
benchmark:
  enabled: true
  lag_days: 2
  caps: {binary_choice: 5, simple_mc: 10, difficult_mc: 15, numeric: 20, total: 50}
domain_rules:
  - {label: weather, keywords: [temperature, storm]}
  - {label: sports, keywords: [beat]}
"""
    )
    config = CycleConfig.from_yaml(config_file)
    assert config.seed == 42
    assert config.start_day == date(2026, 4, 1)
    assert config.timezone == "America/New_York"
    assert config.agents == ("oracle", "malformed")
    assert config.limits.max_steps == 6
    assert config.domain_rules[0].label == "weather"
    # local clock times convert through the configured timezone
    issue_utc = config.phase_datetime(date(2026, 4, 1), config.issue_time)
    assert issue_utc.hour == 0 and issue_utc.date() == date(2026, 4, 2)  # EDT 20:00 -> 00:00Z


def test_config_yaml_names_unknown_keys(tmp_path):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text("seed: 4\nquestion_per_day: 10\nagent: [oracle]\n")
    with pytest.raises(ValueError, match="unknown config keys: agent, question_per_day"):
        CycleConfig.from_yaml(config_file)


@pytest.mark.parametrize(
    "text, kind", [("5\n", "int"), ("- oracle\n", "list")], ids=["scalar", "list"]
)
def test_config_yaml_top_level_must_be_a_mapping(tmp_path, text, kind):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text(text)
    with pytest.raises(ValueError, match=f"top level must be a mapping of settings, got {kind}"):
        CycleConfig.from_yaml(config_file)


def test_an_empty_config_yaml_means_the_defaults(tmp_path):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text("")
    assert CycleConfig.from_yaml(config_file) == CycleConfig()


@pytest.mark.parametrize(
    "text, message",
    [
        ("limits: 5\n", "config limits must be a mapping, got int"),
        ("benchmark: [caps]\n", "config benchmark must be a mapping, got list"),
        ("benchmark: {caps: 5}\n", "config benchmark.caps must be a mapping, got int"),
        ("benchmark: {pool: x}\n", "config benchmark.pool must be a mapping, got str"),
        ("sources: [{path: a}]\n", r"config sources\[0\] must be str, got dict"),
        (
            "domain_rules:\n  - {label: weather, keywords: [storm]}\n  - 3\n",
            r"config domain_rules\[1\] must be a mapping, got int",
        ),
        ("question_templates: [[a, b]]\n", r"config question_templates\[0\] must be a mapping"),
        ("limits: {max_step: 3}\n", "unknown keys in config limits: max_step"),
        ("benchmark: {caps: {binary: 1}}\n", "unknown keys in config benchmark.caps: binary"),
        ("agents: oracle\n", "config agents must be a list, got str"),
        ("blocklist: spam\n", "config blocklist must be a list, got str"),
        (
            "domain_rules: [{label: weather, keywords: storm}]\n",
            r"config domain_rules\[0\].keywords must be a list, got str",
        ),
        ("questions_per_day: many\n", "config questions_per_day must be int, got str"),
        ("limits: {max_steps: x}\n", "config limits.max_steps must be int, got str"),
        ("timezone: 5\n", "config timezone must be str, got int"),
        # YAML 1.1 reads an unquoted 20:00 as the base-60 integer 1200
        ("issue_time: 20:00\n", "config issue_time must be str, got int"),
        ("benchmark: {skills: 5}\n", "config benchmark.skills must be a mapping, got int"),
        (
            "benchmark: {pool: {unresolved_rate_by_type: 5}}\n",
            "config benchmark.pool.unresolved_rate_by_type must be a mapping, got int",
        ),
        ("seed: true\n", "config seed must be int, got bool"),
        ("answer_files: {filedb: 5}\n", "config answer_files.filedb must be str, got int"),
        ("start_day: soon\n", "config start_day must be a date YYYY-MM-DD, got 'soon'"),
        ('resolve_time: "8pm"\n', "resolve_time must be a 24-hour HH:MM time, got '8pm'"),
        ('issue_time: "25:00"\n', "issue_time must be a 24-hour HH:MM time, got '25:00'"),
        (
            "limits: {per_move_timeout: -1}\n",
            "config limits: per_move_timeout must be positive",
        ),
        ("timezone: Nowhere/City\n", "timezone must be an IANA time zone, got 'Nowhere/City'"),
        ("benchmark: {lag_days: -1}\n", "config benchmark: lag_days must be at least 1, got -1"),
        (
            "benchmark: {skills: {oracle: 1.5, constant: -2}}\n",
            r"config benchmark: skills.oracle must lie in \[0, 1\], got 1.5",
        ),
        (
            "benchmark: {caps: {simple_mc: -2}}\n",
            "config benchmark.caps: simple_mc must be non-negative, got -2",
        ),
        ("benchmark: {caps: {total: -1}}\n", "config benchmark.caps: total must be non-negative, got -1"),
        (
            "benchmark: {pool: {numeric: -3}}\n",
            "config benchmark.pool: numeric must be non-negative, got -3",
        ),
        (
            "benchmark: {pool: {unresolved_rate: 7.5}}\n",
            r"config benchmark.pool: unresolved_rate must lie in \[0, 1\], got 7.5",
        ),
        (
            "benchmark: {pool: {unresolved_rate_by_type: {numeric: 1.5}}}\n",
            r"config benchmark.pool: unresolved_rate_by_type.numeric must lie in \[0, 1\], got 1.5",
        ),
        (
            "benchmark: {pool: {unresolved_rate_by_type: {binary: 0.5}}}\n",
            "config benchmark.pool: unresolved_rate_by_type names unknown types: binary",
        ),
        ("event_rate: -1\n", "event_rate must be non-negative, got -1"),
        ("information_level: 2\n", r"information_level must lie in \[0, 1\], got 2.0"),
        ("information_level: -5\n", r"information_level must lie in \[0, 1\], got -5.0"),
    ],
    ids=[
        "limits", "benchmark", "caps", "pool", "sources", "domain_rules",
        "question_templates",
        "limits-key", "caps-key", "agents-string", "blocklist-string", "keywords-string",
        "int-string", "nested-int-string", "timezone-int", "unquoted-clock", "skills-int",
        "nested-mapping-int", "seed-bool", "answer-file-int",
        "start-day", "clock-8pm", "clock-25h", "timeout-negative", "timezone-unknown",
        "lag-negative", "skill-above-1", "cap-negative", "cap-total-negative", "pool-count-negative",
        "pool-rate-above-1", "pool-type-rate-above-1", "pool-type-unknown",
        "event-rate-negative", "information-level-above-1", "information-level-negative",
    ],
)
def test_config_yaml_names_a_malformed_section(tmp_path, text, message):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text(text)
    with pytest.raises(ValueError, match=message):
        CycleConfig.from_yaml(config_file)


def _fields_left_at_default(value, path="config"):
    """Dotted paths of the fields in ``value``'s tree still equal to their defaults."""
    left = []
    for f in dataclasses.fields(value):
        got = getattr(value, f.name)
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if got == default:
            left.append(f"{path}.{f.name}")
        for i, item in enumerate(got if isinstance(got, tuple) else (got,)):
            if dataclasses.is_dataclass(item):
                left += _fields_left_at_default(item, f"{path}.{f.name}[{i}]")
    return left


def test_every_config_field_round_trips_through_yaml(tmp_path):
    """The settings dataclasses are the schema: a value in any field loads back."""
    config = CycleConfig(
        seed=42,
        start_day=date(2026, 4, 1),
        issue_time="19:00",
        resolve_time="19:45",
        timezone="Asia/Tokyo",
        questions_per_day=50,
        rollouts_per_question=2,
        agents=("noisy", "malformed"),
        event_rate=40,
        unresolved_rate=0.2,
        information_level=0.5,
        limits=RolloutLimits(max_steps=6, per_move_timeout=30.5, min_searches=2),
        benchmark=BenchmarkSettings(
            enabled=False,
            lag_days=3,
            caps=BenchmarkCaps(binary_choice=1, simple_mc=2, difficult_mc=3, numeric=4, total=9),
            pool=BenchmarkPoolConfig(
                binary_choice=2, simple_mc=3, difficult_mc=4, numeric=5,
                unresolved_rate=0.1, unresolved_rate_by_type={"numeric": 1.0},
            ),
            skills={"noisy": 0.6},
        ),
        sources=("feeds/a.jsonl", "feeds/b.jsonl"),
        domain_rules=(DomainRule("weather", ("storm",)),),
        question_templates=(QuestionTemplate("t", "Will {x} happen?", "About {x}."),),
        blocklist=("spam",),
        answer_files={"filedb": "answers/filedb.jsonl"},
        max_workers=1,
    )
    # 'discard' is the only unresolved policy and 1 the only worker count the config accepts
    assert _fields_left_at_default(config) == ["config.unresolved_policy", "config.max_workers"]
    config_file = tmp_path / "cycle.yaml"
    # through JSON, tuples become lists and the start day an ISO string
    plain = json.loads(json.dumps(dataclasses.asdict(config), default=str))
    config_file.write_text(yaml.safe_dump(plain))
    assert CycleConfig.from_yaml(config_file) == config


def test_config_yaml_float_settings_take_integers(tmp_path):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text("information_level: 1\nlimits: {per_move_timeout: 30}\n")
    config = CycleConfig.from_yaml(config_file)
    assert type(config.information_level) is float and config.information_level == 1.0
    assert type(config.limits.per_move_timeout) is float


def test_fw_reports_a_malformed_config_section_without_a_traceback(tmp_path, capsys):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text("limits: 5\n")
    run_dir = tmp_path / "run"
    code = cli.main(
        ["issue", "--config", str(config_file), "--run-dir", str(run_dir), "--day", "2026-03-02"]
    )
    assert code == 1
    assert "config limits must be a mapping, got int" in capsys.readouterr().err
    assert not run_dir.exists()


def test_fw_reports_a_yaml_syntax_error_as_one_line_naming_the_file_and_line(tmp_path, capsys):
    config_file = tmp_path / "cycle.yaml"
    config_file.write_text("seed: [\n")
    run_dir = tmp_path / "run"
    code = cli.main(
        ["issue", "--config", str(config_file), "--run-dir", str(run_dir), "--day", "2026-03-02"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config_file}: invalid YAML at line 2: ")
    assert err.count("\n") == 1
    assert not run_dir.exists()


@pytest.mark.parametrize("tz", ["Asia/Tokyo", "Europe/Berlin"])
def test_synthetic_events_resolve_at_the_cycle_resolve_time(tmp_path, tz):
    def run(zone: str):
        config = _config(
            seed=3, event_rate=40, agents=("oracle",), timezone=zone,
            benchmark=BenchmarkSettings(enabled=False),
        )
        orch = Orchestrator(config, tmp_path / zone.replace("/", "-"))
        return orch, orch.simulate(2).cycle_reports

    _, at_utc = run("UTC")
    orch, local = run(tz)
    assert [r.outcomes_resolved for r in local] == [r.outcomes_resolved for r in at_utc]
    assert [r.unresolved_reasons for r in local] == [r.unresolved_reasons for r in at_utc]
    assert all(r.outcomes_resolved > 0 for r in local)
    for report in local:
        for row in read_jsonl(orch.questions_path(report.day)):
            assert jsonl.from_row(Question, row).resolution_time == orch.config.resolve_at(report.day)


def test_file_feed_keeps_events_resolving_on_the_next_local_day_east_of_utc(tmp_path):
    tokyo = ZoneInfo("Asia/Tokyo")
    feed = tmp_path / "feed.jsonl"
    events = [
        CandidateEvent(
            source_id="feed",
            source_url=f"feed://{i}",
            observed_at=datetime(2026, 3, 2, 1, 0, tzinfo=timezone.utc),
            payload={"template": "temperature", "identifier": f"evt-{i}", "city": "Oslo",
                     "band": "50-51°F", "date": f"March {3 + i}"},
            # 08:00 JST on March 3 and 4 is 23:00 UTC on March 2 and 3
            expected_resolution=datetime(2026, 3, 3 + i, 8, 0, tzinfo=tokyo),
            resolver_key="feed",
        )
        for i in range(2)
    ]
    feed.write_text("".join(jsonl.dumps_canonical(jsonl.to_row(e)) + "\n" for e in events))
    config = _config(timezone="Asia/Tokyo", sources=(str(feed),))

    def issued_on(day: date) -> list[str]:
        fetched = fetch_all(config, day)
        return [e.identifier for e in fetched.events]

    assert issued_on(date(2026, 3, 1)) == []
    assert issued_on(date(2026, 3, 2)) == ["evt-0"]
    assert issued_on(date(2026, 3, 3)) == ["evt-1"]
    report = Orchestrator(config, tmp_path / "run").run_issue_phase(date(2026, 3, 2))
    assert report.candidates == 1 and report.questions_issued == 1


def _feed_run(tmp_path, feeds: dict[str, list[CandidateEvent]]) -> Orchestrator:
    """A constant-agent run over the named feed files, every event answered ``1``."""
    paths = []
    for name, events in feeds.items():
        path = tmp_path / name
        path.write_text("".join(jsonl.dumps_canonical(jsonl.to_row(e)) + "\n" for e in events))
        paths.append(str(path))
    answers = tmp_path / "answers.jsonl"
    identifiers = sorted({e.identifier for events in feeds.values() for e in events})
    answers.write_text("".join(json.dumps({"identifier": i, "label": 1}) + "\n" for i in identifiers))
    config = _config(
        sources=tuple(paths),
        answer_files={"answers": str(answers)},
        agents=("constant",),
        benchmark=BenchmarkSettings(enabled=False),
    )
    return Orchestrator(config, tmp_path / "run")


def _feed_event(identifier: str, i: int, **changes) -> CandidateEvent:
    from conftest import make_event

    event = make_event(identifier=identifier, city="Oslo", band=f"{50 + i}-{51 + i}°F")
    return replace(event, resolver_key="answers", **changes)


def test_a_feed_event_resolving_after_the_next_resolve_time_is_issued_a_day_later(tmp_path):
    # 21:00 UTC on March 3 is after that evening's 20:30 resolve, which would
    # find the outcome unpublished; the batch of March 3 resolves after it.
    late = datetime(2026, 3, 3, 21, 0, tzinfo=timezone.utc)
    events = [_feed_event(f"evt-late{i}", i, expected_resolution=late) for i in range(6)]
    reports = _feed_run(tmp_path, {"feed.jsonl": events}).simulate(2).cycle_reports
    assert [r.questions_issued for r in reports] == [0, 6]
    assert reports[1].outcomes_resolved == 6 and reports[1].unresolved_count == 0
    assert reports[1].groups_exported == {"constant": 6}


def test_two_feeds_sharing_an_identifier_issue_it_once(tmp_path):
    first = [_feed_event(f"evt-s{i}", i) for i in range(2)]
    second = [_feed_event("evt-s1", 2), _feed_event("evt-s2", 3)]
    orch = _feed_run(tmp_path, {"a.jsonl": first, "b.jsonl": second})
    report = orch.run_issue_phase(START)
    assert report.feed_errors == 1 and report.questions_issued == 3
    issued = [row["resolver_metadata"]["identifier"] for row in read_jsonl(orch.questions_path(START))]
    assert sorted(issued) == ["evt-s0", "evt-s1", "evt-s2"]
    assert orch.run_resolve_phase(START).outcomes_resolved == 3


def test_feed_events_that_build_no_question_are_counted_as_construct_errors(tmp_path):
    good, unknown, missing = (_feed_event(f"evt-c{i}", i) for i in range(3))
    unknown = replace(unknown, payload={**unknown.payload, "template": "forecast"})
    missing = replace(missing, payload={k: v for k, v in missing.payload.items() if k != "band"})
    report = _feed_run(tmp_path, {"feed.jsonl": [good, unknown, missing]}).run_issue_phase(START)
    assert report.candidates == 3 and report.feed_errors == 0
    assert report.construct_errors == 2 and report.constructed == 1
    assert report.questions_issued == 1


def test_synthetic_events_are_observed_before_the_issue_time_far_east_of_utc(tmp_path):
    zone = ZoneInfo("Pacific/Kiritimati")  # UTC+14: 20:00 local is 06:00 UTC the same day
    config = _config(
        seed=3, event_rate=40, agents=("oracle",), timezone="Pacific/Kiritimati",
        resolve_time="07:00", benchmark=BenchmarkSettings(enabled=False),
    )
    orch = Orchestrator(config, tmp_path)
    reports = orch.simulate(2).cycle_reports
    assert all(r.outcomes_resolved > 0 for r in reports)
    for report in reports:
        issue_at = config.phase_datetime(report.day, config.issue_time)
        for event in fetch_all(config, report.day).events:
            local = event.observed_at.astimezone(zone)
            assert local.date() == report.day and 6 <= local.hour < 18
            assert event.observed_at < issue_at < event.expected_resolution


def test_config_validation():
    with pytest.raises(ValueError):
        CycleConfig(rollouts_per_question=0)
    with pytest.raises(ValueError):
        CycleConfig(unresolved_policy="retry")
    with pytest.raises(ValueError):
        CycleConfig(timezone="Mars/Olympus")
    for workers in (0, 2):
        with pytest.raises(ValueError, match="the only supported max_workers is 1"):
            CycleConfig(max_workers=workers)
    for name in ("agents", "domain_rules", "question_templates"):
        with pytest.raises(ValueError, match=f"{name} must be non-empty"):
            CycleConfig(**{name: ()})
    # a blank word is in every text: it would drop, or classify, every pair
    for word in ("", "  ", "\t"):
        with pytest.raises(ValueError, match="blocklist terms must not be blank"):
            CycleConfig(blocklist=("hostage", word))
        rules = DEFAULT_DOMAIN_RULES + (DomainRule("science", ("telescope", word)),)
        with pytest.raises(ValueError, match="domain_rules keywords of 'science' must not be blank"):
            CycleConfig(domain_rules=rules)


def test_custom_blocklist_reaches_the_safety_judge(tmp_path):
    config = _config(blocklist=("temperature",), agents=("constant",))
    orch = Orchestrator(config, tmp_path)
    report = orch.run_issue_phase(START)
    # every temperature question is now filtered out
    questions = read_jsonl(orch.questions_path(START))
    assert all("temperature" not in q["text"] for q in questions)
    assert report.filtered_kept < report.constructed
