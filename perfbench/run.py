#!/usr/bin/env python3
"""futureworld benchmark: the daily loop, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload accept --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-module split. Either way
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metrics and the expected links between
them are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import date, datetime, time as clock_time, timedelta, timezone
from pathlib import Path
from typing import Any, Optional

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
ROLLOUTS = 4  # K, the group size, in every workload
START_DAY = date(2026, 3, 2)
EVENING = clock_time(21, 0)  # after both the 20:00 issue and the 20:30 resolve time
SETUP_REPEATS = 3
DIGEST_GLOBS = (
    "ledgers/*/ledger-*.jsonl",
    "exports/*/train-*.jsonl",
    "questions/questions-*.jsonl",
    "reports/cycle-*.json",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: simulated days D, or for live-day the H days of history before the timed evening
    days: int
    questions_per_day: int
    event_rate: int
    agents: tuple[str, ...]

    @property
    def live(self) -> bool:
        return self.name == "live-day"


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance suite's simulation: every layer at a small ledger size.
        Workload("accept", 5, 100, 300, ("oracle", "constant", "malformed")),
        # Paper scale: water-filling and K-means drop ~60% of pairs, and the
        # costs that grow with ledger size dominate. D=4 is the fewest days that
        # show growth in D. Not listed in BENCHMARK.json (see README.md).
        Workload("paper", 4, 500, 1200, ("oracle", "constant")),
        # One `fw cycle --live` evening on top of H days of default-shaped history;
        # H=4 keeps the history build (set-up) to about a fifth of a run.
        Workload("live-day", 4, 500, 300, ("oracle", "constant")),
    )
}


def make_config(w: Workload, seed: int):
    """Every CycleConfig field pinned, so a changed default cannot move a workload."""
    from futureworld.benchmark import BenchmarkPoolConfig
    from futureworld.orchestrator import BenchmarkSettings, CycleConfig
    from futureworld.prompts import BenchmarkCaps
    from futureworld.qpipeline import DEFAULT_BLOCKLIST, DEFAULT_DOMAIN_RULES, DEFAULT_TEMPLATES
    from futureworld.rollout import RolloutLimits

    return CycleConfig(
        seed=seed,
        start_day=START_DAY,
        issue_time="20:00",
        resolve_time="20:30",
        timezone="UTC",
        questions_per_day=w.questions_per_day,
        rollouts_per_question=ROLLOUTS,
        unresolved_policy="discard",
        agents=w.agents,
        event_rate=w.event_rate,
        unresolved_rate=0.3565,
        information_level=1.0,
        limits=RolloutLimits(max_steps=8, per_move_timeout=60.0, min_searches=1),
        benchmark=BenchmarkSettings(
            enabled=True,
            lag_days=2,
            caps=BenchmarkCaps(
                binary_choice=5, simple_mc=10, difficult_mc=15, numeric=20, total=50
            ),
            pool=BenchmarkPoolConfig(
                binary_choice=8,
                simple_mc=14,
                difficult_mc=18,
                numeric=24,
                unresolved_rate=0.15,
                unresolved_rate_by_type={},
            ),
            skills={"oracle": 0.85, "noisy": 0.7, "constant": 0.35},
        ),
        sources=(),
        domain_rules=DEFAULT_DOMAIN_RULES,
        question_templates=DEFAULT_TEMPLATES,
        blocklist=DEFAULT_BLOCKLIST,
        answer_files={},
        max_workers=1,
    )


def evening_of(offset: int) -> datetime:
    return datetime.combine(START_DAY + timedelta(days=offset), EVENING, tzinfo=timezone.utc)


# -- measurement helpers ---------------------------------------------------------


def read_wchar() -> int:
    """Bytes this process has passed to write() so far (includes page-cache writes)."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def dir_size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def ledger_lines(run_dir: Path) -> int:
    total = 0
    for path in run_dir.glob("ledgers/*/ledger-*.jsonl"):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh)
    return total


def flush_tree(path: Path) -> None:
    """fsync every file and directory under ``path``.

    Called on what the benchmark itself copied or deleted, outside the timed
    region, so a timed operation's first fsync does not also write out the
    benchmark's own dirty pages (ext4 commits them with the journal).
    """
    for entry in [path, *path.rglob("*")]:
        fd = os.open(entry, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run_digest(run_dir: Path) -> str:
    """Digest of the deterministic outputs: ledger logs, exports, questions, cycle reports."""
    h = hashlib.sha256()
    for pattern in DIGEST_GLOBS:
        for path in sorted(run_dir.glob(pattern)):
            data = path.read_bytes()
            h.update(f"{path.relative_to(run_dir).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_import() -> float:
    """Time for a fresh interpreter to import the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import futureworld.orchestrator"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - started


def environment(run_root: Path) -> dict[str, Any]:
    import numpy

    target = str(run_root.resolve())
    fs, mount = "unknown", ""
    for line in Path("/proc/self/mounts").read_text().splitlines():
        parts = line.split()
        point = parts[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(mount):
            fs, mount = parts[2], point
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_dir_fs": fs,
        "run_dir_mount": mount,
        "machine": platform.machine(),
    }


# -- tracing ----------------------------------------------------------------------

#: Functions timed in a traced run; each gives ``<label>.calls`` and ``<label>.busy_s``.
TRACED_CALLS = (
    "sources.fetch_all",
    "qpipeline.construct_pair",
    "qpipeline.apply_filters",
    "qpipeline.resample",
    "qpipeline.resample_domain",
    "embedding.embed_text",
    "rollout.run_group",
    "prompts.render_prediction_prompt",
    "ledger.replay",
    "ledger.append_prefix_batch",
    "ledger.backfill",
    "ledger.discard",
    "ledger.export_training_batch",
    "ledger.write_training_batch",
    "resolve.resolve_batch",
    "resolve.from_files",
    "scoring.summarize_probabilistic",
    "scoring.bootstrap_metric_ci",
    "scoring.bootstrap_ci",
    "benchmark.generate_benchmark_pool",
    "benchmark.score_benchmark_batch",
)
IO_CALLS = ("read_jsonl", "write_jsonl", "write_truth_file")
PHASES = {
    "run_issue_phase": "orchestrator.issue",
    "run_resolve_phase": "orchestrator.resolve",
    "run_benchmark_phase": "orchestrator.benchmark",
}


def _observe_filter(tr: Tracer, args: tuple, decision: Any) -> None:
    tr.add("filter.seen")
    tr.add("filter.kept", int(decision.keep))


def _observe_resample(tr: Tracer, args: tuple, selected: Any) -> None:
    tr.add("resample.in", len(args[0]))
    tr.add("resample.out", len(selected))


def _observe_group(tr: Tracer, args: tuple, results: Any) -> None:
    tr.add("rollouts", len(results))
    tr.add("rollouts.invalid", sum(r.trajectory.final_probability is None for r in results))
    tr.add("searches", sum(len(r.trajectory.steps) for r in results))


def _observe_resolve(tr: Tracer, args: tuple, resolution: Any) -> None:
    tr.add("resolve.resolved", len(resolution.outcomes))
    tr.add("resolve.unresolved", len(resolution.unresolved))


def _observe_truth(tr: Tracer, args: tuple, resolver: Any) -> None:
    tr.add("truth.rows", len(resolver.truth))


def install_tracing(tr: Tracer) -> None:
    """Wrap each module's public functions where their callers look them up."""
    from futureworld import orchestrator, qpipeline, scoring
    from futureworld.ledger import TrajectoryLedger
    from futureworld.resolve import SyntheticTruthResolver

    tr.patch(orchestrator, "fetch_all", "sources.fetch_all")
    tr.patch(orchestrator, "construct_pair", "qpipeline.construct_pair")
    tr.patch(orchestrator, "apply_filters", "qpipeline.apply_filters", _observe_filter)
    tr.patch(orchestrator, "resample", "qpipeline.resample", _observe_resample)
    tr.patch(qpipeline, "resample_domain", "qpipeline.resample_domain")
    tr.patch(qpipeline, "embed_text", "embedding.embed_text")
    tr.patch(orchestrator, "run_group", "rollout.run_group", _observe_group)
    tr.patch(orchestrator, "render_prediction_prompt", "prompts.render_prediction_prompt")
    tr.patch(TrajectoryLedger, "__init__", "ledger.replay")
    for method in ("append_prefix_batch", "backfill", "discard", "export_training_batch"):
        tr.patch(TrajectoryLedger, method, f"ledger.{method}")
    tr.patch(orchestrator, "write_training_batch", "ledger.write_training_batch")
    tr.patch(os, "fsync", "ledger.fsync")  # the ledger is the only caller of fsync
    tr.patch(orchestrator, "resolve_batch", "resolve.resolve_batch", _observe_resolve)
    tr.patch(SyntheticTruthResolver, "from_files", "resolve.from_files", _observe_truth)
    tr.patch(orchestrator, "summarize_probabilistic", "scoring.summarize_probabilistic")
    tr.patch(scoring, "bootstrap_metric_ci", "scoring.bootstrap_metric_ci")
    tr.patch(scoring, "bootstrap_ci", "scoring.bootstrap_ci")
    tr.patch(orchestrator, "generate_benchmark_pool", "benchmark.generate_benchmark_pool")
    tr.patch(orchestrator, "score_benchmark_batch", "benchmark.score_benchmark_batch")
    for name in IO_CALLS:
        tr.patch(orchestrator, name, f"orchestrator.io.{name}")


def time_phases(orch: Any, tr: Tracer) -> None:
    """Record one span per phase call on this orchestrator instance."""
    for method, name in PHASES.items():
        setattr(orch, method, tr.wrap(name, getattr(orch, method)))


# -- operations -----------------------------------------------------------------


@dataclass
class Op:
    """One measured call: a whole ``simulate(D)`` or one live evening."""

    tracer: Tracer
    traced: bool
    labels: list[str]  # the operations it counts as: each simulated day + finalize, or the evening
    failures: dict[str, str] = field(default_factory=dict)
    terminal: int = 0  # rollouts that reached a terminal record during the op
    disk_bytes: int = 0
    grown_bytes: int = 0
    wchar: int = 0
    records: int = 0
    digest: str = ""

    @property
    def wall(self) -> float:
        return self.tracer.durations("op")[0]

    def phase(self, name: str) -> list[float]:
        return self.tracer.durations(f"orchestrator.{name}")

    @property
    def finalize(self) -> float:
        return self.wall - sum(self.phase("issue")) - sum(self.phase("resolve"))

    def evenings(self) -> list[float]:
        if self.labels == ["evening"]:
            return [self.wall]
        issue, resolve, bench = self.phase("issue"), self.phase("resolve"), self.phase("benchmark")
        return [
            issue[t] + (resolve[t - 1] if t else 0.0) + bench[t] for t in range(len(issue))
        ]


Checked = tuple[int, dict[Optional[date], str]]


def check_outputs(
    run_dir: Path, cfg: Any, resolved_days: list[date], pending_from: Optional[date]
) -> Checked:
    """Check accounting, terminal records and group sizes.

    Returns the number of terminal trajectories and failures keyed by the
    batch day they concern (None for whole-run checks). Trajectories issued
    on or after ``pending_from`` may still be PENDING.
    """
    from futureworld.domain import TrajectoryStatus
    from futureworld.ledger import replay

    failures: dict[Optional[date], str] = {}
    for day in resolved_days:
        report = json.loads((run_dir / "reports" / f"cycle-{day.isoformat()}.json").read_text())
        if report["outcomes_resolved"] + report["unresolved_count"] != report["questions_issued"]:
            failures[day] = "issued != resolved + unresolved"
        for agent in cfg.agents:
            export = run_dir / "exports" / agent / f"train-{day.isoformat()}.jsonl"
            for line in export.read_text(encoding="utf-8").splitlines():
                if len(json.loads(line)["trajectories"]) != cfg.rollouts_per_question:
                    failures[day] = f"{agent} exported a group without K entries"
    terminal = 0
    for agent in cfg.agents:
        for t in replay(run_dir / "ledgers" / agent).all_trajectories():
            if t.status is not TrajectoryStatus.PENDING:
                terminal += 1
            elif pending_from is None or t.prediction_time.date() < pending_from:
                failures[None] = f"{agent} trajectory {t.trajectory_id} still PENDING"
    return terminal, failures


def checked_once(
    verified: dict[str, Checked], digest: str, run_dir: Path, *check_args: Any
) -> Checked:
    """Run ``check_outputs`` once per distinct digest: identical bytes check identically."""
    if digest not in verified:
        verified[digest] = check_outputs(run_dir, *check_args)
    return verified[digest]


@dataclass
class Bench:
    """What every operation of one run shares."""

    workload: Workload
    cfg: Any
    verified: dict[str, Checked] = field(default_factory=dict)

    def measure(self, op: Op, call: Any, *args: Any) -> Any:
        """Run ``call`` as the operation's root span, counting bytes written."""
        wchar = read_wchar()
        try:
            return op.tracer.wrap("op", call)(*args)
        finally:
            op.wchar = read_wchar() - wchar
            op.tracer.restore()


def run_sim_op(bench: Bench, run_dir: Path, traced: bool) -> Op:
    from futureworld.orchestrator import Orchestrator

    w, cfg = bench.workload, bench.cfg
    tr = Tracer()
    op = Op(tr, traced, [f"day-{i}" for i in range(w.days)] + ["finalize"])
    orch = Orchestrator(cfg, run_dir)
    time_phases(orch, tr)
    if traced:
        install_tracing(tr)
    try:
        result = bench.measure(op, orch.simulate, w.days)
    except Exception:
        traceback.print_exc()
        op.failures = {label: "raised" for label in op.labels}
        return op

    op.digest = run_digest(run_dir)
    days = [START_DAY + timedelta(days=i) for i in range(w.days)]
    op.terminal, failures = checked_once(bench.verified, op.digest, run_dir, cfg, days, None)
    for day, reason in failures.items():
        op.failures["finalize" if day is None else f"day-{(day - START_DAY).days}"] = reason
    if len(result.cycle_reports) != w.days:
        op.failures["finalize"] = f"{len(result.cycle_reports)} cycle reports for {w.days} days"
    if "oracle" in cfg.agents and "constant" in cfg.agents:
        oracle, constant = result.final_reports["oracle"], result.final_reports["constant"]
        if not oracle.brier < constant.brier:
            op.failures["finalize"] = f"oracle Brier {oracle.brier} >= constant {constant.brier}"
    op.disk_bytes = op.grown_bytes = dir_size(run_dir)
    op.records = ledger_lines(run_dir)
    return op


@dataclass
class History:
    """The live-day snapshot: H evenings already run, and what they left."""

    path: Path
    tracer: Tracer
    terminal: int
    records: int
    size: int


def build_history(bench: Bench, path: Path) -> History:
    """Run H cron evenings, each from a fresh orchestrator, as `fw cycle --live` would."""
    from futureworld.orchestrator import Orchestrator

    w, cfg = bench.workload, bench.cfg
    tr = Tracer()
    for offset in range(w.days):
        orch = Orchestrator(cfg, path)
        time_phases(orch, tr)
        orch.run_due_phases(evening_of(offset))
    resolved = [START_DAY + timedelta(days=i) for i in range(w.days - 1)]
    terminal, failures = check_outputs(path, cfg, resolved, START_DAY + timedelta(days=w.days - 1))
    if failures:
        raise RuntimeError(f"history failed its checks: {failures}")
    return History(path, tr, terminal, ledger_lines(path), dir_size(path))


def run_evening_op(bench: Bench, history: History, run_dir: Path, traced: bool) -> Op:
    from futureworld.orchestrator import Orchestrator

    w, cfg = bench.workload, bench.cfg
    today = START_DAY + timedelta(days=w.days)
    yesterday = today - timedelta(days=1)
    shutil.copytree(history.path, run_dir)
    flush_tree(run_dir)  # the history was written a day ago, not just now
    tr = Tracer()
    op = Op(tr, traced, ["evening"])
    orch = Orchestrator(cfg, run_dir)
    time_phases(orch, tr)
    if traced:
        install_tracing(tr)
    try:
        executed = bench.measure(op, orch.run_due_phases, evening_of(w.days))
    except Exception:
        traceback.print_exc()
        op.failures["evening"] = "raised"
        return op

    expected = [f"issue:{today}", f"resolve:{yesterday}", f"benchmark:{today}"]
    if executed != expected:
        op.failures["evening"] = f"ran {executed}, expected {expected}"
    op.digest = run_digest(run_dir)
    terminal, failures = checked_once(bench.verified, op.digest, run_dir, cfg, [yesterday], today)
    if failures:
        op.failures["evening"] = "; ".join(failures.values())
    op.terminal = terminal - history.terminal
    op.disk_bytes = dir_size(run_dir)
    op.grown_bytes = op.disk_bytes - history.size
    op.records = ledger_lines(run_dir) - history.records
    return op


# -- metrics ----------------------------------------------------------------------


#: Every end-to-end metric the benchmark prints, with its unit. BENCHMARK.json
#: gates a subset of them; perfbench/README.md says why the rest are not gated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "rollouts_per_s": "1/s",
    "issue_s.p50": "s",
    "issue_s.p90": "s",
    "resolve_s.p50": "s",
    "resolve_s.p90": "s",
    "finalize_s": "s",
    "evening_s.p50": "s",
    "evening_s.p90": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
    "ops_failed_ratio": "ratio",
}


def end_to_end(
    ops: list[Op], setup_s: float, peak_rss_kib: int, attempted: int, failed: int
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics and the sample count behind each."""
    issue = [x for op in ops for x in op.phase("issue")]
    resolve = [x for op in ops for x in op.phase("resolve")]
    evenings = [x for op in ops for x in op.evenings()]
    values = {
        "setup_s": setup_s,
        "rollouts_per_s": statistics.median(op.terminal / op.wall for op in ops),
        "issue_s.p50": percentile(issue, 50),
        "issue_s.p90": percentile(issue, 90),
        "resolve_s.p50": percentile(resolve, 50),
        "resolve_s.p90": percentile(resolve, 90),
        "finalize_s": statistics.median(op.finalize for op in ops),
        "evening_s.p50": percentile(evenings, 50),
        "evening_s.p90": percentile(evenings, 90),
        "peak_rss_mb": peak_rss_kib / 1024,
        "disk_mb": statistics.median(op.disk_bytes for op in ops) / 1e6,
        "ops_failed_ratio": failed / attempted,
    }
    samples = {name: len(ops) for name in values}
    samples.update({"setup_s": SETUP_REPEATS, "peak_rss_mb": 1, "ops_failed_ratio": attempted})
    for name, pool in (("issue_s", issue), ("resolve_s", resolve), ("evening_s", evenings)):
        samples[f"{name}.p50"] = samples[f"{name}.p90"] = len(pool)
    return values, samples


def per_layer(
    traced: list[Op], untraced: list[Op], history: Optional[History]
) -> dict[str, float]:
    """Per-module metrics, averaged per traced operation."""
    n = len(traced)
    stats: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for op in traced:
        for name, entry in op.tracer.by_name().items():
            acc = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in op.tracer.counts.items():
            counts[key] = counts.get(key, 0) + value

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for label in TRACED_CALLS:
        m[f"{label}.calls"] = stat(label, "calls")
        m[f"{label}.busy_s"] = stat(label, "busy_s")
    m["qpipeline.filter.kept_ratio"] = ratio(counts.get("filter.kept", 0), counts.get("filter.seen", 0))
    m["qpipeline.resample.kept_ratio"] = ratio(counts.get("resample.out", 0), counts.get("resample.in", 0))
    m["rollout.invalid_ratio"] = ratio(counts.get("rollouts.invalid", 0), counts.get("rollouts", 0))
    m["rollout.searches"] = counts.get("searches", 0) / n
    fsyncs = stat("ledger.fsync", "calls")
    m["ledger.fsyncs"] = fsyncs
    m["ledger.fsync.busy_s"] = stat("ledger.fsync", "busy_s")
    m["ledger.records_per_fsync"] = ratio(sum(op.records for op in traced) / n, fsyncs)
    m["resolve.from_files.rows"] = counts.get("truth.rows", 0) / n
    resolved, unresolved = counts.get("resolve.resolved", 0), counts.get("resolve.unresolved", 0)
    m["resolve.unresolved_ratio"] = ratio(unresolved, resolved + unresolved)
    m["orchestrator.issue.self_s"] = stat("orchestrator.issue", "self_s")
    m["orchestrator.resolve.self_s"] = stat("orchestrator.resolve", "self_s")
    m["orchestrator.finalize_s"] = statistics.median(op.finalize for op in untraced)
    io_names = [f"orchestrator.io.{name}" for name in IO_CALLS]
    m["orchestrator.io.calls"] = sum(stat(name, "calls") for name in io_names)
    m["orchestrator.io.busy_s"] = sum(stat(name, "busy_s") for name in io_names)
    if history is None:
        # last simulated day over the first, per untraced simulation
        m["orchestrator.issue_growth"] = statistics.median(
            op.phase("issue")[-1] / op.phase("issue")[0] for op in untraced
        )
        m["orchestrator.resolve_growth"] = statistics.median(
            op.phase("resolve")[-1] / op.phase("resolve")[0] for op in untraced
        )
    else:
        # the timed evening over the first evening of the history that ran the phase
        for phase in ("issue", "resolve"):
            first = history.tracer.durations(f"orchestrator.{phase}")[0]
            evening = statistics.median(op.phase(phase)[0] for op in untraced)
            m[f"orchestrator.{phase}_growth"] = evening / first
    m["io.write_mb"] = sum(op.wchar for op in traced) / n / 1e6
    m["io.write_amplification"] = ratio(
        sum(op.wchar for op in traced), sum(op.grown_bytes for op in traced)
    )
    m["trace.overhead_ratio"] = statistics.median(op.wall for op in traced) / statistics.median(
        op.wall for op in untraced
    )
    return m


def per_day_table(ops: list[Op], history: Optional[History]) -> list[dict[str, Any]]:
    """Median issue/resolve seconds against the day index, so growth in D shows."""
    rows = []
    if history is not None:
        issue = history.tracer.durations("orchestrator.issue")
        resolve = history.tracer.durations("orchestrator.resolve")
        for i, value in enumerate(issue):
            rows.append({"day": i, "issue_s": value, "resolve_s": resolve[i] if i < len(resolve) else None})
        rows.append({
            "day": len(issue),
            "issue_s": statistics.median(op.phase("issue")[0] for op in ops),
            "resolve_s": None,
        })
        rows[-2]["resolve_s"] = statistics.median(op.phase("resolve")[0] for op in ops)
        return rows
    days = min(len(op.phase("issue")) for op in ops)
    for i in range(days):
        rows.append({
            "day": i,
            "issue_s": statistics.median(op.phase("issue")[i] for op in ops),
            "resolve_s": statistics.median(op.phase("resolve")[i] for op in ops),
        })
    return rows


# -- entry point ------------------------------------------------------------------


def set_up(w: Workload, seed: int, work: Path) -> tuple[Bench, Optional[History], float]:
    """Import the package and prepare the run; returns the set-up time with it.

    The import is timed in fresh interpreters; this process imports it before
    the run-dir preparation is timed, so set-up counts the import once.
    """
    imports = [time_import() for _ in range(SETUP_REPEATS)]
    import futureworld.orchestrator  # noqa: F401

    started = time.perf_counter()
    bench = Bench(w, make_config(w, seed))
    history = build_history(bench, work / "history") if w.live else None
    setup_s = statistics.median(imports) + time.perf_counter() - started
    flush_tree(work)
    return bench, history, setup_s


def run_ops(
    bench: Bench, history: Optional[History], work: Path, seconds: float, trace: bool
) -> tuple[list[Op], int]:
    """Run operations until the next one would end after ``seconds``.

    Returns them and the peak RSS in KiB over set-up and the first operation,
    which does not depend on how many operations fit in the run.
    """
    ops: list[Op] = []
    step = 2 if trace else 1  # a traced run measures untraced/traced pairs
    started = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        run_dir = work / f"op-{len(ops)}"
        if history is not None:
            op = run_evening_op(bench, history, run_dir, traced)
        else:
            op = run_sim_op(bench, run_dir, traced)
        shutil.rmtree(run_dir)
        flush_tree(work)
        ops.append(op)
        if len(ops) == 1:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        if len(ops) % step:
            continue
        if any(not o.digest for o in ops):
            return ops, peak_rss_kib  # an operation raised; its timing is meaningless
        next_cost = sum(o.wall for o in ops[-step:])
        if time.perf_counter() - started + next_cost > seconds:
            return ops, peak_rss_kib


def check_digests(ops: list[Op], pinned: Optional[str]) -> None:
    """Count a failure unless every operation wrote the same bytes as the pinned digest."""
    digests = {op.digest for op in ops}
    if len(digests) != 1:
        # same seed, same inputs: every operation (traced or not) must write the same bytes
        ops[-1].failures.setdefault(ops[-1].labels[-1], f"digests differ: {sorted(digests)}")
    digest = ops[0].digest
    if pinned is not None and digest != pinned:
        for op in ops:
            op.failures.setdefault(op.labels[-1], f"digest {digest} != pinned {pinned}")
    verdict = "not pinned for this seed" if pinned is None else "matches pinned" if digest == pinned else "MISMATCH"
    print(f"digest {digest} ({verdict})")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--run-root",
        type=Path,
        default=ROOT / ".bench_runs",
        help="directory for the run directories (removed afterwards) and the span dump",
    )
    args = parser.parse_args(argv)

    if not (SRC / "futureworld" / "__init__.py").is_file():
        print(f"benchmark: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())[w.name].get(str(args.seed))

    run_root = args.run_root.resolve()
    work = run_root / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    env = environment(run_root)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        bench, history, setup_s = set_up(w, args.seed, work)
        ops, peak_rss_kib = run_ops(bench, history, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not args.trace:  # a traced run leaves its span dump here
            with contextlib.suppress(OSError):
                run_root.rmdir()  # only if no other run is using it

    check_digests(ops, pinned)
    attempted = sum(len(op.labels) for op in ops)
    failed = sum(len(op.failures) for op in ops)
    for i, op in enumerate(ops):
        for label, reason in op.failures.items():
            print(f"FAILED op {i} {label}: {reason}")
    print(f"{w.name}: {len(ops)} operations ({attempted} attempted, {failed} failed)")
    print("operation s (T traced): " + " ".join(f"{op.wall:.3f}{'T' if op.traced else ''}" for op in ops))
    # timings come only from operations that ran to the end
    untraced = [op for op in ops if op.digest and not op.traced]
    traced_ops = [op for op in ops if op.digest and op.traced]
    if not untraced or (args.trace and not traced_ops):
        print("benchmark: no operation completed", file=sys.stderr)
        return 1
    print("day  issue_s   resolve_s")
    for row in per_day_table(untraced, history):
        cells = [f"{row[k]:.4f}" if row[k] is not None else "--" for k in ("issue_s", "resolve_s")]
        print(f"{row['day']:<4} {cells[0]:<9} {cells[1]}")

    values, samples = end_to_end(untraced, setup_s, peak_rss_kib, attempted, failed)
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, value in values.items():
        note = "" if name in gated else ", not gated"
        print(f"{name:<16} {value:.6g} {END_TO_END_UNITS[name]} (n={samples[name]}{note})")
    if args.trace:
        values = per_layer(traced_ops, untraced, history)
        for phase in ("op", *PHASES.values()):
            split = traced_ops[0].tracer.breakdown(phase)
            parts = ", ".join(f"{k}={v:.3f}" for k, v in sorted(split.items(), key=lambda kv: -kv[1]))
            print(f"self-time split of {phase} (first traced op): {parts}")
        dump = run_root / f"spans-{w.name}-seed{args.seed}.json"
        dump.write_text(json.dumps({
            "env": env,
            "workload": w.name,
            "seed": args.seed,
            "per_day": per_day_table(untraced, history),
            "ops": [{"traced": op.traced, "spans": op.tracer.spans} for op in ops],
        }))
        print(f"spans written to {dump}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    if missing or (args.trace and len(wanted) != len(values)):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
