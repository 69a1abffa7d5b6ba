"""The daily cycle: issue questions, run rollouts, resolve, backfill, export.

Timeline for one batch: questions are issued at the configured issue time on
day t (default 20:00) and their outcomes are retrieved at the configured
resolve time on day t+1 (default 20:30). Retrieved outcomes are backfilled
into the stored prefixes; questions whose outcomes could not be retrieved are
discarded and excluded from training and scoring. The daily benchmark runs on
its own two-day resolution lag.

One loop schedules the phases: the cron evening ``run_due_phases`` runs
each phase whose time has passed, releases the day it issued at once, and
resolves only batches without a cycle report. ``simulate`` is D such
evenings on a virtual clock (no waiting, deterministic given the seed), then
the last day's resolve and a summary whose final scores replay the resolved
batches. Both run the scripted agents and the simulated search tool, each
built in one place below, and the rule-based question filter. Every phase is
a pure function of (config, ledger state, day), so a run can be killed
between phases and re-invoked without changing the final ledger.
"""

from __future__ import annotations

import time as _walltime
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .agents import SCRIPTED_AGENTS, SimulatedSearchTool, make_scripted_agent
from .benchmark import (
    BenchmarkAnswer,
    BenchmarkPoolConfig,
    DegenerateAnswerer,
    GoldRecord,
    SeededAnswerer,
    generate_benchmark_pool,
    score_benchmark_batch,
)
from .domain import Question, TrajectoryStatus
from .embedding import HashingEmbedder
from .jsonl import from_row, read_json, read_jsonl, to_row, write_json, write_jsonl
from .ledger import TrajectoryLedger, write_training_batch
from .prompts import (
    BenchmarkCaps,
    BenchmarkQuestion,
    render_benchmark_prompt,
    render_prediction_prompt,
    select_daily_benchmark,
)
from .qpipeline import (
    DEFAULT_BLOCKLIST,
    DEFAULT_DOMAIN_RULES,
    DEFAULT_TEMPLATES,
    DomainRule,
    QuestionTemplate,
    apply_filters,
    construct_pair,
    resample,
)
from .resolve import SyntheticTruthResolver, answer_file_resolvers, resolve_batch
from .rollout import RolloutLimits, run_group
from .scoring import ProbPrediction, ScoreReport, sum_in_order, summarize_probabilistic
from .seeding import derive_seed
from .sources import fetch_all, write_truth_file


@dataclass(frozen=True)
class BenchmarkSettings:
    enabled: bool = True
    lag_days: int = 2
    caps: BenchmarkCaps = field(default_factory=BenchmarkCaps)
    pool: BenchmarkPoolConfig = field(default_factory=BenchmarkPoolConfig)
    #: scripted answerer skill per agent name; unknown names get 0.5
    skills: Mapping[str, float] = field(
        default_factory=lambda: {"oracle": 0.85, "noisy": 0.7, "constant": 0.35}
    )

    def __post_init__(self) -> None:
        if self.lag_days < 1:  # a batch resolves the day after it is issued
            raise ValueError(f"lag_days must be at least 1, got {self.lag_days}")


@dataclass(frozen=True)
class CycleConfig:
    seed: int = 0
    start_day: date = date(2026, 3, 2)
    issue_time: str = "20:00"
    resolve_time: str = "20:30"
    timezone: str = "UTC"
    questions_per_day: int = 500
    rollouts_per_question: int = 4
    unresolved_policy: str = "discard"
    agents: tuple[str, ...] = ("oracle", "constant")
    #: the built-in world's candidate events per day
    event_rate: int = 300
    #: observed unresolved share of daily questions: the built-in world marks
    #: this share of its events unretrievable at resolve time
    unresolved_rate: float = 0.3565
    information_level: float = 1.0
    limits: RolloutLimits = field(default_factory=RolloutLimits)
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    #: JSONL feed files of candidate events; none means the built-in world
    sources: tuple[str, ...] = ()
    domain_rules: tuple[DomainRule, ...] = DEFAULT_DOMAIN_RULES
    question_templates: tuple[QuestionTemplate, ...] = DEFAULT_TEMPLATES
    blocklist: tuple[str, ...] = DEFAULT_BLOCKLIST
    answer_files: Mapping[str, str] = field(default_factory=dict)
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.questions_per_day < 0:
            raise ValueError("questions_per_day must be non-negative")
        if self.rollouts_per_question < 1:
            raise ValueError("rollouts_per_question must be at least 1")
        if self.unresolved_policy != "discard":
            raise ValueError("the only supported unresolved policy is 'discard'")
        if self.event_rate < 0:
            raise ValueError(f"event_rate must be non-negative, got {self.event_rate}")
        if not 0.0 <= self.unresolved_rate <= 1.0:
            raise ValueError(f"unresolved_rate must lie in [0, 1], got {self.unresolved_rate}")
        if not 0.0 <= self.information_level <= 1.0:
            raise ValueError(
                f"information_level must lie in [0, 1], got {self.information_level}"
            )
        if self.max_workers != 1:  # rollouts run serially
            raise ValueError("the only supported max_workers is 1")
        # Checked here, before a phase writes anything under an agent's name.
        unknown = [a for a in self.agents if a not in SCRIPTED_AGENTS]
        if unknown:
            raise ValueError(f"unknown agents {unknown}; available: {list(SCRIPTED_AGENTS)}")
        for name in ("agents", "domain_rules", "question_templates"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError(f"agent names repeat: {list(self.agents)}")
        # A blank word is in every text: it would drop, or classify, every pair.
        if any(not term.strip() for term in self.blocklist):
            raise ValueError(f"blocklist terms must not be blank, got {list(self.blocklist)}")
        for rule in self.domain_rules:
            if any(not keyword.strip() for keyword in rule.keywords):
                raise ValueError(f"domain_rules keywords of {rule.label!r} must not be blank")
        _parse_clock(self.issue_time, "issue_time")
        _parse_clock(self.resolve_time, "resolve_time")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError):
            raise ValueError(f"timezone must be an IANA time zone, got {self.timezone!r}") from None

    @property
    def zone(self) -> ZoneInfo:
        """The timezone whose local days the cycle's days are."""
        return ZoneInfo(self.timezone)

    def phase_datetime(self, day: date, clock_text: str) -> datetime:
        """The UTC instant of local time ``clock_text`` on local ``day``."""
        local = datetime.combine(day, _parse_clock(clock_text), tzinfo=self.zone)
        return local.astimezone(timezone.utc)

    def resolve_at(self, day: date) -> datetime:
        """When the batch issued on local ``day`` resolves: resolve time on day+1."""
        return self.phase_datetime(day + timedelta(days=1), self.resolve_time)

    @classmethod
    def from_yaml(cls, path: Path) -> "CycleConfig":
        """Load a config file, each value checked against its setting's type.

        An empty file means the defaults. YAML is imported here, not with the
        module: only ``--config`` needs it.
        """
        import yaml

        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(
                f"config {path}: the top level must be a mapping of settings, "
                f"got {type(raw).__name__}"
            )
        return from_row(cls, raw, "config", strict=True)


def _parse_clock(text: str, name: str = "clock time") -> time:
    try:
        hour, minute = text.split(":")
        return time(int(hour), int(minute))
    except (AttributeError, ValueError):
        raise ValueError(f"{name} must be a 24-hour HH:MM time, got {text!r}") from None


def _batch_metrics(preds: Sequence[ProbPrediction], rewards: Sequence[float]) -> dict[str, Any]:
    """A resolved batch's cycle-report metrics, from its pairs and rewards in log order."""
    if not preds:
        return {"n": 0, "accuracy": None, "brier": None, "ece": None, "mean_reward": None}
    summary = summarize_probabilistic(preds, with_intervals=False)
    return {
        "n": len(preds),
        "accuracy": summary.accuracy,
        "brier": summary.brier,
        "ece": summary.ece,
        "mean_reward": sum_in_order(rewards) / len(rewards),
    }


@dataclass
class IssueReport:
    day: date
    candidates: int = 0
    feed_errors: int = 0
    constructed: int = 0
    construct_errors: int = 0
    filtered_kept: int = 0
    #: how many constructed pairs each filter reason dropped; a pair that
    #: several criteria flag counts once under each reason
    dropped_by_reason: dict[str, int] = field(default_factory=dict)
    questions_issued: int = 0
    rollouts_recorded: dict[str, int] = field(default_factory=dict)


@dataclass
class CycleReport:
    """Accounting for one matured batch: issued on ``day``, resolved next day."""

    day: date
    questions_issued: int
    rollouts_recorded: dict[str, int]
    outcomes_resolved: int
    unresolved_count: int
    unresolved_reasons: dict[str, int]
    groups_exported: dict[str, int]
    metrics: dict[str, dict[str, Any]]


@dataclass
class SimulationResult:
    run_dir: Path
    cycle_reports: list[CycleReport]
    benchmark_reports: list[dict[str, Any]]
    final_reports: dict[str, ScoreReport]
    elapsed_seconds: float


class Orchestrator:
    """Drives the phases against one run directory.

    All state lives on disk (question batches, sidecars, ledgers, exports,
    reports); constructing an orchestrator over an existing run directory
    resumes exactly where the previous process stopped.
    """

    def __init__(self, config: CycleConfig, run_dir: Path):
        self.config = config
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.embedder = HashingEmbedder(seed=config.seed)
        self._ledgers: dict[str, TrajectoryLedger] = {}

    # -- paths ---------------------------------------------------------------

    def questions_path(self, day: date) -> Path:
        return self.run_dir / "questions" / f"questions-{day.isoformat()}.jsonl"

    def truth_path(self, day: date) -> Path:
        return self.run_dir / "truth" / f"truth-{day.isoformat()}.jsonl"

    def hints_path(self, day: date) -> Path:
        return self.run_dir / "hints" / f"hints-{day.isoformat()}.jsonl"

    def export_path(self, agent: str, day: date) -> Path:
        return self.run_dir / "exports" / agent / f"train-{day.isoformat()}.jsonl"

    def report_path(self, name: str) -> Path:
        return self.run_dir / "reports" / name

    def issue_report_path(self, day: date) -> Path:
        return self.report_path(f"issue-{day.isoformat()}.json")

    def cycle_report_path(self, day: date) -> Path:
        return self.report_path(f"cycle-{day.isoformat()}.json")

    def ledger_for(self, agent: str) -> TrajectoryLedger:
        if agent not in self._ledgers:
            self._ledgers[agent] = TrajectoryLedger(self.run_dir / "ledgers" / agent)
        return self._ledgers[agent]

    def write_export(self, agent: str, day: date) -> int:
        """Write ``agent``'s training groups for the batch issued on ``day``; returns how many."""
        groups = self.ledger_for(agent).export_training_batch(day)
        return write_training_batch(self.export_path(agent, day), groups)

    # -- issue phase -------------------------------------------------------------

    def run_issue_phase(self, day: date) -> IssueReport:
        """Fetch, construct, filter, resample, render, and roll out one day.

        Re-run over an issued day, it completes the groups a crash left short
        and writes the same report as an uninterrupted run. Each agent's day
        is released once appended: nothing reads it again before its resolve,
        which replays it.
        """
        if self.questions_path(day).exists():
            # The pipeline counts were saved before the questions marker.
            saved = read_json(self.issue_report_path(day))
            report = from_row(IssueReport, {**saved, "rollouts_recorded": {}})
            questions = self._issued_questions(day)
        else:
            report = IssueReport(day=day)
            questions = self._build_questions(day, report)

        search_tool = self._search_tool_for(day, questions)
        for agent_name in self.config.agents:
            agent = make_scripted_agent(agent_name, seed=self.config.seed)
            # Restart: run only the rollouts a crashed run left unrecorded.
            # Rollouts are seeded by trajectory id, so a repaired day log is
            # byte-identical to an uninterrupted one.
            recorded, pending = self._short_groups(agent_name, day, questions)
            prefixes = [
                (r.trajectory, r.transcript)
                for question in pending
                for r in run_group(
                    question,
                    render_prediction_prompt(question),
                    agent,
                    search_tool,
                    self.config.limits,
                    self.config.rollouts_per_question,
                    recorded=recorded.get(question.id, ()),
                )
            ]
            # One durable append per agent and day.
            self.ledger_for(agent_name).append_prefix_batch(day, prefixes)
            self.ledger_for(agent_name).release(day)
            report.rollouts_recorded[agent_name] = len(prefixes) + sum(
                len(recorded.get(q.id, ())) for q in questions
            )

        write_json(self.issue_report_path(day), to_row(report))
        return report

    def _short_groups(
        self, agent_name: str, day: date, questions: Sequence[Question]
    ) -> tuple[dict[str, set[int]], list[Question]]:
        """Which rollouts of the batch issued on ``day`` the agent's day log holds.

        Returns the recorded rollout indexes per question, and the batch's
        questions whose group has fewer than K, sorted by id.
        """
        ledger = self.ledger_for(agent_name)
        recorded = {
            qid: {t.rollout_index for t in ledger.trajectories_for(day, qid)}
            for qid in ledger.questions_for_day(day)
        }
        short = [
            q for q in sorted(questions, key=lambda q: q.id)
            if len(recorded.get(q.id, ())) < self.config.rollouts_per_question
        ]
        return recorded, short

    def _build_questions(self, day: date, report: IssueReport) -> list[Question]:
        fetched = fetch_all(self.config, day)
        report.candidates = len(fetched.events)
        report.feed_errors = len(fetched.errors)
        if fetched.truth_rows:
            write_truth_file(self.truth_path(day), fetched.truth_rows)
        if fetched.hint_rows:
            write_truth_file(self.hints_path(day), fetched.hint_rows)

        issue_at = self.config.phase_datetime(day, self.config.issue_time)
        pairs = []
        for event in fetched.events:
            try:
                pairs.append(construct_pair(event, self.config.question_templates, issue_at))
            except Exception:
                report.construct_errors += 1
        report.constructed = len(pairs)

        kept = []
        dropped: Counter[str] = Counter()
        for pair in pairs:
            decision = apply_filters(pair, self.config.blocklist)
            dropped.update(decision.drop_reasons)
            if decision.keep:
                kept.append(pair)
        report.filtered_kept = len(kept)
        report.dropped_by_reason = dict(dropped)

        selected = resample(
            kept,
            self.config.questions_per_day,
            self.config.domain_rules,
            self.embedder,
            derive_seed(self.config.seed, "resample", day.isoformat()),
        )
        questions = [p.question for p in selected]
        report.questions_issued = len(questions)
        # The questions file marks the day as issued, so it is written last.
        write_json(self.issue_report_path(day), to_row(report))
        write_jsonl(self.questions_path(day), map(to_row, questions))
        return questions

    def _search_tool_for(self, day: date, questions: Sequence[Question]) -> SimulatedSearchTool:
        latent_by_identifier: dict[str, float] = {}
        hints_path = self.hints_path(day)
        if hints_path.exists():
            for row in read_jsonl(hints_path):
                latent_by_identifier[row["identifier"]] = float(row["latent_p"])
        latent_by_text = {
            q.text: latent_by_identifier[q.resolver_metadata["identifier"]]
            for q in questions
            if q.resolver_metadata.get("identifier") in latent_by_identifier
        }
        return SimulatedSearchTool(
            latent_by_text=latent_by_text,
            information_level=self.config.information_level,
            seed=self.config.seed,
        )

    # -- resolve phase --------------------------------------------------------

    def run_resolve_phase(self, day: date) -> CycleReport:
        """Resolve, backfill and export the batch issued on ``day`` (runs on day+1).

        The batch is the agent's day log for ``day``. A crash in its issue
        phase may have left groups short, or the issue report without the
        rollout counts it writes last; the issue phase is re-run before the
        first backfill of an agent it left short, so every exported group has
        K rollouts. Once its export and metrics are taken the agent's ledger
        releases that day, so the ledgers hold one agent's day at a time.
        The cycle report is written last: it marks the batch as resolved.
        """
        questions = self._issued_questions(day)
        counted = read_json(self.issue_report_path(day))["rollouts_recorded"]
        now = self.config.resolve_at(day)
        registry = self._resolver_registry(day)
        resolution = resolve_batch(questions, registry, now)

        batch_qids = sorted(q.id for q in questions)
        rollouts: dict[str, int] = {}
        groups_exported: dict[str, int] = {}
        metrics: dict[str, dict[str, Any]] = {}
        for agent_name in self.config.agents:
            if agent_name not in counted or self._short_groups(agent_name, day, questions)[1]:
                counted = self.run_issue_phase(day).rollouts_recorded
            ledger = self.ledger_for(agent_name)
            ledger.backfill(day, resolution.outcomes)
            ledger.discard(day, resolution.unresolved, now)
            groups_exported[agent_name] = self.write_export(agent_name, day)

            # Sorted question ids give the ledger's insertion order, which
            # the order-sensitive metrics depend on.
            batch = [t for qid in batch_qids for t in ledger.trajectories_for(day, qid)]
            rollouts[agent_name] = len(batch)
            batch = [t for t in batch if t.status is TrajectoryStatus.RESOLVED]
            preds = [ProbPrediction(prob=t.final_probability, label=t.label) for t in batch]
            metrics[agent_name] = _batch_metrics(preds, [t.reward for t in batch])
            ledger.release(day)

        report = CycleReport(
            day=day,
            questions_issued=len(questions),
            rollouts_recorded=rollouts,
            outcomes_resolved=len(resolution.outcomes),
            unresolved_count=len(resolution.unresolved),
            unresolved_reasons=resolution.unresolved_reasons(),
            groups_exported=groups_exported,
            metrics=metrics,
        )
        if report.outcomes_resolved + report.unresolved_count != report.questions_issued:
            raise RuntimeError("batch accounting broke: issued != resolved + unresolved")
        write_json(self.cycle_report_path(day), to_row(report))
        return report

    def _issued_questions(self, day: date) -> list[Question]:
        path = self.questions_path(day)
        if not path.exists():
            raise FileNotFoundError(f"no issued batch found for {day.isoformat()}")
        return [from_row(Question, row) for row in read_jsonl(path)]

    def _resolver_registry(self, day: date) -> dict[str, Any]:
        """Resolvers for the batch issued on ``day``, whose issue wrote its truth file."""
        path = self.truth_path(day)
        registry = {"synthetic": SyntheticTruthResolver.from_files([path])} if path.exists() else {}
        return {**registry, **answer_file_resolvers(self.config.answer_files)}

    # -- benchmark phase -------------------------------------------------------

    def run_benchmark_phase(self, day: date) -> dict[str, Any]:
        """Issue and answer today's benchmark batch, then write the reports the run directory lacks.

        A batch is answered on its issue evening, before its issued marker, or
        never: a past day is never issued or answered late, since its answers
        would know its outcomes. Oldest first, each issued batch with no
        scoring report gets the missing report of its issue or scoring evening
        before today.
        """
        settings = self.config.benchmark
        bench_dir = self.run_dir / "benchmark"
        issued_path = bench_dir / f"issued-{day.isoformat()}.jsonl"

        if not issued_path.exists():
            pool, gold = generate_benchmark_pool(
                day, settings.pool, self.config.seed, self.config.resolve_at(day)
            )
            selection = select_daily_benchmark(
                pool, settings.caps, derive_seed(self.config.seed, "bench-day", day.isoformat())
            )
            selected_ids = {q.id for q in selection}
            selected_gold = {g.question_id: g for g in gold if g.question_id in selected_ids}
            write_jsonl(bench_dir / f"gold-{day.isoformat()}.jsonl", map(to_row, selected_gold.values()))
            for agent_name in self.config.agents:
                answerer = self._benchmark_answerer(agent_name, selected_gold)
                write_jsonl(
                    bench_dir / f"preds-{agent_name}-{day.isoformat()}.jsonl",
                    (to_row(answerer.answer(q, render_benchmark_prompt(q))) for q in selection),
                )
            # The issued file marks the day as issued and answered, so it is written last.
            write_jsonl(issued_path, map(to_row, selection))

        lag = timedelta(days=settings.lag_days)
        for path in sorted(bench_dir.glob("issued-*.jsonl")):
            issued = date.fromisoformat(path.stem.removeprefix("issued-"))
            if (bench_dir / f"benchmark-{(issued + lag).isoformat()}.json").exists():
                continue  # scored, so nothing of this batch is missing
            for evening in (issued, issued + lag):
                if evening < day and not (bench_dir / f"benchmark-{evening.isoformat()}.json").exists():
                    self._write_benchmark_report(evening)
        return self._write_benchmark_report(day)

    def _write_benchmark_report(self, day: date) -> dict[str, Any]:
        """Write evening ``day``'s report: the batch it issued, if any, and the lagged batch's scores."""
        bench_dir = self.run_dir / "benchmark"
        issued_path = bench_dir / f"issued-{day.isoformat()}.jsonl"
        qtypes = [r["qtype"] for r in read_jsonl(issued_path)] if issued_path.exists() else []
        report: dict[str, Any] = {
            "day": day.isoformat(),
            "issued": len(qtypes),
            "issued_by_type": dict(Counter(qtypes)),
            "scored_day": None,
            "scores": {},
        }

        target_day = day - timedelta(days=self.config.benchmark.lag_days)
        target_path = bench_dir / f"issued-{target_day.isoformat()}.jsonl"
        if target_path.exists():
            report["scored_day"] = target_day.isoformat()
            questions = [from_row(BenchmarkQuestion, r) for r in read_jsonl(target_path)]
            target_gold = {
                r["question_id"]: from_row(GoldRecord, r)
                for r in read_jsonl(bench_dir / f"gold-{target_day.isoformat()}.jsonl")
            }
            for agent_name in self.config.agents:
                preds_path = bench_dir / f"preds-{agent_name}-{target_day.isoformat()}.jsonl"
                if not preds_path.exists():
                    continue
                answers = {
                    r["question_id"]: from_row(BenchmarkAnswer, r)
                    for r in read_jsonl(preds_path)
                }
                score = score_benchmark_batch(questions, answers, target_gold)
                report["scores"][agent_name] = to_row(score)

        write_json(bench_dir / f"benchmark-{day.isoformat()}.json", report)
        return report

    def _benchmark_answerer(self, agent_name: str, gold: Mapping[str, GoldRecord]):
        if agent_name == "malformed":
            return DegenerateAnswerer()
        skill = float(self.config.benchmark.skills.get(agent_name, 0.5))
        return SeededAnswerer(name=agent_name, skill=skill, seed=self.config.seed, gold=gold)

    # -- simulation --------------------------------------------------------------

    def simulate(self, days: int) -> SimulationResult:
        """Run D virtual days end to end; deterministic given the config seed.

        Each day is one cron evening (``run_due_phases``) on a virtual clock,
        at the later of the day's issue and resolve times, so a simulation
        releases each issue day as an evening does and resolves only batches
        without a cycle report. The last day's batch is resolved after the
        last evening; then the summary is written from the run directory.
        """
        if days < 1:
            raise ValueError("simulation needs at least one day")
        started = _walltime.monotonic()
        clocks = (self.config.issue_time, self.config.resolve_time)
        for offset in range(days):
            day = self.config.start_day + timedelta(days=offset)
            self.run_due_phases(max(self.config.phase_datetime(day, clock) for clock in clocks))
        self.run_resolve_phase(day)
        reports = self.write_summary()
        return SimulationResult(self.run_dir, *reports, _walltime.monotonic() - started)

    def write_summary(self) -> tuple[list[CycleReport], list[dict[str, Any]], dict[str, ScoreReport]]:
        """Write ``reports/summary.json`` from the run directory alone; returns its parts.

        The cycles and benchmarks are the report files, oldest first. Each
        agent's final report scores the RESOLVED rollouts of every resolved
        batch, replayed one day at a time in question-id order, which is the
        order of a whole-ledger replay, so the bootstrap intervals match one.
        """
        reports_dir, bench_dir = self.run_dir / "reports", self.run_dir / "benchmark"
        cycles = [from_row(CycleReport, read_json(p)) for p in sorted(reports_dir.glob("cycle-*.json"))]
        benchmarks = [read_json(p) for p in sorted(bench_dir.glob("benchmark-*.json"))]
        final: dict[str, ScoreReport] = {}
        for agent_name in self.config.agents:
            ledger = self.ledger_for(agent_name)
            preds: list[ProbPrediction] = []
            for report in cycles:
                preds += [
                    ProbPrediction(prob=t.final_probability, label=t.label)
                    for qid in ledger.questions_for_day(report.day)
                    for t in ledger.trajectories_for(report.day, qid)
                    if t.status is TrajectoryStatus.RESOLVED
                ]
                ledger.release(report.day)
            seed = derive_seed(self.config.seed, "final-ci", agent_name)
            final[agent_name] = summarize_probabilistic(preds, seed=seed) if preds else ScoreReport()
        summary = {
            "days": len(cycles),
            "cycles": [to_row(r) for r in cycles],
            "benchmarks": benchmarks,
            "final": {agent: to_row(report) for agent, report in final.items()},
        }
        write_json(self.report_path("summary.json"), summary)
        return cycles, benchmarks, final

    # -- the cron evening ---------------------------------------------------------

    def run_due_phases(self, now: Optional[datetime] = None) -> list[str]:
        """The cron evening: run every phase due by ``now``, the wall clock by default.

        Intended to be invoked periodically (or once per evening); each call
        is idempotent thanks to the phases' restartability. Every issued batch
        without a cycle report whose resolve time has passed is resolved,
        oldest first, so a missed evening or a call between the issue and
        resolve times is caught up late. The issue and resolve phases release
        the days they hold, so when the call returns, no ledger holds a day.
        """
        now = now or datetime.now(timezone.utc)
        executed: list[str] = []
        today = now.astimezone(self.config.zone).date()
        issue_due = now >= self.config.phase_datetime(today, self.config.issue_time)
        if issue_due:
            self.run_issue_phase(today)
            executed.append(f"issue:{today.isoformat()}")
        for path in sorted((self.run_dir / "questions").glob("questions-*.jsonl")):
            day = date.fromisoformat(path.stem.removeprefix("questions-"))
            if now < self.config.resolve_at(day):
                break  # later days resolve later still
            if not self.cycle_report_path(day).exists():
                self.run_resolve_phase(day)
                executed.append(f"resolve:{day.isoformat()}")
        if self.config.benchmark.enabled and issue_due:
            self.run_benchmark_phase(today)
            executed.append(f"benchmark:{today.isoformat()}")
        return executed

