"""The daily cycle: issue questions, run rollouts, resolve, backfill, export.

Timeline for one batch: questions are issued at the configured issue time on
day t (default 20:00) and their outcomes are retrieved at the configured
resolve time on day t+1 (default 20:30). Retrieved outcomes are backfilled
into the stored prefixes; questions whose outcomes could not be retrieved are
discarded and excluded from training and scoring. The daily benchmark runs on
its own two-day resolution lag.

One loop schedules the phases: the cron evening ``run_due_phases(now)`` runs
each phase whose time has passed and resolves only batches without a cycle
report. Each phase builds the ledger of the agent-day it works on and drops
it, so nothing is held between calls. ``simulate`` is D such evenings on a
virtual clock (no waiting, deterministic given the seed), then the last
day's resolve and a summary whose final scores replay the resolved batches.
Both run the scripted agents and the simulated search tool, each built in
one place below, and the rule-based question filter. Every phase is a
function of config, run directory and instant whose only effect is its
writes, so a run can be killed between phases and re-invoked without
changing the final ledger.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence
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
from .domain import Question
from .embedding import HashingEmbedder
from .jsonl import from_row, read_json, read_jsonl, to_row, write_json, write_jsonl
from .ledger import TrajectoryLedger, write_training_batch
from .prompts import (
    BenchmarkCaps,
    BenchmarkQuestion,
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
from .scoring import ProbPrediction, ScoreReport, summarize_probabilistic
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
        for agent, skill in self.skills.items():
            if not 0.0 <= skill <= 1.0:
                raise ValueError(f"skills.{agent} must lie in [0, 1], got {skill}")


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

        An empty file means the defaults, and a YAML syntax error is one
        ``ValueError`` line naming the file and the line. YAML is imported
        here, not with the module: only ``--config`` needs it.
        """
        import yaml

        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
            raise ValueError(f"config {path}: invalid YAML{where}: {problem}") from None
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


def _resolved_pairs(ledger: TrajectoryLedger, day: date) -> list[ProbPrediction]:
    """The (probability, label) pairs of the batch issued on ``day``, in export order."""
    return [ProbPrediction(t.final_probability, t.label) for t in ledger.resolved_trajectories(day)]


def _batch_metrics(preds: Sequence[ProbPrediction]) -> dict[str, Any]:
    """A resolved batch's cycle-report metrics, from its pairs in export order.

    The mean reward is the negated Brier score, exactly: no reward is positive,
    and ``0.0 -`` keeps a batch of zero rewards at ``+0.0``.
    """
    if not preds:
        return {"n": 0, "accuracy": None, "brier": None, "ece": None, "mean_reward": None}
    summary = summarize_probabilistic(preds, with_intervals=False)
    return {
        "n": len(preds),
        "accuracy": summary.accuracy,
        "brier": summary.brier,
        "ece": summary.ece,
        "mean_reward": 0.0 - summary.brier,
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
    #: the batch's agents, for every later phase of it, each with K × questions_issued
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
    cycle_reports: list[CycleReport]
    benchmark_reports: list[dict[str, Any]]
    final_reports: dict[str, ScoreReport]


class Orchestrator:
    """Drives the phases against one run directory.

    All state lives on disk (question batches, sidecars, ledgers, exports,
    reports); constructing an orchestrator reads and creates nothing, it
    keeps nothing between calls, and one over an existing run directory
    resumes where the last one stopped.
    """

    def __init__(self, config: CycleConfig, run_dir: Path):
        self.config = config
        self.run_dir = Path(run_dir)

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

    def benchmark_report_path(self, day: date) -> Path:
        return self.run_dir / "benchmark" / f"benchmark-{day.isoformat()}.json"

    def ledger_for(self, agent: str) -> TrajectoryLedger:
        """A new ledger of ``agent``'s logs; building one reads nothing."""
        return TrajectoryLedger(self.run_dir / "ledgers" / agent)

    # -- issue phase -------------------------------------------------------------

    def run_issue_phase(self, day: date) -> IssueReport:
        """Fetch, construct, filter, resample, render, and roll out one day.

        A day without its questions file is built first, its report naming
        the config's agents. Then every run, fresh or a repair, reads the
        batch back (``_batch``) and completes the day log of each agent the
        report names, whatever the config lists now (``_complete``), so a
        re-run of a complete day writes nothing. Each agent's ledger is
        dropped once its day is complete: nothing reads it again before its
        resolve.
        """
        if not self.questions_path(day).exists():
            self._build_questions(day)
        report, questions = self._batch(day)
        for agent_name in report.rollouts_recorded:
            self._complete(agent_name, day, questions)
        return report

    def _batch(self, day: date) -> tuple[IssueReport, list[Question]]:
        """The batch issued on ``day``: its issue report, which names its agents, and its questions."""
        path = self.questions_path(day)
        if not path.exists():
            raise FileNotFoundError(f"no issued batch found for {day.isoformat()}")
        report = from_row(IssueReport, read_json(self.issue_report_path(day)))
        return report, [from_row(Question, row) for row in read_jsonl(path)]

    def _complete(
        self, agent_name: str, day: date, questions: Sequence[Question]
    ) -> TrajectoryLedger:
        """Make the rollouts of the batch issued on ``day`` that the agent's day log lacks.

        Only when some are missing are the agent and the search tool built
        and the missing rollouts appended, in one durable batch. Rollouts are
        seeded by trajectory id, so a completed day log is byte-identical to
        an uninterrupted one. Returns the new ledger it built, holding the day.
        """
        ledger = self.ledger_for(agent_name)
        k = self.config.rollouts_per_question
        recorded = {
            qid: {t.rollout_index for t in ledger.trajectories_for(day, qid)}
            for qid in ledger.questions_for_day(day)
        }
        short = [q for q in sorted(questions, key=lambda q: q.id) if len(recorded.get(q.id, ())) < k]
        if short:
            agent = make_scripted_agent(agent_name, seed=self.config.seed)
            search_tool = self._search_tool_for(day, questions)
            ledger.append_prefix_batch(day, [
                (r.trajectory, r.transcript)
                for question in short
                for r in run_group(
                    question,
                    render_prediction_prompt(question),
                    agent,
                    search_tool,
                    self.config.limits,
                    k,
                    recorded=recorded.get(question.id, ()),
                )
            ])
        return ledger

    def _build_questions(self, day: date) -> None:
        """Write the day's truth and hint sidecars, pipeline counts and questions."""
        report = IssueReport(day=day)
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
            HashingEmbedder(seed=self.config.seed),
            derive_seed(self.config.seed, "resample", day.isoformat()),
        )
        report.questions_issued = len(selected)
        # run_group records failed rollouts too, so a finished day holds K per group.
        report.rollouts_recorded = dict.fromkeys(
            self.config.agents, self.config.rollouts_per_question * len(selected)
        )
        # The questions file marks the day as issued, so it is written last.
        write_json(self.issue_report_path(day), to_row(report))
        write_jsonl(self.questions_path(day), (to_row(p.question) for p in selected))

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

        The batch is the day logs of the agents its issue report names,
        whatever the config lists now. Each agent's day log is completed
        first (``_complete``): a killed issue phase may have left its groups
        short, and then only its missing rollouts are made, so every exported
        group has K rollouts. The backfill, discard, export and metrics run on
        the ledger ``_complete`` built, which then releases the day before
        the next agent's is built, so the phase holds one agent's day at a
        time and reads each day log once. The cycle report takes its rollout
        counts from the issue report and is written last: it marks the batch
        as resolved.
        """
        issued, questions = self._batch(day)
        now = self.config.resolve_at(day)
        resolution = resolve_batch(questions, self._resolver_registry(day), now)

        groups_exported: dict[str, int] = {}
        metrics: dict[str, dict[str, Any]] = {}
        for agent_name in issued.rollouts_recorded:
            ledger = self._complete(agent_name, day, questions)
            ledger.backfill(day, resolution.outcomes)
            ledger.discard(day, resolution.unresolved, now)
            path = self.export_path(agent_name, day)
            groups_exported[agent_name] = write_training_batch(path, ledger.export_training_batch(day))
            metrics[agent_name] = _batch_metrics(_resolved_pairs(ledger, day))
            ledger.release(day)

        report = CycleReport(
            day=day,
            questions_issued=len(questions),
            rollouts_recorded=issued.rollouts_recorded,
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

    def _resolver_registry(self, day: date) -> dict[str, Any]:
        """Resolvers for the batch issued on ``day``, whose issue wrote its truth file."""
        path = self.truth_path(day)
        registry = {"synthetic": SyntheticTruthResolver.from_files([path])} if path.exists() else {}
        return {**registry, **answer_file_resolvers(self.config.answer_files)}

    # -- benchmark phase -------------------------------------------------------

    def run_benchmark_phase(self, day: date, now: datetime | None = None) -> dict[str, Any] | None:
        """Issue and answer today's benchmark batch, then write the reports the run directory lacks.

        A batch is answered on its issue evening, before its issued marker, or
        never: a past day is never issued or answered late, since its answers
        would know its outcomes. Oldest first, each issued batch with no
        scoring report gets the missing report of its issue or scoring evening
        before today. Today's report reads the lagged batch's gold, so given
        the instant ``now`` of a call before that batch resolves, it is left
        unwritten (and ``None`` returned) for a later call to catch up.
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
                    (to_row(answerer.answer(q)) for q in selection),
                )
            # The issued file marks the day as issued and answered, so it is written last.
            write_jsonl(issued_path, map(to_row, selection))

        lag = timedelta(days=settings.lag_days)
        for path in sorted(bench_dir.glob("issued-*.jsonl")):
            issued = date.fromisoformat(path.stem.removeprefix("issued-"))
            if self.benchmark_report_path(issued + lag).exists():
                continue  # scored, so nothing of this batch is missing
            for evening in (issued, issued + lag):
                if evening < day and not self.benchmark_report_path(evening).exists():
                    self._write_benchmark_report(evening)
        if now is not None and now < self.config.resolve_at(day - lag):
            return None
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

        target_day = (day - timedelta(days=self.config.benchmark.lag_days)).isoformat()
        target_path = bench_dir / f"issued-{target_day}.jsonl"
        if target_path.exists():
            report["scored_day"] = target_day
            questions = [from_row(BenchmarkQuestion, r) for r in read_jsonl(target_path)]
            target_gold = {
                r["question_id"]: from_row(GoldRecord, r)
                for r in read_jsonl(bench_dir / f"gold-{target_day}.jsonl")
            }
            # The agents that answered the batch, whatever the config lists now.
            for preds_path in sorted(bench_dir.glob(f"preds-*-{target_day}.jsonl")):
                agent_name = preds_path.stem.removeprefix("preds-").removesuffix(f"-{target_day}")
                answers = {
                    r["question_id"]: from_row(BenchmarkAnswer, r)
                    for r in read_jsonl(preds_path)
                }
                score = score_benchmark_batch(questions, answers, target_gold)
                report["scores"][agent_name] = to_row(score)

        write_json(self.benchmark_report_path(day), report)
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
        holds each agent-day only while a phase works on it, as an evening
        does, and resolves only batches without a cycle report. The last
        day's batch is resolved after the last evening; then the summary is
        written from the run directory, and its parts are returned. A caller
        that wants the duration times it.
        """
        if days < 1:
            raise ValueError("simulation needs at least one day")
        clocks = (self.config.issue_time, self.config.resolve_time)
        for offset in range(days):
            day = self.config.start_day + timedelta(days=offset)
            self.run_due_phases(max(self.config.phase_datetime(day, clock) for clock in clocks))
        self.run_resolve_phase(day)
        return self.write_summary()

    def write_summary(self) -> SimulationResult:
        """Write ``reports/summary.json`` from the run directory alone; return its parts.

        The cycles and benchmarks are the report files, oldest first. The
        agents are the ones the cycle reports name, whatever the config lists
        now. Each agent's final report scores the RESOLVED rollouts of every
        resolved batch, each day replayed by a ledger of its own and walked
        in export order, as its export and cycle metrics are; every flow
        appends in rollout order, so that is a whole-ledger replay's order
        and the intervals match one. ``simulate`` returns these parts as they are.
        """
        reports_dir, bench_dir = self.run_dir / "reports", self.run_dir / "benchmark"
        cycles = [from_row(CycleReport, read_json(p)) for p in sorted(reports_dir.glob("cycle-*.json"))]
        benchmarks = [read_json(p) for p in sorted(bench_dir.glob("benchmark-*.json"))]
        final: dict[str, ScoreReport] = {}
        for agent_name in dict.fromkeys(a for report in cycles for a in report.rollouts_recorded):
            preds = [
                pred for report in cycles
                for pred in _resolved_pairs(self.ledger_for(agent_name), report.day)
            ]
            seed = derive_seed(self.config.seed, "final-ci", agent_name)
            final[agent_name] = summarize_probabilistic(preds, seed=seed) if preds else ScoreReport()
        summary = {
            "days": len(cycles),
            "cycles": [to_row(r) for r in cycles],
            "benchmarks": benchmarks,
            "final": {agent: to_row(report) for agent, report in final.items()},
        }
        write_json(self.report_path("summary.json"), summary)
        return SimulationResult(cycles, benchmarks, final)

    # -- the cron evening ---------------------------------------------------------

    def run_due_phases(self, now: datetime) -> list[str]:
        """The cron evening: run every phase due by the aware instant ``now``.

        ``fw cycle --live`` passes the wall clock, ``simulate`` a virtual one.
        Each call is idempotent thanks to the phases' restartability. Every
        issued batch without a cycle report whose resolve time has passed is
        resolved, oldest first, so a missed evening or a call between the
        issue and resolve times is caught up late, as is a benchmark report
        whose lagged batch has not resolved yet (``lag_days: 1``). Each phase
        builds the ledgers it works on, so when the call returns, no ledger
        holds a day.
        """
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
            self.run_benchmark_phase(today, now)
            executed.append(f"benchmark:{today.isoformat()}")
        return executed

