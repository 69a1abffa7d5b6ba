"""The daily cycle: issue questions, run rollouts, resolve, backfill, export.

Timeline for one batch: questions are issued at the configured issue time on
day t (default 20:00) and their outcomes are retrieved at the configured
resolve time on day t+1 (default 20:30). Retrieved outcomes are backfilled
into the stored prefixes; questions whose outcomes could not be retrieved are
discarded and excluded from training and scoring. The daily benchmark runs on
its own two-day resolution lag.

Two modes share all of this code. ``simulate`` drives D virtual days against
a synthetic world with an injected clock (no waiting, fully deterministic
given the seed); ``live`` schedules the same phases by wall clock. Both run
the scripted agents, the simulated search tool and the rule-based judges, and
each is built in one place below. Every phase is a pure function of (config,
ledger state, day), so a run can be killed between phases and re-invoked
without changing the final ledger.
"""

from __future__ import annotations

import time as _walltime
from collections import abc
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from types import UnionType
from typing import (
    Any, Mapping, Optional, Sequence, Union, get_args, get_origin, get_type_hints,
)
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
from . import jsonl
from .jsonl import read_json, read_jsonl, write_json, write_jsonl
from .ledger import TrajectoryLedger, write_training_batch
from .prompts import (
    BenchmarkCaps,
    BenchmarkQuestion,
    load_default_templates,
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
    default_judges,
    resample,
)
from .resolve import SyntheticTruthResolver, FileLookupResolver, resolve_batch
from .rollout import RolloutLimits, run_group
from .scoring import ProbPrediction, ScoreReport, summarize_probabilistic, trajectory_reward
from .seeding import derive_seed
from .sources import SourceSpec, fetch_all, write_truth_file


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
    event_rate: int = 300
    unresolved_rate: float = 0.3565
    information_level: float = 1.0
    limits: RolloutLimits = field(default_factory=RolloutLimits)
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    sources: tuple[SourceSpec, ...] = ()
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
        if not 0.0 <= self.unresolved_rate <= 1.0:
            raise ValueError("unresolved_rate must lie in [0, 1]")
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        # Checked here, before a phase writes anything under an agent's name.
        unknown = [a for a in self.agents if a not in SCRIPTED_AGENTS]
        if unknown:
            raise ValueError(f"unknown agents {unknown}; available: {list(SCRIPTED_AGENTS)}")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError(f"agent names repeat: {list(self.agents)}")
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

    def source_specs(self) -> tuple[SourceSpec, ...]:
        if self.sources:
            return self.sources
        return (
            SourceSpec(
                source_id="synthetic",
                kind="synthetic",
                params={
                    "seed": self.seed,
                    "event_rate": self.event_rate,
                    "unresolved_rate": self.unresolved_rate,
                },
            ),
        )

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
        settings = _expect(dict, "a mapping of settings", raw, f"{path}: the top level")
        return _build(cls, settings, "")


def _build(cls: type, raw: dict, path: str) -> Any:
    """``cls`` from a mapping of its fields, each converted to the field's type."""
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(map(str, set(raw) - set(known)))
    if unknown:
        where = f"keys in config {path}" if path else "config keys"
        raise ValueError(f"unknown {where}: {', '.join(unknown)}")
    required = [n for n, f in known.items() if f.default is f.default_factory is MISSING]
    missing = [n for n in required if n not in raw]
    if missing:
        raise ValueError(f"config {path} lacks required keys: {', '.join(missing)}")
    hints = get_type_hints(cls)
    kwargs = {k: _convert(hints[k], v, f"{path}.{k}" if path else k) for k, v in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a check in ``__post_init__``: name the section
        if not path:
            raise
        raise ValueError(f"config {path}: {exc}") from None


def _convert(kind: Any, value: Any, path: str) -> Any:
    """``value`` read from YAML as a ``kind``, or a ``ValueError`` naming ``path``."""
    origin, args = get_origin(kind), get_args(kind)
    if kind is Any:
        return value
    if origin is Union or origin is UnionType:  # Optional[X] or X | None
        return None if value is None else _convert(args[0], value, path)
    if is_dataclass(kind):
        return _build(kind, _expect(dict, "a mapping", value, path), path)
    if origin is tuple:  # tuple[X, ...]
        items = _expect(list, "a list", value, path)
        return tuple(_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(items))
    if origin is abc.Mapping:
        items = _expect(dict, "a mapping", value, path).items()
        key, val = args
        return {_convert(key, k, f"{path} keys"): _convert(val, v, f"{path}.{k}") for k, v in items}
    if kind is date:
        try:
            return value if type(value) is date else date.fromisoformat(value)
        except (TypeError, ValueError):
            raise ValueError(f"config {path} must be a date YYYY-MM-DD, got {value!r}") from None
    if kind is float and type(value) is int:
        return float(value)
    return _expect(kind, kind.__name__, value, path)


def _expect(kind: type, name: str, value: Any, path: str) -> Any:
    """``value`` if it is a ``kind`` (a ``bool`` is no number), else a ``ValueError``."""
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ValueError(f"config {path} must be {name}, got {type(value).__name__}")
    return value


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
        "mean_reward": sum(rewards) / len(rewards),
    }


@dataclass
class IssueReport:
    day: date
    candidates: int = 0
    feed_errors: int = 0
    constructed: int = 0
    construct_errors: int = 0
    filtered_kept: int = 0
    questions_issued: int = 0
    rollouts_recorded: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "day": self.day.isoformat()}


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
    #: each agent's (probability, label) pairs of the batch's RESOLVED
    #: rollouts, in log order; what the final reports score, not serialized
    predictions: dict[str, list[ProbPrediction]] = field(repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "day": self.day.isoformat(),
            "questions_issued": self.questions_issued,
            "rollouts_recorded": dict(self.rollouts_recorded),
            "outcomes_resolved": self.outcomes_resolved,
            "unresolved_count": self.unresolved_count,
            "unresolved_reasons": dict(self.unresolved_reasons),
            "groups_exported": dict(self.groups_exported),
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
        }

    def render_text(self) -> str:
        lines = [
            f"batch day        {self.day.isoformat()}",
            f"issued           {self.questions_issued}",
            f"resolved         {self.outcomes_resolved}",
            f"unresolved       {self.unresolved_count} {self.unresolved_reasons}",
        ]
        def cell(value: Any) -> str:
            return "--" if value is None else f"{value:.4f}"

        for agent in sorted(self.metrics):
            m = self.metrics[agent]
            lines.append(
                f"{agent:<12} n={m['n']:<5} acc={cell(m['accuracy'])} "
                f"brier={cell(m['brier'])} ece={cell(m.get('ece'))} "
                f"groups={self.groups_exported.get(agent, 0)}"
            )
        return "\n".join(lines)


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
        self.templates = load_default_templates()
        self.judges = default_judges(config.blocklist)
        self.embedder = HashingEmbedder(seed=config.seed)
        self._ledgers: dict[str, TrajectoryLedger] = {}

    # -- paths ---------------------------------------------------------------

    def questions_path(self, day: date) -> Path:
        return self.run_dir / "questions" / f"questions-{day.isoformat()}.jsonl"

    def pairs_path(self, day: date) -> Path:
        return self.run_dir / "pairs" / f"pairs-{day.isoformat()}.jsonl"

    def verdicts_path(self, day: date) -> Path:
        return self.run_dir / "filters" / f"verdicts-{day.isoformat()}.jsonl"

    def candidates_path(self, day: date) -> Path:
        return self.run_dir / "candidates" / f"candidates-{day.isoformat()}.jsonl"

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

    def ledger_for(self, agent: str) -> TrajectoryLedger:
        if agent not in self._ledgers:
            self._ledgers[agent] = TrajectoryLedger(self.run_dir / "ledgers" / agent)
        return self._ledgers[agent]

    # -- issue phase -------------------------------------------------------------

    def run_issue_phase(self, day: date) -> IssueReport:
        """Fetch, construct, filter, resample, render, and roll out one day.

        Re-run over an issued day, it completes the groups a crash left short
        and writes the same report as an uninterrupted run.
        """
        if self.questions_path(day).exists():
            # The pipeline counts were saved before the questions marker (a run
            # dir issued by an older version may lack them: count zero).
            path = self.issue_report_path(day)
            saved = read_json(path) if path.exists() else {}
            report = IssueReport(**{**saved, "day": day, "rollouts_recorded": {}})
            questions = self._issued_questions(day)
        else:
            report = IssueReport(day=day)
            questions = self._build_questions(day, report)

        issue_at = self.config.phase_datetime(day, self.config.issue_time)
        search_tool = self._search_tool_for(day, questions)
        prob_template = self.templates["probabilistic"]
        for agent_name in self.config.agents:
            agent = make_scripted_agent(agent_name, seed=self.config.seed)
            ledger = self.ledger_for(agent_name)
            # Restart: run only the rollouts a crashed run left unrecorded.
            # Rollouts are seeded by trajectory id, so a repaired day log is
            # byte-identical to an uninterrupted one.
            recorded, pending = self._short_groups(agent_name, day, questions)

            def roll(question: Question):
                prompt = render_prediction_prompt(question, prob_template)
                return run_group(
                    question,
                    prompt,
                    agent,
                    search_tool,
                    self.config.limits,
                    self.config.rollouts_per_question,
                    clock=lambda: issue_at,
                    recorded=recorded.get(question.id, ()),
                )

            if self.config.max_workers > 1:
                # Rollouts fan out to a bounded pool; groups are appended in
                # question order afterwards so the ledger stays deterministic.
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=self.config.max_workers) as pool:
                    group_results = list(pool.map(roll, pending))
            else:
                group_results = [roll(q) for q in pending]

            prefixes = [(r.trajectory, r.transcript) for results in group_results for r in results]
            ledger.append_prefix_batch(day, prefixes)  # one durable append per agent and day
            report.rollouts_recorded[agent_name] = len(prefixes) + sum(
                len(recorded.get(q.id, ())) for q in questions
            )

        write_json(self.issue_report_path(day), report.to_dict())
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
        config = self.config
        fetched = fetch_all(config.source_specs(), day, config.resolve_at(day), config.zone)
        report.candidates = len(fetched.events)
        report.feed_errors = len(fetched.errors)
        write_jsonl(self.candidates_path(day), (e.to_dict() for e in fetched.events))
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
        verdict_rows = []
        for pair in pairs:
            decision = apply_filters(pair, self.judges)
            verdict_rows.extend(v.to_dict() for v in decision.verdicts)
            if decision.keep:
                kept.append(pair)
        write_jsonl(self.verdicts_path(day), verdict_rows)
        report.filtered_kept = len(kept)

        selected = resample(
            kept,
            self.config.questions_per_day,
            self.config.domain_rules,
            self.embedder,
            derive_seed(self.config.seed, "resample", day.isoformat()),
        )
        write_jsonl(self.pairs_path(day), (p.to_dict() for p in selected))
        questions = [p.question for p in selected]
        report.questions_issued = len(questions)
        # The questions file marks the day as issued, so it is written last.
        write_json(self.issue_report_path(day), report.to_dict())
        write_jsonl(self.questions_path(day), (q.to_dict() for q in questions))
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

    def run_resolve_phase(self, day: date, questions: Optional[list[Question]] = None) -> CycleReport:
        """Resolve, backfill and export the batch issued on ``day`` (runs on day+1).

        ``questions`` is that batch, when the caller has already read it.
        The batch is the agent's day log for ``day``; once its export and
        predictions are taken the agent's ledger releases that day: nothing
        reads a resolved batch again.
        """
        questions = self._issued_questions(day) if questions is None else questions
        now = self.config.resolve_at(day)
        registry = self._resolver_registry(day)
        resolution = resolve_batch(questions, registry, now)

        batch_qids = sorted(q.id for q in questions)
        rollouts: dict[str, int] = {}
        groups_exported: dict[str, int] = {}
        metrics: dict[str, dict[str, Any]] = {}
        predictions: dict[str, list[ProbPrediction]] = {}
        for agent_name in self.config.agents:
            ledger = self.ledger_for(agent_name)
            ledger.backfill(day, resolution.outcomes, trajectory_reward)
            ledger.discard(day, resolution.unresolved, now)
            groups = ledger.export_training_batch(day)
            write_training_batch(self.export_path(agent_name, day), groups)
            groups_exported[agent_name] = len(groups)

            # Sorted question ids give the ledger's insertion order, which
            # the order-sensitive metrics depend on.
            batch = [t for qid in batch_qids for t in ledger.trajectories_for(day, qid)]
            rollouts[agent_name] = len(batch)
            batch = [t for t in batch if t.status is TrajectoryStatus.RESOLVED]
            preds = [ProbPrediction(prob=t.final_probability, label=t.label) for t in batch]
            metrics[agent_name] = _batch_metrics(preds, [t.reward for t in batch])
            predictions[agent_name] = preds
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
            predictions=predictions,
        )
        if report.outcomes_resolved + report.unresolved_count != report.questions_issued:
            raise RuntimeError("batch accounting broke: issued != resolved + unresolved")
        base = self.report_path(f"cycle-{day.isoformat()}")
        write_json(base.with_suffix(".json"), report.to_dict())
        jsonl.write_atomically(base.with_suffix(".txt"), [report.render_text() + "\n"])
        return report

    def _issued_questions(self, day: date) -> list[Question]:
        path = self.questions_path(day)
        if not path.exists():
            raise FileNotFoundError(f"no issued batch found for {day.isoformat()}")
        return [Question.from_dict(row) for row in read_jsonl(path)]

    def _resolver_registry(self, day: date) -> dict[str, Any]:
        """Resolvers for the batch issued on ``day``, whose issue wrote its truth file."""
        truth_path = self.truth_path(day)
        registry: dict[str, Any] = {}
        if truth_path.exists():
            registry["synthetic"] = SyntheticTruthResolver.from_files([truth_path])
        for key, answer_file in self.config.answer_files.items():
            registry[key] = FileLookupResolver(path=Path(answer_file))
        return registry

    # -- benchmark phase -------------------------------------------------------

    def run_benchmark_phase(self, day: date) -> dict[str, Any]:
        """Issue today's benchmark batch and score the lagged one."""
        settings = self.config.benchmark
        bench_dir = self.run_dir / "benchmark"
        issued_path = bench_dir / f"issued-{day.isoformat()}.jsonl"
        gold_path = bench_dir / f"gold-{day.isoformat()}.jsonl"

        if issued_path.exists():
            selection = [BenchmarkQuestion.from_dict(r) for r in read_jsonl(issued_path)]
        else:
            pool, gold = generate_benchmark_pool(
                day, settings.pool, self.config.seed, self.config.resolve_at(day)
            )
            selection = select_daily_benchmark(
                pool, settings.caps, derive_seed(self.config.seed, "bench-day", day.isoformat())
            )
            selected_ids = {q.id for q in selection}
            # The issued file marks the day as issued, so it is written last.
            write_jsonl(gold_path, (g.to_dict() for g in gold if g.question_id in selected_ids))
            write_jsonl(issued_path, (q.to_dict() for q in selection))

        gold_records = {
            g.question_id: g for g in map(GoldRecord.from_dict, read_jsonl(gold_path))
        }
        for agent_name in self.config.agents:
            preds_path = bench_dir / f"preds-{agent_name}-{day.isoformat()}.jsonl"
            if preds_path.exists():
                continue
            answerer = self._benchmark_answerer(agent_name, gold_records)
            answers = []
            for question in selection:
                prompt = render_benchmark_prompt(question, self.templates[question.qtype])
                answers.append(answerer.answer(question, prompt).to_dict())
            write_jsonl(preds_path, answers)

        report: dict[str, Any] = {
            "day": day.isoformat(),
            "issued": len(selection),
            "issued_by_type": _count_by_type(selection),
            "scored_day": None,
            "scores": {},
        }

        target_day = day - timedelta(days=settings.lag_days)
        target_issued = bench_dir / f"issued-{target_day.isoformat()}.jsonl"
        if target_issued.exists():
            report["scored_day"] = target_day.isoformat()
            questions = [BenchmarkQuestion.from_dict(r) for r in read_jsonl(target_issued)]
            target_gold = {
                g.question_id: g
                for g in map(
                    GoldRecord.from_dict,
                    read_jsonl(bench_dir / f"gold-{target_day.isoformat()}.jsonl"),
                )
            }
            for agent_name in self.config.agents:
                preds_path = bench_dir / f"preds-{agent_name}-{target_day.isoformat()}.jsonl"
                if not preds_path.exists():
                    continue
                answers = {
                    a.question_id: a
                    for a in map(BenchmarkAnswer.from_dict, read_jsonl(preds_path))
                }
                score = score_benchmark_batch(questions, answers, target_gold)
                report["scores"][agent_name] = score.to_dict()
                score_txt = bench_dir / f"scores-{agent_name}-{day.isoformat()}.txt"
                jsonl.write_atomically(score_txt, [score.render_text() + "\n"])

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

        Memory does not grow with D: a simulation holds each agent's issue
        day until the next day's resolve reads it, and the resolve phase
        releases it. The final reports score the resolved (probability,
        label) pairs that each cycle report keeps.
        """
        if days < 1:
            raise ValueError("simulation needs at least one day")
        started = _walltime.monotonic()
        cycle_reports: list[CycleReport] = []
        benchmark_reports: list[dict[str, Any]] = []

        for offset in range(days):
            day = self.config.start_day + timedelta(days=offset)
            self.run_issue_phase(day)
            if offset > 0:
                cycle_reports.append(self.run_resolve_phase(day - timedelta(days=1)))
            if self.config.benchmark.enabled:
                benchmark_reports.append(self.run_benchmark_phase(day))
        cycle_reports.append(self.run_resolve_phase(day))  # the last day's batch

        final_reports = self._final_reports(cycle_reports)
        elapsed = _walltime.monotonic() - started
        summary = {
            "days": days,
            "elapsed_seconds": elapsed,
            "cycles": [r.to_dict() for r in cycle_reports],
            "benchmarks": benchmark_reports,
            "final": {agent: report.to_dict() for agent, report in final_reports.items()},
        }
        write_json(self.report_path("summary.json"), summary)
        text = ["simulation summary", "=" * 60]
        for r in cycle_reports:
            text.append(r.render_text())
            text.append("-" * 60)
        for agent, report in final_reports.items():
            text.append(f"[{agent}]")
            text.append(report.render_text())
            text.append("-" * 60)
        jsonl.write_atomically(self.report_path("summary.txt"), ["\n".join(text) + "\n"])
        return SimulationResult(
            run_dir=self.run_dir,
            cycle_reports=cycle_reports,
            benchmark_reports=benchmark_reports,
            final_reports=final_reports,
            elapsed_seconds=elapsed,
        )

    def _final_reports(self, cycle_reports: Sequence[CycleReport]) -> dict[str, ScoreReport]:
        """Aggregate probabilistic metrics per agent over all resolved rollouts.

        The batches' predictions, taken in resolve order, are in the order of
        a whole-ledger replay, so the bootstrap intervals match one.
        """
        reports: dict[str, ScoreReport] = {}
        for agent_name in self.config.agents:
            preds = [p for r in cycle_reports for p in r.predictions[agent_name]]
            if not preds:
                reports[agent_name] = ScoreReport()
                continue
            reports[agent_name] = summarize_probabilistic(
                preds, seed=derive_seed(self.config.seed, "final-ci", agent_name)
            )
        return reports

    # -- live mode ----------------------------------------------------------------

    def run_due_phases(self, now: Optional[datetime] = None) -> list[str]:
        """Cron-style live driver: run every phase whose wall-clock time has passed.

        Intended to be invoked periodically (or once per evening); each call
        is idempotent thanks to the phases' restartability. Nothing in the
        evening reads today's issued day again, so it is released as soon as
        the issue phase returns; the resolve phase releases yesterday's. When
        the call returns, no ledger holds a day.
        """
        now = now or datetime.now(timezone.utc)
        executed: list[str] = []
        today = now.astimezone(self.config.zone).date()
        issue_due = now >= self.config.phase_datetime(today, self.config.issue_time)
        if issue_due:
            self.run_issue_phase(today)
            for agent_name in self.config.agents:
                self.ledger_for(agent_name).release(today)
            executed.append(f"issue:{today.isoformat()}")
        yesterday = today - timedelta(days=1)
        if self.questions_path(yesterday).exists() and now >= self.config.resolve_at(yesterday):
            # A crash inside yesterday's prefix append left groups short;
            # complete them before their outcomes are backfilled.
            questions = self._issued_questions(yesterday)
            if any(self._short_groups(a, yesterday, questions)[1] for a in self.config.agents):
                self.run_issue_phase(yesterday)
                executed.append(f"issue:{yesterday.isoformat()}")
            self.run_resolve_phase(yesterday, questions)
            executed.append(f"resolve:{yesterday.isoformat()}")
        if self.config.benchmark.enabled and issue_due:
            self.run_benchmark_phase(today)
            executed.append(f"benchmark:{today.isoformat()}")
        return executed


def _count_by_type(questions: Sequence[BenchmarkQuestion]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for q in questions:
        counts[q.qtype] = counts.get(q.qtype, 0) + 1
    return counts

