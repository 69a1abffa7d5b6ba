"""Daily benchmark machinery: synthetic pools, gold records, scripted answerers.

The daily benchmark refreshes each day with typed questions (binary choice,
simple and difficult multiple choice, numeric prediction) and is scored on a
lag: outcomes are retrieved for the batch released two days earlier, which
raises the fraction of questions that can be resolved. Only resolved
questions are scored; a type with no resolved questions is simply absent and
the overall score averages the rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any, Mapping, Optional, Protocol, Sequence

from .prompts import (
    BENCHMARK_TYPES,
    BINARY_CHOICE,
    DIFFICULT_MC,
    NUMERIC,
    SIMPLE_MC,
    BenchmarkQuestion,
)
from .scoring import ChoiceAnswer, NumericAnswer, ScoreReport, f1_choice, numeric_score, overall
from .seeding import derive_seed

_TOPICS = (
    "the ridge expansion vote", "the coastal ferry trial", "the Meridian system upgrade",
    "the night market pilot", "the reservoir release plan", "the spring transit audit",
)
_SUBJECTS = (
    "Harbor City", "Northfield", "the Atlas consortium", "the valley co-op",
    "the Beacon exchange", "the Kestrel league",
)
_DMC_TOKENS = (
    "Expansion", "Dividend", "Merger", "Recall", "Outage", "Settlement", "Waiver",
    "Surplus", "Delay", "Upgrade", "Pilot", "Audit", "Buyback", "Spinoff", "Layoffs",
    "Patent", "Carbon", "Tariff", "Quota", "Subsidy", "Easement", "Rezoning",
    "Bridge", "Ferry", "Reservoir", "Stadium",
)


@dataclass(frozen=True)
class GoldRecord:
    """Hidden answer for one benchmark question, fixed at generation time."""

    question_id: str
    qtype: str
    gold_options: tuple[int, ...] = ()
    value: Optional[float] = None
    will_resolve: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "qtype": self.qtype,
            "gold_options": list(self.gold_options),
            "value": self.value,
            "will_resolve": self.will_resolve,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GoldRecord":
        return cls(
            question_id=data["question_id"],
            qtype=data["qtype"],
            gold_options=tuple(data.get("gold_options", ())),
            value=data.get("value"),
            will_resolve=data.get("will_resolve", True),
        )


@dataclass(frozen=True)
class BenchmarkPoolConfig:
    binary_choice: int = 8
    simple_mc: int = 14
    difficult_mc: int = 18
    numeric: int = 24
    unresolved_rate: float = 0.15
    #: per-type override of the unresolved rate, e.g. {"numeric": 1.0}
    unresolved_rate_by_type: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qtype in BENCHMARK_TYPES:
            if self.count(qtype) < 0:
                raise ValueError(f"{qtype} must be non-negative, got {self.count(qtype)}")
        unknown = sorted(set(self.unresolved_rate_by_type) - set(BENCHMARK_TYPES))
        if unknown:
            raise ValueError(f"unresolved_rate_by_type names unknown types: {', '.join(unknown)}")
        rates = {f"unresolved_rate_by_type.{k}": v for k, v in self.unresolved_rate_by_type.items()}
        for name, rate in {"unresolved_rate": self.unresolved_rate, **rates}.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")

    def count(self, qtype: str) -> int:
        return getattr(self, qtype)

    def rate(self, qtype: str) -> float:
        return float(self.unresolved_rate_by_type.get(qtype, self.unresolved_rate))


def generate_benchmark_pool(
    day: date, config: BenchmarkPoolConfig, seed: int, resolve_at: datetime
) -> tuple[list[BenchmarkQuestion], list[GoldRecord]]:
    """Generate one day's typed benchmark pool and its gold sidecar.

    Every question resolves at ``resolve_at``, the cycle's resolve instant
    for ``day`` (``CycleConfig.resolve_at``).
    """
    rng = random.Random(derive_seed(seed, "benchmark-pool", day.isoformat()))
    questions: list[BenchmarkQuestion] = []
    gold: list[GoldRecord] = []

    for qtype in BENCHMARK_TYPES:
        for i in range(config.count(qtype)):
            qid = f"bq-{day.isoformat()}-{qtype}-{i:03d}"
            will_resolve = rng.random() >= config.rate(qtype)
            topic = rng.choice(_TOPICS)
            subject = rng.choice(_SUBJECTS)
            history: tuple[float, ...] = ()
            value: Optional[float] = None
            if qtype == BINARY_CHOICE:
                text = f"Will {subject} confirm {topic} by tomorrow?"
                options = ("Yes", "No")
                gold_idx = (0,) if rng.random() < 0.5 else (1,)
            elif qtype == SIMPLE_MC:
                n = rng.choice((3, 4))
                text = f"How will {topic} conclude for {subject}?"
                options = tuple(f"Outcome {chr(ord('A') + j)} scenario" for j in range(n))
                n_gold = 1 if rng.random() < 0.7 else 2
                gold_idx = tuple(sorted(rng.sample(range(n), n_gold)))
            elif qtype == DIFFICULT_MC:
                n = rng.randrange(5, 27)
                text = f"Which themes will {subject} mention about {topic}?"
                options = tuple(rng.sample(_DMC_TOKENS, n))
                n_gold = rng.randrange(1, min(5, n + 1))
                gold_idx = tuple(sorted(rng.sample(range(n), n_gold)))
            else:  # numeric
                base = rng.uniform(10.0, 120.0)
                series = [base]
                for _ in range(7):
                    series.append(series[-1] + rng.gauss(0.0, base * 0.03))
                series = [round(v, 2) for v in series]
                text = f"What will the {subject} settlement value for {topic} be tomorrow?"
                options, gold_idx = (), ()
                history, value = tuple(series[:7]), series[7]
            questions.append(
                BenchmarkQuestion(
                    id=qid,
                    qtype=qtype,
                    text=text,
                    options=options,
                    resolution_time=resolve_at,
                    resolver_key="benchmark",
                    history=history,
                )
            )
            gold.append(
                GoldRecord(
                    question_id=qid,
                    qtype=qtype,
                    gold_options=gold_idx,
                    value=value,
                    will_resolve=will_resolve,
                )
            )
    return questions, gold


@dataclass(frozen=True)
class BenchmarkAnswer:
    question_id: str
    qtype: str
    selected: tuple[int, ...] = ()
    value: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "qtype": self.qtype,
            "selected": list(self.selected),
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchmarkAnswer":
        return cls(
            question_id=data["question_id"],
            qtype=data["qtype"],
            selected=tuple(data.get("selected", ())),
            value=data.get("value"),
        )


class BenchmarkAnswerer(Protocol):
    """Answers one rendered benchmark prompt, given the typed question too."""

    def answer(self, question: BenchmarkQuestion, prompt: str) -> BenchmarkAnswer:
        ...


@dataclass
class SeededAnswerer:
    """Scripted benchmark agent whose skill is a single dial.

    With probability ``skill`` it reproduces the gold answer (given a gold
    table); otherwise it guesses. Numeric answers regress toward the last
    known history value with noise shrinking in skill.
    """

    name: str
    skill: float = 0.5
    seed: int = 0
    gold: Mapping[str, GoldRecord] = field(default_factory=dict)

    def answer(self, question: BenchmarkQuestion, prompt: str = "") -> BenchmarkAnswer:
        rng = random.Random(derive_seed(self.seed, "bench-answer", self.name, question.id))
        record = self.gold.get(question.id)
        if question.qtype == NUMERIC:
            last = question.history[-1] if question.history else 0.0
            target = record.value if (record and rng.random() < self.skill) else last
            noise = rng.gauss(0.0, max(0.5, abs(last) * 0.05) * (1.1 - self.skill))
            return BenchmarkAnswer(question.id, question.qtype, value=target + noise)
        n = len(question.options)
        if record and rng.random() < self.skill:
            selected = record.gold_options
        elif question.qtype == BINARY_CHOICE:
            selected = (rng.randrange(n),)
        else:
            k = rng.randrange(1, min(4, n) + 1)
            selected = tuple(sorted(rng.sample(range(n), k)))
        return BenchmarkAnswer(question.id, question.qtype, selected=selected)


@dataclass
class DegenerateAnswerer:
    """Always multi-selects on binary and answers nothing elsewhere.

    Exercises the zero-score conventions: a binary prediction that is not a
    single option scores 0, and an empty multi-select scores 0.
    """

    name: str = "degenerate"

    def answer(self, question: BenchmarkQuestion, prompt: str = "") -> BenchmarkAnswer:
        if question.qtype == BINARY_CHOICE:
            return BenchmarkAnswer(question.id, question.qtype, selected=(0, 1))
        if question.qtype == NUMERIC:
            return BenchmarkAnswer(question.id, question.qtype, value=0.0)
        return BenchmarkAnswer(question.id, question.qtype, selected=())


def _option_vector(indices: Sequence[int], n_options: int) -> tuple[int, ...]:
    chosen = set(indices)
    return tuple(1 if i in chosen else 0 for i in range(n_options))


def score_benchmark_batch(
    questions: Sequence[BenchmarkQuestion],
    answers: Mapping[str, BenchmarkAnswer],
    gold: Mapping[str, GoldRecord],
) -> ScoreReport:
    """Score one matured benchmark batch with the type-specific rules.

    Unresolved questions are excluded; so are questions the agent never
    answered. Types left with no scored questions stay absent from the
    report and the overall score averages the rest.
    """
    per_type: dict[str, list[float]] = {qtype: [] for qtype in BENCHMARK_TYPES}
    for question in questions:
        record = gold.get(question.id)
        if record is None or not record.will_resolve:
            continue
        answer = answers.get(question.id)
        if answer is None:
            continue
        if question.qtype == NUMERIC:
            if record.value is None:
                continue
            predicted = answer.value if answer.value is not None else 0.0
            score = numeric_score(
                NumericAnswer(predicted=predicted, history=question.history + (record.value,))
            )
        else:
            choice = ChoiceAnswer(
                gold=_option_vector(record.gold_options, len(question.options)),
                predicted=_option_vector(answer.selected, len(question.options)),
            )
            score = f1_choice(choice, is_binary=question.qtype == BINARY_CHOICE)
        per_type[question.qtype].append(score)

    def mean_or_none(scores: list[float]) -> Optional[float]:
        return sum(scores) / len(scores) if scores else None

    report = ScoreReport(
        s_bin=mean_or_none(per_type[BINARY_CHOICE]),
        s_smc=mean_or_none(per_type[SIMPLE_MC]),
        s_dmc=mean_or_none(per_type[DIFFICULT_MC]),
        s_num=mean_or_none(per_type[NUMERIC]),
        n_by_type={qtype: len(scores) for qtype, scores in per_type.items() if scores},
    )
    present = [s for s in (report.s_bin, report.s_smc, report.s_dmc, report.s_num) if s is not None]
    if present:
        report.s_overall = overall(report.s_bin, report.s_smc, report.s_dmc, report.s_num)
    report.n_predictions = sum(len(v) for v in per_type.values())
    return report
