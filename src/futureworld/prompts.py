"""Agent-facing prompt rendering and daily benchmark selection.

The probabilistic training prompt carries the question only: descriptions are
dropped before rendering so agents get no extra hints beyond their own
searches. Benchmark prompts cover four formats (binary choice, simple and
difficult multiple choice, numeric prediction) with options labeled A-Z.

Template bodies are plain editable text files with ``<QUESTION>`` and, for
choice formats, ``<OPTIONS>`` placeholders; the wording is configuration, not
a contract.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from datetime import datetime
from importlib import resources
from typing import Sequence

from .domain import QuestionId, Question, ensure_utc
from .seeding import derive_seed

PROBABILISTIC = "probabilistic"
BINARY_CHOICE = "binary_choice"
SIMPLE_MC = "simple_mc"
DIFFICULT_MC = "difficult_mc"
NUMERIC = "numeric"

TEMPLATE_NAMES = (PROBABILISTIC, BINARY_CHOICE, SIMPLE_MC, DIFFICULT_MC, NUMERIC)
BENCHMARK_TYPES = (BINARY_CHOICE, SIMPLE_MC, DIFFICULT_MC, NUMERIC)

#: Allowed option counts per benchmark question type.
OPTION_BOUNDS: dict[str, tuple[int, int]] = {
    BINARY_CHOICE: (2, 2),
    SIMPLE_MC: (3, 4),
    DIFFICULT_MC: (5, 26),
    NUMERIC: (0, 0),
}

QUESTION_PLACEHOLDER = "<QUESTION>"
OPTIONS_PLACEHOLDER = "<OPTIONS>"

OPTION_LETTERS = string.ascii_uppercase  # caps difficult_mc at 26 options


class PromptError(ValueError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    def __post_init__(self) -> None:
        if self.name not in TEMPLATE_NAMES:
            raise PromptError(f"unknown template name {self.name!r}")
        if self.body.count(QUESTION_PLACEHOLDER) != 1:
            raise PromptError(f"template {self.name} must contain {QUESTION_PLACEHOLDER} exactly once")
        needs_options = self.name in (BINARY_CHOICE, SIMPLE_MC, DIFFICULT_MC)
        count = self.body.count(OPTIONS_PLACEHOLDER)
        if needs_options and count != 1:
            raise PromptError(f"template {self.name} must contain {OPTIONS_PLACEHOLDER} exactly once")
        if not needs_options and count != 0:
            raise PromptError(f"template {self.name} must not contain {OPTIONS_PLACEHOLDER}")


def load_default_templates() -> dict[str, PromptTemplate]:
    """Load the template bodies shipped with the package."""
    templates: dict[str, PromptTemplate] = {}
    for name in TEMPLATE_NAMES:
        body = (
            resources.files("futureworld")
            .joinpath(f"templates/{name}.txt")
            .read_text(encoding="utf-8")
        )
        templates[name] = PromptTemplate(name=name, body=body)
    return templates


@dataclass(frozen=True)
class BenchmarkQuestion:
    """One daily-benchmark question in one of the four formats.

    ``history`` holds, for numeric questions, the trailing seven known values
    of the target series; the resolved value appended later completes the
    eight-value window the scorer uses.
    """

    id: QuestionId
    qtype: str
    text: str
    options: tuple[str, ...]
    resolution_time: datetime
    resolver_key: str
    history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "resolution_time", ensure_utc(self.resolution_time))
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "history", tuple(float(v) for v in self.history))
        if self.qtype not in BENCHMARK_TYPES:
            raise PromptError(f"unknown benchmark question type {self.qtype!r}")
        low, high = OPTION_BOUNDS[self.qtype]
        if not low <= len(self.options) <= high:
            raise PromptError(
                f"{self.qtype} requires {low}-{high} options, got {len(self.options)}"
            )


def render_prediction_prompt(question: Question, template: PromptTemplate) -> str:
    """Render the probabilistic training prompt for one question.

    The prompt contains the question text verbatim and never a description;
    the Question record carries none by construction.
    """
    if template.name != PROBABILISTIC:
        raise PromptError(f"expected a {PROBABILISTIC} template, got {template.name}")
    return template.body.replace(QUESTION_PLACEHOLDER, question.text)


def format_options(options: Sequence[str]) -> str:
    return "\n".join(f"{OPTION_LETTERS[i]}. {opt}" for i, opt in enumerate(options))


def render_benchmark_prompt(bq: BenchmarkQuestion, template: PromptTemplate) -> str:
    if template.name != bq.qtype:
        raise PromptError(f"template {template.name} does not match question type {bq.qtype}")
    rendered = template.body.replace(QUESTION_PLACEHOLDER, bq.text)
    if bq.qtype != NUMERIC:
        rendered = rendered.replace(OPTIONS_PLACEHOLDER, format_options(bq.options))
    return rendered


@dataclass(frozen=True)
class BenchmarkCaps:
    binary_choice: int = 5
    simple_mc: int = 10
    difficult_mc: int = 15
    numeric: int = 20
    total: int = 50

    def __post_init__(self) -> None:
        for name in (*BENCHMARK_TYPES, "total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def cap(self, qtype: str) -> int:
        return getattr(self, qtype)


def select_daily_benchmark(
    pool: Sequence[BenchmarkQuestion],
    caps: BenchmarkCaps,
    seed: int,
) -> list[BenchmarkQuestion]:
    """Seeded uniform per-type sampling under the daily caps.

    Per-type counts never exceed their caps and the combined batch never
    exceeds the day total; if custom per-type caps oversubscribe the total,
    the surplus is trimmed in reverse type order (numeric first, binary
    choice last), each type losing its highest question ids first.
    """
    selected: list[BenchmarkQuestion] = []
    for qtype in BENCHMARK_TYPES:
        of_type = sorted((q for q in pool if q.qtype == qtype), key=lambda q: q.id)
        cap = min(caps.cap(qtype), len(of_type))
        if cap == len(of_type):
            chosen = of_type
        else:
            rng = random.Random(derive_seed(seed, "benchmark-select", qtype))
            chosen = sorted(rng.sample(of_type, cap), key=lambda q: q.id)
        selected.extend(chosen)

    overflow = len(selected) - caps.total
    if overflow > 0:
        for qtype in reversed(BENCHMARK_TYPES):
            if overflow == 0:
                break
            of_type = [q for q in selected if q.qtype == qtype]
            drop = {q.id for q in of_type[len(of_type) - min(overflow, len(of_type)):]}
            overflow -= len(drop)
            selected = [q for q in selected if q.id not in drop]
    return selected
