"""Agent-facing prompt rendering and daily benchmark selection.

The probabilistic training prompt carries the question only: descriptions are
dropped before rendering so agents get no extra hints beyond their own
searches. Benchmark prompts cover four formats (binary choice, simple and
difficult multiple choice, numeric prediction) with options labeled A-Z.

The prompt bodies are module constants with a ``<QUESTION>`` placeholder and,
for the three choice formats, an ``<OPTIONS>`` placeholder. The prediction
prompt is the first turn of every stored trajectory, so changing its wording
changes every ledger and export.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

from .domain import QuestionId, Question, ensure_utc
from .seeding import derive_seed

BINARY_CHOICE = "binary_choice"
SIMPLE_MC = "simple_mc"
DIFFICULT_MC = "difficult_mc"
NUMERIC = "numeric"

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

PREDICTION_PROMPT = """\
You are forecasting whether a future event will occur.

Question: <QUESTION>

Use the search tool to gather current evidence before committing to an
answer; you must issue at least one search query. When you are confident,
reply with a single line of the form

FINAL: <probability>

where <probability> is a number between 0 and 1 (a percentage such as 65% is
also accepted) giving the chance that the answer to the question is yes.
"""

BENCHMARK_PROMPTS: dict[str, str] = {
    BINARY_CHOICE: """\
Predict the outcome of the following event.

Question: <QUESTION>

Options:
<OPTIONS>

Select exactly one option. Reply with its letter.
""",
    SIMPLE_MC: """\
Predict the outcome of the following event.

Question: <QUESTION>

Options:
<OPTIONS>

One or more options may turn out to be correct. Reply with the letters of
every option you expect to hold, separated by commas.
""",
    DIFFICULT_MC: """\
Predict the outcome of the following event. This question has many candidate
answers and more than one may be correct.

Question: <QUESTION>

Options:
<OPTIONS>

Reply with the letters of every option you expect to hold, separated by
commas.
""",
    NUMERIC: """\
Predict the value asked for below.

Question: <QUESTION>

Reply with a single number and no other text.
""",
}


class PromptError(ValueError):
    pass


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


def render_prediction_prompt(question: Question) -> str:
    """Render the probabilistic training prompt for one question.

    The prompt contains the question text verbatim and never a description;
    the Question record carries none by construction.
    """
    return PREDICTION_PROMPT.replace(QUESTION_PLACEHOLDER, question.text)


def format_options(options: Sequence[str]) -> str:
    return "\n".join(f"{OPTION_LETTERS[i]}. {opt}" for i, opt in enumerate(options))


def render_benchmark_prompt(bq: BenchmarkQuestion) -> str:
    rendered = BENCHMARK_PROMPTS[bq.qtype].replace(QUESTION_PLACEHOLDER, bq.text)
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
