"""Scripted in-process agents and the simulated search tool.

These make the full training loop runnable and measurable without any model.
Every scripted agent is one ``ScriptedAgent``: it searches the question text
once, then answers by a rule of the hint it found and its trajectory id. The
oracle reports the hint back (0.5 without one), the constant agent anchors
the Brier baseline at 0.25, the noisy oracle adds Gaussian noise seeded by the
trajectory id, and the malformed agent never produces a parseable
probability, exercising the floor reward path.

The simulated search tool derives snippets deterministically from the query
and, when the query is exactly the text of a question it knows, includes a
likelihood index: the event's latent probability blurred according to the
configured information level. At ``information_level`` 1.0 the index is the
latent itself, and only there is the oracle calibrated. Below it,
``SimulatedSearchTool._blur`` adds Gaussian noise clipped to [0.001, 0.999].
The latent is bimodal, so a blurred index is under-confident: among policies
``p = sigmoid(a * logit(index) + b)`` a grid search (ROADMAP, Baseline) puts
the Brier-optimal a* at 1.2-1.6, not at the oracle's a = 1.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from .rollout import ROLE_ENVIRONMENT, ROLE_TOOL, AgentMove, Turn
from .seeding import derive_seed

_HINT_RE = re.compile(r"likelihood index ([01]?\.\d+|[01])")
_QUESTION_LINE = re.compile(r"^Question:\s*(.+)$", re.MULTILINE)


def question_text_from_prompt(prompt: str) -> str:
    """Pull the question line out of a rendered prompt, or fall back to all of it."""
    match = _QUESTION_LINE.search(prompt)
    return match.group(1).strip() if match else prompt.strip()


def hint_from_observation(observation: str) -> Optional[float]:
    match = _HINT_RE.search(observation)
    return float(match.group(1)) if match else None


@dataclass
class SimulatedSearchTool:
    """Deterministic offline stand-in for a web search endpoint.

    ``latent_by_text`` maps a question's exact text to its latent probability;
    a query that is not exactly such a text gets no likelihood index.
    Snippets never mention realized outcomes; only the latent likelihood
    leaks, and only as blurred as ``information_level`` allows.
    """

    latent_by_text: Mapping[str, float] = field(default_factory=dict)
    information_level: float = 1.0
    seed: int = 0

    def search(self, query: str) -> list[str]:
        digest = hashlib.blake2b(query.encode("utf-8"), digest_size=6).hexdigest()
        snippets = [f"Archive digest {digest}: coverage of '{query[:80]}'."]
        latent = self.latent_by_text.get(query)
        if latent is not None:
            hint = self._blur(latent, query)
            snippets.append(
                f"Outlook wire {digest}: consensus likelihood index {hint:.4f} for: {query}"
            )
        snippets.append(f"Clipping {digest[:4]}: no further updates found.")
        return snippets

    def _blur(self, latent: float, question_text: str) -> float:
        if self.information_level >= 1.0:
            return latent
        rng = random.Random(derive_seed(self.seed, "hint", question_text))
        sigma = 0.3 * (1.0 - self.information_level)
        return min(0.999, max(0.001, latent + rng.gauss(0.0, sigma)))


def _oracle(seed: int, hint: Optional[float], trajectory_id: str) -> str:
    return f"FINAL: {0.5 if hint is None else hint:.4f}"


def _constant(seed: int, hint: Optional[float], trajectory_id: str) -> str:
    return "FINAL: 0.5"


def _noisy(seed: int, hint: Optional[float], trajectory_id: str) -> str:
    rng = random.Random(derive_seed(seed, "noisy", trajectory_id))
    value = min(1.0, max(0.0, (0.5 if hint is None else hint) + rng.gauss(0.0, 0.08)))
    return f"FINAL: {value:.4f}"


def _malformed(seed: int, hint: Optional[float], trajectory_id: str) -> str:
    return "The outlook is genuinely uncertain either way."


#: Each scripted agent's answer rule, by name: the only list of agent names.
_RULES = {"oracle": _oracle, "constant": _constant, "noisy": _noisy, "malformed": _malformed}
SCRIPTED_AGENTS = tuple(_RULES)


@dataclass(frozen=True)
class ScriptedAgent:
    """Searches the question text once, then answers by its rule.

    ``rule`` maps the likelihood hint the search found (None when there was
    none) and the trajectory id to the final answer text.
    """

    rule: Callable[[Optional[float], str], str]

    def act(self, trajectory_id: str, turns: Sequence[Turn]) -> AgentMove:
        observations = [turn.text for turn in turns if turn.role == ROLE_TOOL]
        if not observations:
            prompt = next((turn.text for turn in turns if turn.role == ROLE_ENVIRONMENT), "")
            return AgentMove(kind="search", query=question_text_from_prompt(prompt))
        hint = hint_from_observation(observations[-1])
        return AgentMove(kind="final", answer=self.rule(hint, trajectory_id))


def make_scripted_agent(name: str, seed: int = 0) -> ScriptedAgent:
    if name not in _RULES:
        raise ValueError(f"unknown scripted agent {name!r}; available: {SCRIPTED_AGENTS}")
    return ScriptedAgent(partial(_RULES[name], seed))
