"""Candidate events -> filtered, domain-balanced, similarity-reduced pairs.

Stages, in order:
  1. construct_pair: instantiate a question template from an event payload.
  2. apply_filters: three rule-based eligibility checks (resolvable,
     meaningful, safe); a pair is dropped if any check flags it.
  3. resample: classify into domains by keyword rules, water-fill the
     retention budget across domains, then reduce within-domain similarity by
     seeded K-means over text embeddings, keeping one representative per
     cluster (the pair closest to its centroid).

numpy is imported by the K-means functions, not with the module: a day that
issues no more pairs than its target never embeds.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .domain import (
    CandidateEvent,
    DomainLabel,
    OTHER_DOMAIN,
    Question,
    QuestionDescriptionPair,
)
from .embedding import HashingEmbedder, embed_text
from .seeding import derive_seed

if TYPE_CHECKING:
    import numpy as np


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class QuestionTemplate:
    """A question pattern with ``{field}`` placeholders filled from payloads."""

    name: str
    pattern: str
    description_pattern: Optional[str] = None

    def required_fields(self) -> set[str]:
        formatter = string.Formatter()
        return {name for _, name, _, _ in formatter.parse(self.pattern) if name}


DEFAULT_TEMPLATES: tuple[QuestionTemplate, ...] = (
    QuestionTemplate(
        name="temperature",
        pattern="Will the highest temperature in {city} be between {band} on {date}?",
        description_pattern=(
            "Recent daily highs in {city} have clustered near {band}. "
            "Station reference {identifier}."
        ),
    ),
    QuestionTemplate(
        name="match",
        pattern="Will {home} beat {away} in their match on {date}?",
    ),
    QuestionTemplate(
        name="index_threshold",
        pattern="Will the {index} close above {threshold} points on {date}?",
        description_pattern=(
            "The {index} has traded in a narrow range around {threshold} this week. "
            "Series reference {identifier}."
        ),
    ),
    QuestionTemplate(
        name="release",
        pattern="Will {company} ship the {product} update by {date}?",
    ),
    QuestionTemplate(
        name="vote",
        pattern="Will the {body} approve the {measure} by {date}?",
        description_pattern=(
            "The {measure} has been on the {body} docket for two sessions. "
            "Filing reference {identifier}."
        ),
    ),
    QuestionTemplate(
        name="box_office",
        pattern="Will {film} gross over {amount} million on {date}?",
    ),
    QuestionTemplate(
        name="storm",
        pattern="Will the storm near {city} cause casualties on {date}?",
    ),
)


def select_template(
    event: CandidateEvent, templates: Sequence[QuestionTemplate]
) -> QuestionTemplate:
    by_name = {t.name: t for t in templates}
    wanted = event.payload.get("template")
    if wanted is not None:
        if wanted not in by_name:
            raise TemplateError(f"no matching template named {wanted!r}")
        return by_name[wanted]
    for template in templates:
        if template.required_fields() <= set(event.payload):
            return template
    raise TemplateError("no matching template for event payload")


def construct_pair(
    event: CandidateEvent,
    templates: Sequence[QuestionTemplate],
    prediction_time: datetime,
) -> QuestionDescriptionPair:
    """Instantiate a question-description pair from one candidate event.

    Deterministic: the same event always yields the same pair text and question id.
    """
    template = select_template(event, templates)
    missing = template.required_fields() - set(event.payload)
    if missing:
        raise TemplateError(f"payload missing required fields: {sorted(missing)}")
    text = template.pattern.format(**event.payload)
    description: Optional[str] = event.payload.get("description")
    if description is None and template.description_pattern is not None:
        description = template.description_pattern.format(**event.payload)
    identifier = event.identifier
    question = Question(
        id=f"q-{identifier}",
        text=text,
        prediction_time=prediction_time,
        resolution_time=event.expected_resolution,
        source=event.source_id,
        source_url=event.source_url,
        resolver_key=event.resolver_key,
        resolver_metadata={"identifier": identifier},
        domain=OTHER_DOMAIN,
    )
    return QuestionDescriptionPair(question=question, description=description)


DEFAULT_BLOCKLIST = (
    "casualties",
    "fatalities",
    "assassination",
    "hostage",
    "overdose",
)


@dataclass(frozen=True)
class FilterDecision:
    """Why a pair is dropped, at most one reason per criterion; none keeps it."""

    drop_reasons: list[str]

    @property
    def keep(self) -> bool:
        return not self.drop_reasons


def apply_filters(
    pair: QuestionDescriptionPair, blocklist: Sequence[str] = DEFAULT_BLOCKLIST
) -> FilterDecision:
    """Check the three eligibility criteria: resolvable, meaningful, safe.

    Gives at most one drop reason per criterion, in that order; the pair is
    kept when there is none. A resolution before the prediction time needs no
    check here: ``Question`` refuses it.
    """
    question = pair.question
    reasons: list[str] = []
    if not question.resolver_key:
        reasons.append("no resolver registered for this question")
    elif "identifier" not in question.resolver_metadata:
        reasons.append("no identifier to match an outcome record against")
    text = question.text.strip()
    if not text.endswith("?"):
        reasons.append("not phrased as a question")
    elif len(text.split()) < 5:
        reasons.append("too short to describe a concrete outcome")
    haystack = (question.text + " " + (pair.description or "")).lower()
    for term in blocklist:
        if term.lower() in haystack:
            reasons.append(f"blocklisted term: {term}")
            break
    return FilterDecision(reasons)


@dataclass(frozen=True)
class DomainRule:
    label: DomainLabel
    keywords: tuple[str, ...]


DEFAULT_DOMAIN_RULES: tuple[DomainRule, ...] = (
    DomainRule("weather", ("temperature", "storm", "rainfall")),
    DomainRule("sports", ("beat", "match", "tournament")),
    DomainRule("finance", ("close above", "index", "points")),
    DomainRule("technology", ("ship the", "update", "release")),
    DomainRule("politics", ("approve", "council", "board")),
    DomainRule("entertainment", ("gross", "film", "premiere")),
)


def classify_domain(
    pair: QuestionDescriptionPair, rules: Sequence[DomainRule]
) -> DomainLabel:
    """First keyword rule that matches the question+description text wins."""
    if not rules:
        raise ValueError("domain rules must be non-empty")
    haystack = (pair.question.text + " " + (pair.description or "")).lower()
    for rule in rules:
        if any(kw.lower() in haystack for kw in rule.keywords):
            return rule.label
    return OTHER_DOMAIN


def allocate_budget(counts: Mapping[str, int], target: int) -> dict[str, int]:
    """Water-fill the retention target across non-empty domains.

    Returns each domain's retained budget M_d, in sorted domain order, under
    its capacity N_d = ``counts[d]``. Raise the common level c as far as
    capacities allow, then hand out any remainder one unit per unsaturated
    domain in ascending lexicographic order. The result is as balanced as
    possible: no unit can move between two domains and reduce the spread.
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    if any(n <= 0 for n in counts.values()):
        raise ValueError("counts must cover non-empty domains only")
    domains = sorted(counts)
    capacity = sum(counts.values())
    budget = min(target, capacity)

    level = 0
    max_count = max(counts.values(), default=0)
    while level < max_count and sum(min(n, level + 1) for n in counts.values()) <= budget:
        level += 1
    allocated = {d: min(counts[d], level) for d in domains}
    remainder = budget - sum(allocated.values())
    for d in domains:
        if remainder == 0:
            break
        if allocated[d] < counts[d]:
            allocated[d] += 1
            remainder -= 1
    return allocated


def embed_pair(pair: QuestionDescriptionPair, embedder: HashingEmbedder) -> np.ndarray:
    """Unit-norm embedding of the question concatenated with its description (if any)."""
    text = pair.question.text + "\n" + (pair.description or "")
    return embed_text(text, embedder)


#: Squared-distance slack within which a centre is re-checked exactly. The
#: Gram form is off by ~1e-15 for unit-norm points; the slack covers that.
_TIE_SLACK = 1e-9


def _nearest_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, ties to the lowest index.

    Equal to ``argmin(norm(points[:, None] - centroids[None], axis=2), axis=1)``
    without the n x k x dim tensor. Squared distances come from one matmul
    in Gram form; a point with more than one centre within the slack of its
    minimum has its exact distances to those centres recomputed as the
    reference does, since hashed embeddings tie exactly and often.
    """
    import numpy as np

    sq = (
        np.einsum("ij,ij->i", points, points)[:, None]
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        - 2.0 * (points @ centroids.T)
    )
    candidates = sq <= sq.min(axis=1, keepdims=True) + _TIE_SLACK
    nearest = np.argmax(candidates, axis=1)  # the first candidate
    for row in np.flatnonzero(np.count_nonzero(candidates, axis=1) > 1):
        cols = np.flatnonzero(candidates[row])
        exact = np.linalg.norm(points[row] - centroids[cols], axis=1)
        nearest[row] = cols[np.argmin(exact)]
    return nearest


def _kmeans(
    points: np.ndarray, k: int, seed: int, max_iterations: int = 100
) -> np.ndarray:
    """Seeded K-means returning final assignments.

    Init is greedy farthest-point from a seeded starting index; assignment
    ties go to the lowest center index; empty clusters are refilled with the
    point farthest from the centroid of the largest cluster.
    """
    import numpy as np

    n = points.shape[0]
    rng = np.random.default_rng(seed)

    centers = [int(rng.integers(n))]
    dist_to_nearest = np.linalg.norm(points - points[centers[0]], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(dist_to_nearest))
        centers.append(nxt)
        dist_to_nearest = np.minimum(
            dist_to_nearest, np.linalg.norm(points - points[nxt], axis=1)
        )
    centroids = points[centers].copy()

    assignments = np.full(n, -1, dtype=int)
    for _ in range(max_iterations):
        new_assignments = _nearest_centroids(points, centroids)

        for cluster in range(k):
            if np.any(new_assignments == cluster):
                continue
            sizes = np.bincount(new_assignments, minlength=k)
            donor = int(np.argmax(sizes))
            members = np.flatnonzero(new_assignments == donor)
            donor_centroid = points[members].mean(axis=0)
            farthest = members[
                int(np.argmax(np.linalg.norm(points[members] - donor_centroid, axis=1)))
            ]
            new_assignments[farthest] = cluster

        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            members = points[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return assignments


def resample_domain(
    pairs: Sequence[QuestionDescriptionPair],
    budget: int,
    embedder: HashingEmbedder,
    seed: int,
) -> list[QuestionDescriptionPair]:
    """Keep ``budget`` representatives of one domain's pairs.

    Clusters the pair embeddings into ``budget`` groups and keeps, per
    cluster, the pair closest to the centroid (ties broken by smallest
    question id). Selection order follows the input order.
    """
    if budget > len(pairs):
        raise ValueError(f"budget {budget} exceeds available pairs {len(pairs)}")
    if budget == len(pairs):
        return list(pairs)
    if budget == 0:
        return []

    import numpy as np

    points = np.stack([embed_pair(p, embedder) for p in pairs])
    assignments = _kmeans(points, budget, seed)

    selected_ids: set[str] = set()
    for cluster in range(budget):
        members = np.flatnonzero(assignments == cluster)
        centroid = points[members].mean(axis=0)
        dists = np.linalg.norm(points[members] - centroid, axis=1)
        best = min(
            zip(dists, (pairs[i].question.id for i in members)),
            key=lambda item: (item[0], item[1]),
        )
        selected_ids.add(best[1])
    return [p for p in pairs if p.question.id in selected_ids]


def resample(
    pairs: Sequence[QuestionDescriptionPair],
    target: int,
    rules: Sequence[DomainRule],
    embedder: HashingEmbedder,
    seed: int,
) -> list[QuestionDescriptionPair]:
    """Balance domains and reduce within-domain similarity.

    Returns min(target, len(pairs)) pairs with their domain labels attached,
    in input order. Deterministic in (inputs, seed), and a projection:
    resampling the output again with the same target returns the same set.
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    if not pairs or target == 0:
        return []

    labeled = [
        QuestionDescriptionPair(
            question=p.question.with_domain(classify_domain(p, rules)),
            description=p.description,
        )
        for p in pairs
    ]
    by_domain: dict[str, list[QuestionDescriptionPair]] = {}
    for p in labeled:
        by_domain.setdefault(p.question.domain, []).append(p)

    budgets = allocate_budget({d: len(v) for d, v in by_domain.items()}, target)
    selected_ids: set[str] = set()
    for domain, budget in budgets.items():
        chosen = resample_domain(
            by_domain[domain],
            budget,
            embedder,
            derive_seed(seed, "resample", domain),
        )
        selected_ids.update(p.question.id for p in chosen)
    return [p for p in labeled if p.question.id in selected_ids]
