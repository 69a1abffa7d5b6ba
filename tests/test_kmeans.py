"""The Gram-form K-means assignment equals the norm-tensor one it replaced.

``_reference_nearest`` and ``_reference_kmeans`` keep the assignment step
that built the n x k x dim difference tensor, so every check here compares
the shipped step against it: equal assignments, lowest-index ties included.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from futureworld.embedding import HashingEmbedder, embed_text
from futureworld.qpipeline import (
    DEFAULT_DOMAIN_RULES,
    DEFAULT_TEMPLATES,
    _kmeans,
    _nearest_centroids,
    allocate_budget,
    apply_filters,
    classify_domain,
    construct_pair,
    embed_pair,
)
from futureworld.seeding import derive_seed
from futureworld.sources import generate_synthetic_world

DAY = date(2026, 3, 2)
ISSUE_AT = datetime(2026, 3, 2, 20, 0, tzinfo=timezone.utc)


def _reference_nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The former assignment step, taken over blocks of rows to bound memory.

    Each (point, centre) distance is reduced on its own, so a block of rows
    gives the same bits as the whole tensor.
    """
    out = []
    for start in range(0, len(points), 64):
        block = points[start : start + 64]
        distances = np.linalg.norm(block[:, None, :] - centroids[None, :, :], axis=2)
        out.append(np.argmin(distances, axis=1))
    return np.concatenate(out)


def _reference_kmeans(points: np.ndarray, k: int, seed: int, max_iterations: int = 100) -> np.ndarray:
    """``_kmeans`` as it was, with ``_reference_nearest`` as its assignment step."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = [int(rng.integers(n))]
    dist_to_nearest = np.linalg.norm(points - points[centers[0]], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(dist_to_nearest))
        centers.append(nxt)
        dist_to_nearest = np.minimum(dist_to_nearest, np.linalg.norm(points - points[nxt], axis=1))
    centroids = points[centers].copy()
    assignments = np.full(n, -1, dtype=int)
    for _ in range(max_iterations):
        new_assignments = _reference_nearest(points, centroids)
        for cluster in range(k):
            if np.any(new_assignments == cluster):
                continue
            sizes = np.bincount(new_assignments, minlength=k)
            donor = int(np.argmax(sizes))
            members = np.flatnonzero(new_assignments == donor)
            donor_centroid = points[members].mean(axis=0)
            farthest = members[int(np.argmax(np.linalg.norm(points[members] - donor_centroid, axis=1)))]
            new_assignments[farthest] = cluster
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            members = points[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return assignments


def _unit_rows(rng: np.random.Generator, n: int, dim: int = 256) -> np.ndarray:
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _assert_same_assignment(points: np.ndarray, centroids: np.ndarray) -> None:
    got = _nearest_centroids(points, centroids)
    assert got.dtype == _reference_nearest(points, centroids).dtype
    assert got.tolist() == _reference_nearest(points, centroids).tolist()


# -- one assignment step ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_assignment_matches_on_seeded_random_points(seed):
    rng = np.random.default_rng(seed)
    points = _unit_rows(rng, 120)
    _assert_same_assignment(points, _unit_rows(rng, 17))
    _assert_same_assignment(points, points[rng.choice(120, size=30, replace=False)])
    _assert_same_assignment(rng.normal(size=(80, 8)), rng.normal(size=(9, 8)))


def test_assignment_matches_with_duplicate_points_and_centroids():
    rng = np.random.default_rng(7)
    base = _unit_rows(rng, 10)
    points = base[rng.integers(10, size=90)]  # every point has eight or so twins
    centroids = base[[3, 1, 3, 7, 1, 1, 0, 3]]  # repeated centres: the lowest index must win
    got = _nearest_centroids(points, centroids)
    assert got.tolist() == _reference_nearest(points, centroids).tolist()
    assert set(got.tolist()) <= {0, 1, 3, 6}
    _assert_same_assignment(points, np.vstack([centroids, centroids]))


def test_assignment_matches_on_hashed_near_identical_texts():
    embedder = HashingEmbedder(seed=3)
    texts = [
        f"Will the highest temperature in {city} be between {low}-{low + 1}°F on March {day}?"
        for city in ("Oslo", "Osaka", "Lima")
        for low in range(50, 58)
        for day in (3, 4)
    ]
    texts += texts[:12]  # exact duplicates on top of the near ones
    points = np.stack([embed_text(t, embedder) for t in texts])
    for picks in ([0, 1, 2, 3], [0, 48, 5, 53, 10], list(range(0, 60, 3))):
        _assert_same_assignment(points, points[picks])
    _assert_same_assignment(points, (points[0::2][:20] + points[1::2][:20]) / 2)


# -- whole runs at the workloads' domain sizes -------------------------------------------


def _domains(seed: int, events: int, target: int):
    """Each domain's embeddings and K-means budget on one synthetic issue day."""
    resolve_at = ISSUE_AT + timedelta(days=1, minutes=30)
    world = generate_synthetic_world(DAY, resolve_at, timezone.utc, seed, events, 0.3565)
    pairs = [construct_pair(e, DEFAULT_TEMPLATES, ISSUE_AT) for e in world.events]
    by_domain: dict[str, list] = {}
    for pair in pairs:
        if apply_filters(pair).keep:
            by_domain.setdefault(classify_domain(pair, DEFAULT_DOMAIN_RULES), []).append(pair)
    budgets = allocate_budget({d: len(v) for d, v in by_domain.items()}, target)
    embedder = HashingEmbedder(seed=seed)
    for domain, budget in budgets.items():
        if 0 < budget < len(by_domain[domain]):
            points = np.stack([embed_pair(p, embedder) for p in by_domain[domain]])
            yield points, budget, derive_seed(seed, "resample", domain)


@pytest.mark.parametrize(
    "seed,events,target",
    [(1, 300, 100), (6, 300, 100), (6, 1200, 500)],
    ids=["accept-1", "accept-6", "paper-6"],
)
def test_kmeans_runs_match_at_workload_domain_sizes(seed, events, target):
    sizes = []
    for points, budget, kseed in _domains(seed, events, target):
        sizes.append(len(points))
        assert _kmeans(points, budget, kseed).tolist() == _reference_kmeans(points, budget, kseed).tolist()
    assert max(sizes) >= (450 if events == 1200 else 80)
