"""Candidate-event supply: feed files, or a built-in synthetic world.

``CycleConfig.sources`` lists JSONL feed files of candidate events. When it
lists none, ``generate_synthetic_world`` builds each day's ``FetchResult``
from the config's ``seed``, ``event_rate`` and ``unresolved_rate``: the
candidate events, a truth row per event and a hint row per event. Owning the
ground truth of its events makes fully closed-loop simulation possible
without touching the network. Synthetic events resolve at the cycle's
resolve time on day+1 and are observed on the issue day, local to the
cycle's timezone. A feed event is issued on the one day whose window holds
its ``expected_resolution`` (see ``fetch_all``).

Ground-truth isolation: the realized label and resolvability of a synthetic
event appear only in its truth row, which only the resolution stage reads,
and its latent probability only in its hint row. The candidate payload handed
to the question pipeline carries neither.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, tzinfo
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .domain import CandidateEvent
from .jsonl import from_row, read_lines, write_jsonl
from .scoring import sum_in_order
from .seeding import derive_seed

if TYPE_CHECKING:
    from .orchestrator import CycleConfig

#: Latent-probability law: most templated daily questions are close to
#: decided one way or the other, a minority are genuinely contested.
LATENT_MIXTURE: tuple[tuple[float, float, float], ...] = (
    (0.02, 0.12, 0.45),
    (0.88, 0.98, 0.45),
    (0.25, 0.75, 0.10),
)

_MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)


def _human_date(d: date) -> str:
    return f"{_MONTHS[d.month - 1]} {d.day}"


# Template archetypes the generator draws from. The payload keys of each
# archetype line up with the default question templates in the pipeline, so
# the templating stage is exercised end to end. The "storm" archetype
# deliberately produces text the default safety blocklist rejects.
_ARCHETYPES: tuple[dict[str, Any], ...] = (
    {
        "name": "temperature",
        "weight": 0.30,
        "cities": (
            "Dallas", "Oslo", "Nairobi", "Lima", "Osaka", "Porto", "Denver", "Perth",
            "Quito", "Tunis", "Busan", "Leeds", "Calgary", "Sapporo", "Cusco", "Tampere",
        ),
    },
    {
        "name": "match",
        "weight": 0.26,
        "teams": (
            "Rivergate FC", "Harbor City", "Northfield United", "Kestrel Rovers",
            "Solway Athletic", "Braxton Town", "Eastmoor SC", "Pinewood Wanderers",
            "Calder Mills", "Westbrook Albion", "Ferngate FC", "Oakhaven Sporting",
        ),
    },
    {
        "name": "index_threshold",
        "weight": 0.20,
        "indexes": (
            "Meridian 300", "Atlas Composite", "Beacon 50", "Crescent Index",
            "Granite 120", "Pelican Average", "Summit 80", "Tidewater Index",
        ),
    },
    {
        "name": "release",
        "weight": 0.10,
        "companies": (
            "Lumenware", "Graphico", "Nordcell", "Vantive Labs",
            "Skylark Systems", "Bramblefield", "Octavon", "Clearline Robotics",
        ),
        "products": (
            "firmware", "mapping", "runtime", "billing",
            "telemetry", "scheduler", "gateway", "console",
        ),
    },
    {
        "name": "vote",
        "weight": 0.08,
        "bodies": (
            "city council", "transit board", "harbor authority", "school board",
            "parks commission", "water district", "county assembly", "port committee",
        ),
        "measures": (
            "zoning amendment", "fare proposal", "budget rider", "charter revision",
            "bond measure", "easement swap", "procurement reform", "franchise renewal",
        ),
    },
    {
        "name": "box_office",
        "weight": 0.03,
        "films": (
            "Glass Harbor", "Second Orbit", "The Long Meadow", "Paper Lanterns",
            "North of Nowhere", "The Quiet Divide", "Copper Season", "Half Moon Road",
        ),
    },
    {
        "name": "storm",
        "weight": 0.03,
        "cities": ("Tampa", "Manila", "Haikou", "Veracruz", "Brisbane", "Colombo"),
    },
)


def _make_payload(kind: dict[str, Any], rng: random.Random, target_day: date, identifier: str) -> dict[str, str]:
    name = kind["name"]
    payload: dict[str, str] = {"template": name, "identifier": identifier, "date": _human_date(target_day)}
    if name == "temperature":
        low = rng.randrange(40, 100)
        payload["city"] = rng.choice(kind["cities"])
        payload["band"] = f"{low}-{low + 1}°F"
    elif name == "match":
        home, away = rng.sample(list(kind["teams"]), 2)
        payload["home"] = home
        payload["away"] = away
    elif name == "index_threshold":
        payload["index"] = rng.choice(kind["indexes"])
        payload["threshold"] = str(rng.randrange(80, 420) * 25)
    elif name == "release":
        payload["company"] = rng.choice(kind["companies"])
        payload["product"] = rng.choice(kind["products"])
    elif name == "vote":
        payload["body"] = rng.choice(kind["bodies"])
        payload["measure"] = rng.choice(kind["measures"])
    elif name == "box_office":
        payload["film"] = rng.choice(kind["films"])
        payload["amount"] = str(rng.randrange(2, 40))
    elif name == "storm":
        payload["city"] = rng.choice(kind["cities"])
    else:  # pragma: no cover - archetype table is closed
        raise ValueError(name)
    return payload


def _draw_latent_p(rng: random.Random) -> float:
    total = sum_in_order(w for _, _, w in LATENT_MIXTURE)
    pick = rng.random() * total
    acc = 0.0
    for lo, hi, weight in LATENT_MIXTURE:
        acc += weight
        if pick <= acc:
            return rng.uniform(lo, hi)


@dataclass
class RecordError:
    path: Path
    line_number: int
    message: str


@dataclass
class FetchResult:
    """A day's candidates, their hidden truth, and per-record feed errors.

    ``truth_rows`` and ``hint_rows`` are filled by the built-in world only,
    one of each per event, in event order. The orchestrator persists them as
    sidecars: truth rows, answer rows ``{"identifier", "label"}`` or
    ``{"identifier", "status"}`` (see ``resolve``) for the resolution stage,
    and hint rows (latent likelihood, no label) for the simulated search tool.
    """

    events: list[CandidateEvent]
    errors: list[RecordError] = field(default_factory=list)
    truth_rows: list[dict[str, Any]] = field(default_factory=list)
    hint_rows: list[dict[str, Any]] = field(default_factory=list)


def generate_synthetic_world(
    day: date,
    resolve_at: datetime,
    zone: tzinfo,
    seed: int,
    event_count: int,
    unresolved_rate: float,
) -> FetchResult:
    """The built-in world of local ``day`` in ``zone``; same arguments, same world.

    Every event resolves at ``resolve_at``. Labels and resolvability are
    fixed here, at generation time, in the truth rows the resolvers later
    consult. The unresolved share is stratified: exactly round(rate * n)
    events are marked unretrievable.
    """
    rng = random.Random(derive_seed(seed, day.isoformat(), "world"))
    target_day = day + timedelta(days=1)
    weights = [k["weight"] for k in _ARCHETYPES]

    world = FetchResult(events=[])
    seen_signatures: set[tuple] = set()
    for i in range(event_count):
        identifier = f"evt-{day.isoformat()}-{i:05d}"
        # Two events that would read as the same question are the same event;
        # redraw colliding payloads (bounded, in case the vocabulary runs out).
        for _ in range(20):
            kind = rng.choices(_ARCHETYPES, weights=weights, k=1)[0]
            payload = _make_payload(kind, rng, target_day, identifier)
            signature = tuple(sorted((k, v) for k, v in payload.items() if k != "identifier"))
            if signature not in seen_signatures:
                break
        seen_signatures.add(signature)
        observed_at = datetime.combine(
            day, time(rng.randrange(6, 18), rng.randrange(0, 60)), tzinfo=zone
        )
        latent_p = _draw_latent_p(rng)
        world.events.append(
            CandidateEvent(
                source_id="synthetic",
                source_url=f"synthetic://{kind['name']}/{identifier}",
                observed_at=observed_at,
                payload=payload,
                expected_resolution=resolve_at,
                resolver_key="synthetic",
            )
        )
        label = 1 if rng.random() < latent_p else 0
        world.truth_rows.append({"identifier": identifier, "label": label})
        world.hint_rows.append({"identifier": identifier, "latent_p": latent_p})

    for idx in rng.sample(range(event_count), round(unresolved_rate * event_count)):
        del world.truth_rows[idx]["label"]  # drawn anyway: no later draw depends on this sample
        world.truth_rows[idx]["status"] = "postponed" if rng.random() < 0.2 else "not_published"
    return world


def read_feeds(paths: Iterable[Path | str]) -> tuple[list[CandidateEvent], list[RecordError]]:
    """Read JSONL candidate feeds in turn; malformed records are reported, not fatal.

    Question ids derive from event identifiers, so an identifier already seen
    on an earlier line, of this feed or an earlier one, is reported instead
    of being issued a second time.
    """
    events: list[CandidateEvent] = []
    errors: list[RecordError] = []
    first_seen: dict[str, tuple[Path, int]] = {}
    for path in map(Path, paths):
        try:
            lines = read_lines(path)
        except OSError as exc:
            raise FileNotFoundError(f"unreadable feed file {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                event = from_row(CandidateEvent, json.loads(line))
                seen_at = first_seen.setdefault(event.identifier, (path, lineno))
            except (TypeError, ValueError) as exc:  # a JSON error is a ValueError
                errors.append(RecordError(path, lineno, str(exc)))
                continue
            if seen_at != (path, lineno):
                first_path, first_line = seen_at
                errors.append(
                    RecordError(
                        path,
                        lineno,
                        f"duplicate identifier {event.identifier!r} "
                        f"(first on line {first_line} of {first_path})",
                    )
                )
                continue
            events.append(event)
    return events, errors


def fetch_all(config: CycleConfig, day: date) -> FetchResult:
    """The candidates of the batch issued on local ``day``; pure in its arguments.

    With no feed files configured they are the built-in world's events, with
    its truth and hint rows. Otherwise they are the feed events that resolve
    after both the day's issue time and the previous batch's resolve time,
    and no later than this batch's resolve time. These windows tile time, so
    each event is issued on one day, and it resolves before its batch does.
    """
    resolve_at = config.resolve_at(day)
    if not config.sources:
        return generate_synthetic_world(
            day, resolve_at, config.zone, config.seed, config.event_rate, config.unresolved_rate
        )
    events, errors = read_feeds(config.sources)
    opens = max(
        config.phase_datetime(day, config.issue_time),
        config.resolve_at(day - timedelta(days=1)),
    )
    kept = [e for e in events if opens < e.expected_resolution <= resolve_at]
    return FetchResult(events=kept, errors=errors)


def write_truth_file(path: Path, rows: Iterable[Mapping[str, Any]]) -> None:
    write_jsonl(path, rows)
