"""Candidate-event supply: source registry, file feeds, and a synthetic world.

Two adapter kinds ship in-repo. ``file_feed`` replays a JSONL fixture of
candidate events. ``synthetic`` generates a deterministic world for a given
day and also owns the ground truth for it, which makes fully closed-loop
simulation possible without touching the network. Synthetic events resolve
at the instant the caller passes in: the cycle's resolve time on day+1. The
caller also names the timezone whose local day ``day`` is; synthetic
observation times and the file feed's day+1 are local to it.

Ground-truth isolation: the latent probability, realized label, and
resolvability of a synthetic event never appear in the candidate payload
handed to the question pipeline. They live in a sidecar truth table that only
the resolution stage reads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone, tzinfo
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from .domain import CandidateEvent, SourceId
from .jsonl import from_row, read_lines, write_jsonl
from .seeding import derive_seed

#: Observed unresolved share of daily questions; used as the default rate at
#: which synthetic events are marked unretrievable at resolution time.
DEFAULT_UNRESOLVED_RATE = 0.3565

#: Default latent-probability law: most templated daily questions are close
#: to decided one way or the other, a minority are genuinely contested.
DEFAULT_LATENT_MIXTURE: tuple[tuple[float, float, float], ...] = (
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


#: The params each adapter kind reads; any other param would be ignored.
_KIND_PARAMS: dict[str, frozenset[str]] = {
    "synthetic": frozenset({"seed", "event_rate", "unresolved_rate", "latent_p_mixture"}),
    "file_feed": frozenset({"path"}),
}


@dataclass(frozen=True)
class SourceSpec:
    """Declares one candidate-event source and its adapter parameters."""

    source_id: SourceId
    kind: str  # "file_feed" | "synthetic"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        if self.kind not in _KIND_PARAMS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        unknown = sorted(map(str, set(self.params) - _KIND_PARAMS[self.kind]))
        if unknown:
            raise ValueError(
                f"unknown {self.kind} source params: {', '.join(unknown)}; "
                f"it reads {', '.join(sorted(_KIND_PARAMS[self.kind]))}"
            )
        if self.kind == "file_feed" and "path" not in self.params:
            raise ValueError("file_feed source requires a 'path' param")


@dataclass(frozen=True)
class SyntheticEvent:
    event: CandidateEvent
    latent_p: float
    realized_label: int
    will_resolve: bool
    unresolved_reason: Optional[str] = None

    @property
    def identifier(self) -> str:
        return self.event.payload["identifier"]


@dataclass(frozen=True)
class SyntheticWorld:
    """A fully generated day of candidate events plus their hidden truth."""

    seed: int
    day: date
    events: tuple[SyntheticEvent, ...]

    def candidates(self) -> list[CandidateEvent]:
        return [e.event for e in self.events]

    def truth_rows(self) -> list[dict[str, Any]]:
        """Sidecar truth records, keyed by resolver identifier.

        This is the only surface that carries realized labels; only the
        resolution stage may read it.
        """
        return [
            {
                "resolver_key": e.event.resolver_key,
                "identifier": e.identifier,
                "label": e.realized_label,
                "will_resolve": e.will_resolve,
                "unresolved_reason": e.unresolved_reason,
            }
            for e in self.events
        ]

    def hint_rows(self) -> list[dict[str, Any]]:
        """Latent likelihoods per identifier, for the simulated search tool.

        Deliberately label-free: a hint reveals how likely an event was, not
        how it turned out.
        """
        return [
            {"identifier": e.identifier, "latent_p": e.latent_p} for e in self.events
        ]


@dataclass(frozen=True)
class SyntheticWorldConfig:
    day: date
    #: when every event of the day resolves (the cycle's resolve time on day+1)
    resolve_at: datetime
    #: the timezone whose local day ``day`` is
    zone: tzinfo = timezone.utc
    event_count: int = 300
    unresolved_rate: float = DEFAULT_UNRESOLVED_RATE
    latent_mixture: Sequence[tuple[float, float, float]] = DEFAULT_LATENT_MIXTURE

    def __post_init__(self) -> None:
        if not 0.0 <= self.unresolved_rate <= 1.0:
            raise ValueError("unresolved_rate must lie in [0, 1]")
        for lo, hi, weight in self.latent_mixture:
            if not (0.0 <= lo <= hi <= 1.0) or weight < 0:
                raise ValueError(f"invalid latent mixture component ({lo}, {hi}, {weight})")
        if self.event_count < 0:
            raise ValueError("event_count must be non-negative")


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
        "describe": True,
    },
    {
        "name": "match",
        "weight": 0.26,
        "teams": (
            "Rivergate FC", "Harbor City", "Northfield United", "Kestrel Rovers",
            "Solway Athletic", "Braxton Town", "Eastmoor SC", "Pinewood Wanderers",
            "Calder Mills", "Westbrook Albion", "Ferngate FC", "Oakhaven Sporting",
        ),
        "describe": False,
    },
    {
        "name": "index_threshold",
        "weight": 0.20,
        "indexes": (
            "Meridian 300", "Atlas Composite", "Beacon 50", "Crescent Index",
            "Granite 120", "Pelican Average", "Summit 80", "Tidewater Index",
        ),
        "describe": True,
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
        "describe": False,
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
        "describe": True,
    },
    {
        "name": "box_office",
        "weight": 0.03,
        "films": (
            "Glass Harbor", "Second Orbit", "The Long Meadow", "Paper Lanterns",
            "North of Nowhere", "The Quiet Divide", "Copper Season", "Half Moon Road",
        ),
        "describe": False,
    },
    {
        "name": "storm",
        "weight": 0.03,
        "cities": ("Tampa", "Manila", "Haikou", "Veracruz", "Brisbane", "Colombo"),
        "describe": False,
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


def _draw_latent_p(rng: random.Random, mixture: Sequence[tuple[float, float, float]]) -> float:
    total = sum(w for _, _, w in mixture)
    pick = rng.random() * total
    acc = 0.0
    for lo, hi, weight in mixture:
        acc += weight
        if pick <= acc:
            return rng.uniform(lo, hi)
    lo, hi, _ = mixture[-1]
    return rng.uniform(lo, hi)


def generate_synthetic_world(config: SyntheticWorldConfig, seed: int) -> SyntheticWorld:
    """Generate one day's synthetic world; same (config, seed) -> same world.

    Labels and resolvability are fixed here, at generation time, so resolvers
    can later consult them. The unresolved share is stratified: exactly
    round(rate * n) events are marked unretrievable.
    """
    rng = random.Random(derive_seed(seed, config.day.isoformat(), "world"))
    target_day = config.day + timedelta(days=1)
    weights = [k["weight"] for k in _ARCHETYPES]

    events: list[SyntheticEvent] = []
    seen_signatures: set[tuple] = set()
    for i in range(config.event_count):
        identifier = f"evt-{config.day.isoformat()}-{i:05d}"
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
            config.day,
            time(rng.randrange(6, 18), rng.randrange(0, 60)),
            tzinfo=config.zone,
        )
        latent_p = _draw_latent_p(rng, config.latent_mixture)
        realized_label = 1 if rng.random() < latent_p else 0
        event = CandidateEvent(
            source_id="synthetic",
            source_url=f"synthetic://{kind['name']}/{identifier}",
            observed_at=observed_at,
            payload=payload,
            expected_resolution=config.resolve_at,
            resolver_key="synthetic",
        )
        events.append(
            SyntheticEvent(
                event=event,
                latent_p=latent_p,
                realized_label=realized_label,
                will_resolve=True,
            )
        )

    n_unresolved = round(config.unresolved_rate * len(events))
    unresolved_idx = rng.sample(range(len(events)), n_unresolved) if n_unresolved else []
    for idx in unresolved_idx:
        reason = "postponed" if rng.random() < 0.2 else "not_published"
        e = events[idx]
        events[idx] = SyntheticEvent(
            event=e.event,
            latent_p=e.latent_p,
            realized_label=e.realized_label,
            will_resolve=False,
            unresolved_reason=reason,
        )

    return SyntheticWorld(seed=seed, day=config.day, events=tuple(events))


@dataclass
class RecordError:
    line_number: int
    message: str


@dataclass
class FetchResult:
    """Candidates for one (source, day) plus per-record errors.

    ``truth_rows`` and ``hint_rows`` are populated for synthetic sources
    only; the orchestrator persists them as sidecars (truth for the
    resolution stage, hints for the simulated search tool).
    """

    events: list[CandidateEvent]
    errors: list[RecordError] = field(default_factory=list)
    truth_rows: list[dict[str, Any]] = field(default_factory=list)
    hint_rows: list[dict[str, Any]] = field(default_factory=list)


def read_feed_file(path: Path) -> tuple[list[CandidateEvent], list[RecordError]]:
    """Read a JSONL candidate feed; malformed records are reported, not fatal.

    Question ids derive from event identifiers, so an identifier already seen
    on an earlier line is reported instead of being issued a second time.
    """
    events: list[CandidateEvent] = []
    errors: list[RecordError] = []
    first_line: dict[str, int] = {}
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise FileNotFoundError(f"unreadable feed file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = from_row(CandidateEvent, json.loads(line))
            seen_on = first_line.setdefault(event.identifier, lineno)
        except (TypeError, ValueError) as exc:  # a JSON error is a ValueError
            errors.append(RecordError(line_number=lineno, message=str(exc)))
            continue
        if seen_on != lineno:
            errors.append(
                RecordError(
                    line_number=lineno,
                    message=f"duplicate identifier {event.identifier!r} (first on line {seen_on})",
                )
            )
            continue
        events.append(event)
    return events, errors


def _synthetic_config_from_spec(
    spec: SourceSpec, day: date, resolve_at: datetime, zone: tzinfo
) -> SyntheticWorldConfig:
    params = spec.params
    mixture = params.get("latent_p_mixture")
    return SyntheticWorldConfig(
        day=day,
        resolve_at=resolve_at,
        zone=zone,
        event_count=int(params.get("event_rate", 300)),
        unresolved_rate=float(params.get("unresolved_rate", DEFAULT_UNRESOLVED_RATE)),
        latent_mixture=tuple(tuple(c) for c in mixture) if mixture else DEFAULT_LATENT_MIXTURE,
    )


def fetch_candidates(
    spec: SourceSpec, day: date, resolve_at: datetime, zone: tzinfo
) -> FetchResult:
    """Fetch the candidates of one source whose outcomes land on day+1.

    ``day`` is a local day of ``zone``, and ``resolve_at`` is when the batch
    issued on it resolves. Synthetic events are scheduled to resolve then; a
    file feed keeps the events resolving on day+1 in ``zone``. Pure in the
    arguments for both shipped adapter kinds: repeated calls return
    identical results.
    """
    if spec.kind == "synthetic":
        seed = int(spec.params.get("seed", 0))
        world = generate_synthetic_world(
            _synthetic_config_from_spec(spec, day, resolve_at, zone), seed
        )
        return FetchResult(
            events=world.candidates(),
            truth_rows=world.truth_rows(),
            hint_rows=world.hint_rows(),
        )
    if spec.kind == "file_feed":
        events, errors = read_feed_file(Path(spec.params["path"]))
        next_day = day + timedelta(days=1)
        kept = [e for e in events if e.expected_resolution.astimezone(zone).date() == next_day]
        return FetchResult(events=kept, errors=errors)
    raise ValueError(f"unknown source kind {spec.kind!r}")


def fetch_all(
    specs: Iterable[SourceSpec], day: date, resolve_at: datetime, zone: tzinfo
) -> FetchResult:
    """Fetch and concatenate candidates across registered sources."""
    merged = FetchResult(events=[])
    for spec in specs:
        result = fetch_candidates(spec, day, resolve_at, zone)
        merged.events.extend(result.events)
        merged.errors.extend(result.errors)
        merged.truth_rows.extend(result.truth_rows)
        merged.hint_rows.extend(result.hint_rows)
    return merged


def write_truth_file(path: Path, rows: Iterable[Mapping[str, Any]]) -> None:
    write_jsonl(path, rows)
