"""Seeded Poisson churn: session arrivals/departures driving Alg. 3.

Arrivals are a Poisson process (exponential inter-arrival times),
holding times are exponential, and every random choice flows from
:func:`repro.util.rng.derive_rng` under a single trace seed — the same
trace replays bit-identically, which is what the soak fingerprints
assert.  Departure events for sessions still alive at the horizon are
kept so a driven fleet always drains back to empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.fleet.manager import FleetManager
    from repro.fleet.verdict import AdmissionVerdict

JOIN = "join"
LEAVE = "leave"

#: Default PoP cities hosts spawn in (a spread subset of OS3E).
DEFAULT_CITIES: tuple[str, ...] = (
    "Seattle",
    "Sunnyvale",
    "Los Angeles",
    "Salt Lake City",
    "Denver",
    "Kansas City",
    "Dallas",
    "Houston",
    "Chicago",
    "Minneapolis",
    "Atlanta",
    "Nashville",
    "New York",
    "Washington",
    "Boston",
    "Miami",
)

#: What a drawn session asks for: one of these rates, this many receivers.
RATES_MBPS = (5.0, 10.0, 20.0)
RECEIVER_RANGE = (1, 3)


@dataclass(frozen=True)
class SessionSpec:
    """What a tenant asks for: endpoints (as PoP cities), rate, delay."""

    session_id: int
    source_city: str
    receiver_cities: tuple[str, ...]
    rate_mbps: float
    max_delay_ms: float = 100.0

    def __post_init__(self) -> None:
        if not self.receiver_cities:
            raise ValueError("a session needs at least one receiver")
        if self.rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if self.max_delay_ms <= 0:
            raise ValueError("delay bound must be positive")

    def source_host(self) -> str:
        """Unique overlay node name for this session's source."""
        return f"src{self.session_id}"

    def receiver_hosts(self) -> tuple[str, ...]:
        """Unique overlay node names, parallel to ``receiver_cities``."""
        return tuple(f"rcv{self.session_id}.{i}" for i in range(len(self.receiver_cities)))


@dataclass(frozen=True)
class ChurnEvent:
    """One arrival or departure on the fleet timeline."""

    time_s: float
    kind: str  # JOIN | LEAVE
    session_id: int
    spec: SessionSpec | None = None


@dataclass(frozen=True)
class ChurnTrace:
    """A deterministic, replayable sequence of churn events."""

    seed: int
    events: tuple[ChurnEvent, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        duration_s: float = 60.0,
        arrival_rate_per_s: float = 1.0,
        mean_holding_s: float = 30.0,
        delay_choices_ms: Sequence[float] = (60.0, 100.0),
        start_id: int = 1,
    ) -> "ChurnTrace":
        """Draw a Poisson arrival / exponential holding churn trace."""
        if arrival_rate_per_s <= 0 or mean_holding_s <= 0 or duration_s <= 0:
            raise ValueError("rates, holding time and duration must be positive")
        pool = DEFAULT_CITIES
        lo, hi = RECEIVER_RANGE
        rng = derive_rng("fleet.churn", seed)
        events: list[ChurnEvent] = []
        clock = 0.0
        sid = start_id
        while True:
            clock += float(rng.exponential(1.0 / arrival_rate_per_s))
            if clock >= duration_s:
                break
            k = int(rng.integers(lo, hi + 1))
            picks = rng.choice(len(pool), size=k + 1, replace=False)
            spec = SessionSpec(
                session_id=sid,
                source_city=pool[int(picks[0])],
                receiver_cities=tuple(pool[int(i)] for i in picks[1:]),
                rate_mbps=float(rng.choice(list(RATES_MBPS))),
                max_delay_ms=float(rng.choice(list(delay_choices_ms))),
            )
            holding = float(rng.exponential(mean_holding_s))
            events.append(ChurnEvent(clock, JOIN, sid, spec))
            events.append(ChurnEvent(clock + max(holding, 1e-6), LEAVE, sid))
            sid += 1
        # Stable order: by time, then original emission order (a leave can
        # never precede its own join because holding > 0).
        indexed = sorted(enumerate(events), key=lambda kv: (kv[1].time_s, kv[0]))
        return cls(seed=seed, events=tuple(ev for _, ev in indexed))

    @property
    def joins(self) -> tuple[ChurnEvent, ...]:
        return tuple(ev for ev in self.events if ev.kind == JOIN)

    def drive(
        self, manager: "FleetManager"
    ) -> list[tuple[ChurnEvent, "AdmissionVerdict | None"]]:
        """Apply every event in order; leaves of rejected sessions no-op."""
        records: list[tuple[ChurnEvent, AdmissionVerdict | None]] = []
        for event in self.events:
            if event.kind == JOIN:
                assert event.spec is not None
                records.append((event, manager.admit(event.spec)))
            else:
                manager.depart(event.session_id)
                records.append((event, None))
        return records
