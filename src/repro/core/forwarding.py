"""Forwarding tables and the daemon's reload cycle.

The paper keeps each VNF's forwarding table in a text file "recording
the next hops' IP addresses for each relevant multicast session".  On an
update the daemon sends SIGUSR1 to its coding function, which pauses,
loads the new table, and resumes; Tab. III measures that cycle at
78–311 ms depending on the fraction of entries changed.

:class:`ForwardingTable` is the parsed form plus (de)serialization to
the text format; :class:`ForwardingUpdateModel` converts an update's
size into the pause duration applied in the simulator, calibrated to
reproduce Tab. III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class ForwardingTableError(ValueError):
    """Malformed table text or inconsistent update."""


@dataclass
class ForwardingTable:
    """Per-session next hops: session id → ordered list of next-hop names."""

    entries: dict[int, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: dict[int, list[str]] = {}
        for session_id, hops in self.entries.items():
            hops = list(hops)
            if len(set(hops)) != len(hops):
                raise ForwardingTableError(f"duplicate next hop for session {session_id}: {hops}")
            if hops:  # a session with no next hops has no row
                normalized[int(session_id)] = hops
        self.entries = normalized

    # -- queries ---------------------------------------------------------

    def next_hops(self, session_id: int) -> Sequence[str]:
        """Next-hop node names for a session (empty = sink/no route).

        The table's own row, not a copy — a VNF reads it once per packet:
        change a session's hops through :meth:`set_next_hops`.
        """
        return self.entries.get(session_id, [])

    def sessions(self) -> list[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        """Total number of (session, next hop) entries."""
        return sum(len(hops) for hops in self.entries.values())

    # -- mutation -----------------------------------------------------------

    def set_next_hops(self, session_id: int, hops: Iterable[str]) -> None:
        hops = list(hops)
        if len(set(hops)) != len(hops):
            raise ForwardingTableError(f"duplicate next hop for session {session_id}: {hops}")
        if hops:
            self.entries[int(session_id)] = hops
        else:
            self.entries.pop(int(session_id), None)

    def copy(self) -> "ForwardingTable":
        return ForwardingTable({sid: list(hops) for sid, hops in self.entries.items()})

    # -- text format (the paper's on-disk representation) ---------------------

    def serialize(self) -> str:
        """One line per session: ``<session_id> <hop1> <hop2> ...``."""
        lines = [f"{sid} {' '.join(self.entries[sid])}" for sid in sorted(self.entries)]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "ForwardingTable":
        entries: dict[int, list[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                session_id = int(parts[0])
            except ValueError:
                raise ForwardingTableError(f"line {lineno}: bad session id {parts[0]!r}") from None
            if session_id in entries:
                raise ForwardingTableError(f"line {lineno}: duplicate session {session_id}")
            if parts[1:]:
                entries[session_id] = parts[1:]
        return cls(entries)

    # -- diffing (drives the update-cost model) ---------------------------------

    def diff_entries(self, new: "ForwardingTable") -> int:
        """Number of (session, hop-list) rows that change between tables."""
        changed = 0
        for sid in set(self.entries) | set(new.entries):
            if self.entries.get(sid) != new.entries.get(sid):
                changed += 1
        return changed

    def update_fraction(self, new: "ForwardingTable") -> float:
        """Fraction of rows changed, relative to the larger table."""
        total = max(len(self.entries), len(new.entries))
        if total == 0:
            return 0.0
        return self.diff_entries(new) / total


@dataclass(frozen=True)
class ForwardingUpdateModel:
    """Pause duration of the SIGUSR1 → reload → resume cycle.

    Tab. III (10-entry table): 20 % updated → 78.44 ms, 100 % → 310.61 ms.
    The series is close to linear in the number of rewritten entries with
    a fixed signalling overhead; least squares on the five published
    points gives ≈ 20 ms base + ≈ 29 ms per updated entry, which is what
    we default to.
    """

    base_ms: float = 20.0
    per_entry_ms: float = 29.0

    def pause_seconds(self, updated_entries: int) -> float:
        """Simulated pause applied to the coding function."""
        if updated_entries < 0:
            raise ValueError("updated_entries cannot be negative")
        if updated_entries == 0:
            return 0.0
        return (self.base_ms + self.per_entry_ms * updated_entries) / 1e3

    def pause_for_update(self, old: ForwardingTable, new: ForwardingTable) -> float:
        return self.pause_seconds(old.diff_entries(new))
