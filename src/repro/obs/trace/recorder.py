"""The flight recorder: a bounded ring buffer of causal trace events.

Aggregate counters (PR 1) answer *how much*; the flight recorder
answers *what happened, in what order*.  Every pipeline stage —
simulator event firings, captured I/Os, HBR rule firings, snapshot
builds, verify verdicts, provenance walks, rollbacks — appends one
:class:`TraceEvent` to the process-wide recorder when recording is
enabled.  Events carry the **same event ids** the capture layer and
the HBG use, so a recorded ``IO_CAPTURED`` entry can be joined to its
HBG vertex after the fact, and a recorded ``HBR_EDGE`` entry names
the exact cause→effect pair an inference rule produced.

Design constraints, mirroring :mod:`repro.obs.metrics`:

* **Off by default.**  The module-level recorder is a shared
  :class:`NullRecorder`; instrumented hot paths pay a single
  attribute check (``recorder.enabled``) per site and nothing else.
* **Bounded.**  The buffer is a ring of ``capacity`` events.  On
  overflow the default policy evicts the oldest event
  (``drop-oldest``); ``drop-newest`` keeps the head of the run
  instead.  Either way memory is O(capacity) for arbitrarily long
  captures, and the eviction count is reported.
* **Deterministic.**  Trace events carry *simulation* timestamps and
  a monotonic sequence number — never a wall clock — so two runs of
  the same seed record byte-identical traces (the same invariant the
  testkit's replay-determinism oracle enforces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


class TraceKind(enum.Enum):
    """What a recorded event witnesses, one member per pipeline stage.

    Kept in lockstep with the ``recorder`` rows of ``SITES`` in
    :mod:`repro.lint.rules.obs_rules` (a tier-1 test fails when the
    two drift apart).
    """

    #: One simulator callback fired (``repro.net.simulator``).
    SIM_EVENT = "sim_event"
    #: One control-plane I/O ingested by the collector; ``event_id``
    #: joins to the HBG vertex of the same id.
    IO_CAPTURED = "io_captured"
    #: One HBR edge emitted by inference; ``event_id`` is the effect,
    #: ``attrs`` carry the cause id, rule name, and confidence.
    HBR_EDGE = "hbr_edge"
    #: One data-plane snapshot reconstructed from FIB events.
    SNAPSHOT_BUILD = "snapshot_build"
    #: One verifier pass over a snapshot (violation count in attrs).
    VERIFY_VERDICT = "verify_verdict"
    #: One provenance walk from a problematic event to HBG leaves.
    PROVENANCE_WALK = "provenance_walk"
    #: One repair-engine rollback episode (reverts applied/failed).
    ROLLBACK = "rollback"


#: Overflow policies accepted by :class:`FlightRecorder`.
OVERFLOW_POLICIES = ("drop-oldest", "drop-newest")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded pipeline occurrence.

    ``seq`` is the recorder-assigned monotonic sequence number (total
    order of recording).  ``at`` is the simulation timestamp of the
    occurrence.  ``event_id``, when present, is the capture-layer
    event id — the join key into the HBG.
    """

    seq: int
    kind: TraceKind
    at: float
    router: Optional[str] = None
    event_id: Optional[int] = None
    detail: str = ""
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def to_record(self) -> Dict[str, Any]:
        """A flat dict for serialisation (artifacts, exports)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind.value,
            "at": self.at,
        }
        if self.router is not None:
            record["router"] = self.router
        if self.event_id is not None:
            record["event_id"] = self.event_id
        if self.detail:
            record["detail"] = self.detail
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_record`."""
        return cls(
            seq=int(record["seq"]),
            kind=TraceKind(record["kind"]),
            at=float(record["at"]),
            router=record.get("router"),
            event_id=(
                int(record["event_id"])
                if record.get("event_id") is not None
                else None
            ),
            detail=str(record.get("detail", "")),
            attrs=tuple(sorted((record.get("attrs") or {}).items())),
        )


class FlightRecorder:
    """Bounded ring buffer of :class:`TraceEvent`\\ s."""

    enabled = True

    def __init__(
        self, capacity: int = 4096, overflow: str = "drop-oldest"
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r} "
                f"(expected one of {', '.join(OVERFLOW_POLICIES)})"
            )
        self.capacity = capacity
        self.overflow = overflow
        #: Events recorded over the recorder's lifetime (kept or not).
        self.recorded_total = 0
        #: Events lost to the overflow policy.
        self.dropped = 0
        self._events: List[TraceEvent] = []
        #: Ring start index (oldest kept event) for drop-oldest mode.
        self._start = 0
        self._next_seq = 1
        # Lazy import: this module is imported while ``repro.obs``'s
        # own __init__ is still executing.
        from repro import obs

        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("obs.recorder", self)

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of the ring buffer (ledger callback)."""
        from repro import obs
        from repro.obs import resources

        return resources.combined_sizeof(
            (self._events,),
            sample=None if audit else obs.get_ledger().sample,
        )

    # -- writing -----------------------------------------------------------

    def record(
        self,
        kind: TraceKind,
        at: float,
        router: Optional[str] = None,
        event_id: Optional[int] = None,
        detail: str = "",
        **attrs: Any,
    ) -> Optional[TraceEvent]:
        """Append one event; returns it (or None when dropped)."""
        self.recorded_total += 1
        event = TraceEvent(
            seq=self._next_seq,
            kind=kind,
            at=float(at),
            router=router,
            event_id=event_id,
            detail=detail,
            attrs=tuple(sorted(attrs.items())) if attrs else (),
        )
        self._next_seq += 1
        live = len(self._events) - self._start
        if live < self.capacity:
            self._events.append(event)
        elif self.overflow == "drop-newest":
            self.dropped += 1
            return None
        else:  # drop-oldest: slide the ring window forward
            self._events.append(event)
            self._start += 1
            self.dropped += 1
            # Compact lazily so the backing list stays O(capacity).
            if self._start >= self.capacity:
                self._events = self._events[self._start :]
                self._start = 0
        return event

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events) - self._start

    def events(
        self,
        kind: Optional[TraceKind] = None,
        router: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Kept events in recording order, optionally filtered."""
        kept = self._events[self._start :]
        if kind is not None:
            kept = [e for e in kept if e.kind is kind]
        if router is not None:
            kept = [e for e in kept if e.router == router]
        return kept

    def tail(self, n: int) -> List[TraceEvent]:
        """The last ``n`` kept events (recording order preserved)."""
        if n <= 0:
            return []
        kept = self._events[self._start :]
        return kept[-n:]

    def to_records(self) -> List[Dict[str, Any]]:
        return [event.to_record() for event in self.events()]

    def clear(self) -> None:
        self._events.clear()
        self._start = 0
        self.dropped = 0
        self.recorded_total = 0

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, kept={len(self)}, "
            f"dropped={self.dropped}, overflow={self.overflow!r})"
        )


class NullRecorder:
    """The default recorder: recording is a single attribute check.

    ``enabled`` is False so instrumented sites skip argument
    construction entirely; ``record`` still exists (and no-ops) so a
    site that forgets the guard stays correct, merely slower.
    """

    enabled = False
    capacity = 0
    overflow = "drop-oldest"
    recorded_total = 0
    dropped = 0

    def record(
        self,
        kind: TraceKind,
        at: float,
        router: Optional[str] = None,
        event_id: Optional[int] = None,
        detail: str = "",
        **attrs: Any,
    ) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def events(self, kind=None, router=None) -> List[TraceEvent]:
        return []

    def tail(self, n: int) -> List[TraceEvent]:
        return []

    def to_records(self) -> List[Dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass


NULL_RECORDER = NullRecorder()
