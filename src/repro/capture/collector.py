"""Central event collector.

Receives the observable I/O streams of every router and indexes them
for HBR inference: by router, by kind, by prefix, and in arrival
order.  The collector is deliberately dumb — it stores and indexes,
nothing more — because every ounce of intelligence (which events
relate to which) belongs to :mod:`repro.hbr` per the paper's design.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro import obs
from repro.capture.io_events import Direction, IOEvent, IOKind, RouteAction
from repro.net.addr import Prefix


def _ingest_instruments(registry):
    """What :meth:`Collector.ingest` binds per registry."""
    return (
        registry.counter("capture.events_total"),
        obs.Family(registry.counter, "capture.events_by_kind", "kind"),
        registry.histogram("capture.ingest_seconds"),
        registry.gauge("capture.routers_seen"),
    )


class Collector:
    """Indexed store of captured I/O events."""

    def __init__(self) -> None:
        self._events: List[IOEvent] = []
        self._by_id: Dict[int, IOEvent] = {}
        self._by_router: Dict[str, List[IOEvent]] = defaultdict(list)
        self._by_kind: Dict[IOKind, List[IOEvent]] = defaultdict(list)
        self._by_prefix: Dict[Optional[Prefix], List[IOEvent]] = defaultdict(list)
        #: Subscribers notified of every new event (streaming consumers,
        #: e.g. the online verification pipeline).
        self._subscribers: List[Callable[[IOEvent], None]] = []
        self._instruments = obs.Bound(_ingest_instruments)

    def ingest(self, event: IOEvent) -> None:
        """Add one event to the store and notify subscribers."""
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        if event.event_id in self._by_id:
            raise ValueError(f"duplicate event id {event.event_id}")
        self._events.append(event)
        self._by_id[event.event_id] = event
        self._by_router[event.router].append(event)
        self._by_kind[event.kind].append(event)
        self._by_prefix[event.prefix].append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        if registry.enabled:
            events, by_kind, seconds, routers_seen = self._instruments.on(
                registry
            )
            events.inc()
            by_kind[event.kind.value].inc()
            seconds.observe(watch.elapsed())
            routers_seen.set(len(self._by_router))

    def subscribe(self, callback: Callable[[IOEvent], None]) -> None:
        self._subscribers.append(callback)

    # -- lookups ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[IOEvent]:
        return iter(self._events)

    def get(self, event_id: int) -> IOEvent:
        try:
            return self._by_id[event_id]
        except KeyError:
            raise KeyError(f"no event with id {event_id}") from None

    def has(self, event_id: int) -> bool:
        return event_id in self._by_id

    def all_events(self) -> List[IOEvent]:
        return list(self._events)

    def events_of(self, router: str) -> List[IOEvent]:
        return list(self._by_router.get(router, ()))

    def events_of_kind(self, kind: IOKind) -> List[IOEvent]:
        return list(self._by_kind.get(kind, ()))

    def events_for_prefix(self, prefix: Prefix) -> List[IOEvent]:
        """Events whose prefix field equals ``prefix`` exactly."""
        return list(self._by_prefix.get(prefix, ()))

    def routers(self) -> List[str]:
        return sorted(self._by_router)

    def prefixes(self) -> List[Prefix]:
        return sorted(p for p in self._by_prefix if p is not None)

    def query(
        self,
        router: Optional[str] = None,
        kind: Optional[IOKind] = None,
        prefix: Optional[Prefix] = None,
        action: Optional[RouteAction] = None,
        protocol: Optional[str] = None,
        peer: Optional[str] = None,
        direction: Optional[Direction] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[IOEvent]:
        """Filtered event list; every argument is an AND-ed constraint.

        Starts from the narrowest available index to keep the scan
        small on large captures.
        """
        if prefix is not None:
            candidates: Iterable[IOEvent] = self._by_prefix.get(prefix, ())
        elif router is not None:
            candidates = self._by_router.get(router, ())
        elif kind is not None:
            candidates = self._by_kind.get(kind, ())
        else:
            candidates = self._events
        result = []
        for event in candidates:
            if router is not None and event.router != router:
                continue
            if kind is not None and event.kind != kind:
                continue
            if prefix is not None and event.prefix != prefix:
                continue
            if action is not None and event.action != action:
                continue
            if protocol is not None and event.protocol != protocol:
                continue
            if peer is not None and event.peer != peer:
                continue
            if direction is not None and event.direction != direction:
                continue
            if since is not None and event.timestamp < since:
                continue
            if until is not None and event.timestamp > until:
                continue
            result.append(event)
        return result

    def fib_updates(
        self, prefix: Optional[Prefix] = None, router: Optional[str] = None
    ) -> List[IOEvent]:
        """Convenience: all FIB_UPDATE events, optionally filtered."""
        return self.query(router=router, kind=IOKind.FIB_UPDATE, prefix=prefix)

    def latest_fib_state(
        self, until: Optional[float] = None
    ) -> Dict[str, Dict[Prefix, IOEvent]]:
        """Per-router latest FIB event per prefix, as of time ``until``.

        This is the *naive* reconstruction of the data plane from the
        log — exactly what a timestamp-window snapshotter would do.
        """
        state: Dict[str, Dict[Prefix, IOEvent]] = defaultdict(dict)
        for event in self._by_kind.get(IOKind.FIB_UPDATE, ()):
            if until is not None and event.timestamp > until:
                continue
            if event.prefix is None:
                continue
            current = state[event.router].get(event.prefix)
            if current is None or event.timestamp >= current.timestamp:
                state[event.router][event.prefix] = event
        return dict(state)

    def export_records(self) -> List[dict]:
        """Serialise all events (for offline analysis / examples)."""
        return [event.to_record() for event in self._events]

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "Collector":
        collector = cls()
        for record in records:
            collector.ingest(IOEvent.from_record(record))
        return collector
