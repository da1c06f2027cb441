"""Snapshot data structures shared by the naive and consistent paths.

A :class:`DataPlaneSnapshot` is the verifier's *reconstruction* of
the network's FIBs from captured FIB_UPDATE events — deliberately a
different type from the simulator's live FIBs, because the whole
point of Fig. 1c is that the reconstruction can disagree with
reality.  :class:`VerifierView` models the verifier's partial
knowledge: each router's log stream reaches the verifier with its own
delivery lag, so at any wall-clock instant the verifier has seen a
different amount of history from each router.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.capture.collector import Collector
from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.net.addr import Prefix, PrefixTrie

#: :meth:`DataPlaneSnapshot.trace`'s default hop bound, the one memoised.
_MAX_HOPS = 64


@dataclass(frozen=True)
class SnapshotEntry:
    """One reconstructed FIB entry (from a FIB_UPDATE announce event)."""

    router: str
    prefix: Prefix
    next_hop_router: Optional[str]
    out_interface: Optional[str]
    protocol: Optional[str]
    discard: bool
    source_event_id: int
    timestamp: float

    @classmethod
    def from_event(cls, event: IOEvent) -> "SnapshotEntry":
        if event.kind is not IOKind.FIB_UPDATE:
            raise ValueError(f"not a FIB update: {event}")
        if event.prefix is None:
            raise ValueError(f"FIB update without prefix: {event}")
        return cls(
            router=event.router,
            prefix=event.prefix,
            next_hop_router=event.attr("next_hop_router"),
            out_interface=event.attr("out_interface"),
            protocol=event.protocol,
            discard=bool(event.attr("discard", False)),
            source_event_id=event.event_id,
            timestamp=event.timestamp,
        )

    @classmethod
    def from_fib_entry(cls, router: str, entry, at: float) -> "SnapshotEntry":
        """``router``'s live (or pending) ``FibEntry``, seen at ``at`` —
        no captured event stands behind it, hence event id 0."""
        return cls(
            router=router,
            prefix=entry.prefix,
            next_hop_router=entry.next_hop_router,
            out_interface=entry.out_interface,
            protocol=entry.protocol,
            discard=entry.discard,
            source_event_id=0,
            timestamp=at,
        )


class DataPlaneSnapshot:
    """Per-router FIBs reconstructed from captured events.

    Besides the tries, the snapshot keeps — in step with its only two
    mutators, :meth:`install` and :meth:`remove` (and the
    :meth:`hypothetically` what-if built from them) — what every policy
    probe would otherwise re-derive from them: how many routers hold
    each prefix, one *next-hop row* per probed address (Delta-net's
    edge labels, restricted to the addresses somebody traces) and the
    traces walked over those rows.  All three are bounded by (probed
    addresses × routers), never by the number of deltas applied.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, PrefixTrie] = {}
        self._taken_at: Optional[float] = None
        #: prefix -> number of routers holding an entry for it.
        self._holders: Dict[Prefix, int] = {}
        #: Sorted first addresses of the held prefixes; None when a
        #: prefix entered or left ``_holders`` since it was last read.
        self._first_addresses: Optional[List[int]] = []
        #: address -> {router -> longest-match entry or None}, one cell
        #: per LPM done.  A delta at (router, prefix) drops exactly the
        #: cells of that router whose address lies inside the prefix.
        self._rows: Dict[int, Dict[str, Optional[SnapshotEntry]]] = {}
        #: ``sorted(self._rows)``; None when a row was added since.
        self._row_addresses: Optional[List[int]] = []
        #: address -> {source -> (path, outcome)} of the traces walked
        #: with the default hop bound, shared by every policy probing
        #: the address.
        self._traces: Dict[int, Dict[str, Tuple[Tuple[str, ...], str]]] = {}

    @property
    def taken_at(self) -> Optional[float]:
        return self._taken_at

    def set_taken_at(self, when: float) -> None:
        self._taken_at = when

    def install(self, entry: SnapshotEntry) -> None:
        table = self._tables.get(entry.router)
        if table is None:
            table = PrefixTrie()
            self._tables[entry.router] = table
            # See has_router(): hops into this router stop counting
            # as delivered, whatever the address.
            self._traces.clear()
        # PrefixTrie.insert is keyed on the prefix, not a positional
        # list insert — PERF001's pattern match is a false positive.
        if table.insert(entry.prefix, entry):  # repro: lint-ignore[PERF001]
            held = self._holders.get(entry.prefix, 0)
            self._holders[entry.prefix] = held + 1
            if not held:
                self._first_addresses = None
        self._forget_matches(entry.router, entry.prefix)

    def remove(self, router: str, prefix: Prefix) -> None:
        table = self._tables.get(router)
        if table is None or not table.delete(prefix):
            return
        held = self._holders[prefix] - 1
        if held:
            self._holders[prefix] = held
        else:
            del self._holders[prefix]
            self._first_addresses = None
        self._forget_matches(router, prefix)

    @contextmanager
    def hypothetically(
        self, router: str, prefix: Prefix, entry: Optional[SnapshotEntry]
    ) -> Iterator[None]:
        """What-if: inside the ``with`` block ``router`` holds ``entry``
        for ``prefix`` (``None``: holds nothing); afterwards whatever
        it held before.  Both steps go through :meth:`install` /
        :meth:`remove`, so the memos stay exact throughout."""
        had_table = router in self._tables
        previous = self.entry(router, prefix)
        if entry is None:
            self.remove(router, prefix)
        else:
            self.install(entry)
        try:
            yield
        finally:
            if previous is None:
                self.remove(router, prefix)
            else:
                self.install(previous)
            # remove() keeps an emptied table; a table the what-if
            # created must go, or has_router() stays flipped.
            if not had_table and self._tables.pop(router, None) is not None:
                self._traces.clear()

    def _forget_matches(self, router: str, prefix: Prefix) -> None:
        """Drop ``router``'s memoised longest matches under ``prefix``
        (the only ones its install/remove can change — including a
        more specific address under a /8), and those addresses' traces
        that visit ``router``: a trace reads only the rows of the
        routers on its path, so every other trace is still exact."""
        addresses = self._row_addresses
        if addresses is None:
            addresses = self._row_addresses = sorted(self._rows)
        low = bisect_left(addresses, prefix.first_address())
        high = bisect_right(addresses, prefix.last_address())
        for address in addresses[low:high]:
            self._rows[address].pop(router, None)
            traces = self._traces.get(address)
            if traces:
                for key in [k for k, (path, _) in traces.items() if router in path]:
                    del traces[key]

    def routers(self) -> List[str]:
        return sorted(self._tables)

    def has_router(self, router: str) -> bool:
        """Whether ``router`` has a (possibly empty) reconstructed table.

        Load-bearing for :meth:`trace`'s external-router heuristic: a
        router with *no* table counts as delivered, one with a table
        but no matching entry as a black hole — so the first entry a
        router ever installs changes trace outcomes for every address,
        which the incremental verifier must treat as a global event.
        """
        return router in self._tables

    def entry(self, router: str, prefix: Prefix) -> Optional[SnapshotEntry]:
        table = self._tables.get(router)
        if table is None:
            return None
        return table.get(prefix)

    def lookup(self, router: str, address: int) -> Optional[SnapshotEntry]:
        """Longest-prefix-match in the reconstructed FIB of ``router``."""
        table = self._tables.get(router)
        if table is None:
            return None
        match = table.longest_match(address)
        if match is None:
            return None
        return match[1]

    def entries_of(self, router: str) -> List[SnapshotEntry]:
        table = self._tables.get(router)
        if table is None:
            return []
        return [entry for _, entry in table.items()]

    def all_prefixes(self) -> Set[Prefix]:
        return set(self._holders)

    def first_addresses(self) -> List[int]:
        """Sorted first addresses of :meth:`all_prefixes` — the
        policies' default probe list (a fresh list per call)."""
        if self._first_addresses is None:
            self._first_addresses = sorted(
                {prefix.first_address() for prefix in self._holders}
            )
        return list(self._first_addresses)

    def trace(
        self, source: str, address: int, max_hops: int = _MAX_HOPS
    ) -> Tuple[List[str], str]:
        """Walk the *reconstructed* FIBs (the verifier's world view).

        Same outcome vocabulary as the simulator's oracle
        ``trace_path``: delivered / blackhole / discard / loop —
        except here a hop into a router with no table at all counts
        as ``delivered`` (external routers are not captured).

        Hops read the address's next-hop row, doing the longest match
        only for cells no earlier trace filled; a trace with the
        default hop bound is kept until a delta touches the row of a
        router on its path.  The returned path is the caller's own
        list.
        """
        traces = None
        if max_hops == _MAX_HOPS:
            traces = self._traces.get(address)
            if traces is None:
                traces = self._traces[address] = {}
            known = traces.get(source)
            if known is not None:
                return list(known[0]), known[1]
        row = self._rows.get(address)
        if row is None:
            row = self._rows[address] = {}
            self._row_addresses = None
        path = [source]
        current = source
        seen = {source}
        outcome = "loop"
        for _ in range(max_hops):
            if current not in self._tables and current != source:
                outcome = "delivered"
                break
            if current in row:
                entry = row[current]
            else:
                entry = row[current] = self.lookup(current, address)
            if entry is None:
                outcome = "blackhole"
                break
            if entry.discard:
                outcome = "discard"
                break
            if entry.next_hop_router is None:
                outcome = "delivered"
                break
            current = entry.next_hop_router
            path.append(current)
            if current in seen:
                break
            seen.add(current)
        if traces is not None:
            traces[source] = (tuple(path), outcome)
        return path, outcome

    def traced_sources(self, address: int) -> Set[str]:
        """Sources whose trace to ``address`` is memoised: no delta has
        touched a row on their path since :meth:`trace` walked it."""
        return set(self._traces.get(address, ()))

    @classmethod
    def from_fib_events(
        cls, events: Iterable[IOEvent], taken_at: Optional[float] = None
    ) -> "DataPlaneSnapshot":
        """Replay FIB_UPDATE events (in timestamp order) into tables."""
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        snapshot = cls()
        ordered = sorted(
            (e for e in events if e.kind is IOKind.FIB_UPDATE),
            key=lambda e: (e.timestamp, e.event_id),
        )
        for event in ordered:
            if event.prefix is None:
                continue
            if event.action is RouteAction.WITHDRAW:
                snapshot.remove(event.router, event.prefix)
            else:
                snapshot.install(SnapshotEntry.from_event(event))
        if taken_at is not None:
            snapshot.set_taken_at(taken_at)
        if registry.enabled:
            registry.counter("snapshot.reconstructions_total").inc()
            registry.histogram("snapshot.reconstruct_seconds").observe(
                watch.elapsed()
            )
            registry.histogram("snapshot.reconstruct_events").observe(
                len(ordered)
            )
        return snapshot

    @classmethod
    def from_live_network(cls, network) -> "DataPlaneSnapshot":
        """Oracle snapshot straight from the simulator's FIBs (external
        routers left out).

        Only possible in simulation.  ``RepairEngine.repair`` checks
        the network against it after every rollback, so its cost is
        one table insert per live FIB entry; tests also use it to
        compare the verifier's reconstruction against reality.
        """
        snapshot = cls()
        for router, table in network.forwarding_state().items():
            if network.runtime(router).router.external:
                continue
            for entry in table.values():
                snapshot.install(
                    SnapshotEntry.from_fib_entry(router, entry, network.sim.now)
                )
        snapshot.set_taken_at(network.sim.now)
        return snapshot


class VerifierView:
    """What the verifier has received from each router by a given time.

    ``lags`` maps router name to log-delivery lag in seconds (default
    lag applies to unlisted routers).  An event logged by router R at
    time t reaches the verifier at t + lag(R) — the mechanism behind
    Fig. 1c's "the FIB update at R2 is just missed by the verifier".
    """

    def __init__(
        self,
        collector: Collector,
        lags: Optional[Dict[str, float]] = None,
        default_lag: float = 0.0,
    ):
        self.collector = collector
        self.lags = dict(lags or {})
        self.default_lag = default_lag

    def lag_of(self, router: str) -> float:
        return self.lags.get(router, self.default_lag)

    def arrival_time(self, event: IOEvent) -> float:
        return event.timestamp + self.lag_of(event.router)

    def visible_events(self, at: float) -> List[IOEvent]:
        """Events the verifier has received by wall-clock time ``at``."""
        return [
            event
            for event in self.collector
            if self.arrival_time(event) <= at
        ]

    def visible_ids(self, at: float) -> Set[int]:
        return {event.event_id for event in self.visible_events(at)}
