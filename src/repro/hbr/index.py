"""Indexed candidate lookup for HBR inference.

The paper's premise is that HBG construction runs *online inside the
control plane* (§4–§5), which rules out re-scanning a time window of
every captured I/O for each rule on each event.  Delta-net (see
PAPERS.md) makes the same argument for data-plane verification: real
time hinges on incremental, indexed state rather than rescans — a
query is a C-speed dict hit plus a bisect, never a per-item
interpreter round trip.  This module supplies:

* :class:`SortedEventList` — events ordered by ``(timestamp,
  event_id)`` in a list of bounded chunks (the ``SortedContainers``
  layout): O(sqrt N) inserts, range reads answered by slicing.
* :class:`EventIndex` — inverted indices over the event stream keyed
  by ``(router, kind)`` and ``(router, kind, prefix)``, each bucket a
  :class:`SortedEventList`, so a rule whose antecedent constrains
  router/kind/prefix reads only its bucket's time window.
* :class:`RulePlan` / :func:`plan_for_rule` — which bucket a rule's
  antecedent can be answered from, precomputed once per rule.

Every query returns events in ``(timestamp, event_id)`` order — the
exact order a rescan of the ordered stream produces — so the index is
pure performance work (the ``hbg-indexed-equivalence`` testkit oracle,
which owns that rescan as an executable spec, and
tests/test_hbr_index.py hold it to that).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.rules import (
    HbrRule,
    peer_symmetric,
    same_prefix,
    same_router,
)

#: Key type: ``(timestamp, event_id)`` — the engine's canonical order.
Key = Tuple[float, int]

#: Sentinel event id sorting after every real id at equal timestamps.
MAX_ID = float("inf")

#: Chunk split threshold.  Chunks are kept at most twice this long, so
#: the bounded ``list.insert`` inside a chunk moves at most that many.
CHUNK = 512


class SortedEventList:
    """Events kept sorted by ``(timestamp, event_id)``.

    Keys and events live in *parallel* chunks: ``_keys[i][j]`` is the
    key of ``_events[i][j]`` and ``_maxes[i]`` the largest key of
    chunk ``i``.  A range query bisects the keys and answers with a
    slice of the events, so it costs no interpreter work per item.
    ``add`` bisects to the right chunk and then within it, splitting
    chunks that exceed ``2 * CHUNK``.
    """

    __slots__ = ("_keys", "_events", "_maxes", "_len")

    def __init__(self) -> None:
        self._keys: List[List[Key]] = []
        self._events: List[List[IOEvent]] = []
        self._maxes: List[Key] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def add(self, event: IOEvent, key: Optional[Key] = None) -> None:
        """File ``event``; ``key`` lets an event's several buckets
        share one key tuple."""
        if key is None:
            key = (event.timestamp, event.event_id)
        maxes = self._maxes
        if not maxes:
            self._keys.append([])
            self._events.append([])
            maxes.append(key)
        if key >= maxes[-1]:
            # Tail append — the common case for in-order arrival.
            position = len(maxes) - 1
            at = len(self._keys[position])
            maxes[position] = key
        else:
            position = bisect_left(maxes, key)
            at = bisect_left(self._keys[position], key)
        keys, events = self._keys[position], self._events[position]
        # Bounded by the split threshold: the sanctioned O(sqrt N) inserts.
        keys.insert(at, key)  # repro: lint-ignore[PERF001] -- bounded chunk
        events.insert(at, event)  # repro: lint-ignore[PERF001] -- bounded chunk
        self._len += 1
        if len(keys) > 2 * CHUNK:
            half = len(keys) // 2
            self._keys[position : position + 1] = [keys[:half], keys[half:]]
            self._events[position : position + 1] = [events[:half], events[half:]]
            maxes.insert(position, keys[half - 1])  # repro: lint-ignore[PERF001] -- O(#chunks)

    def irange(self, lo: Key, hi: Key) -> List[IOEvent]:
        """Events with ``lo <= (timestamp, event_id) <= hi``, in key
        order, as a fresh list (empty when ``lo > hi``)."""
        maxes = self._maxes
        start = bisect_left(maxes, lo)
        if start == len(maxes):
            return []
        keys = self._keys[start]
        begin = bisect_left(keys, lo)
        if hi < maxes[start]:
            # The whole range lies inside one chunk: one slice.
            return self._events[start][begin : bisect_right(keys, hi, begin)]
        found = self._events[start][begin:]
        for index in range(start + 1, len(maxes)):
            if hi < maxes[index]:
                found += self._events[index][
                    : bisect_right(self._keys[index], hi)
                ]
                break
            found += self._events[index]
        return found

    def __iter__(self) -> Iterator[IOEvent]:
        for chunk in self._events:
            yield from chunk


@dataclass(frozen=True)
class RulePlan:
    """Precomputed query plan for one rule's antecedent lookup.

    ``router_from`` says which field of the *consequent* names the
    antecedent's router: ``"same"`` (same_router relation),
    ``"peer"`` (peer_symmetric), or ``"any"`` (no router constraint —
    falls back to the per-kind or global index).  ``prefix_narrowed``
    is True when the same_prefix relation lets the lookup use the
    per-prefix bucket.
    """

    router_from: str
    kinds: Tuple[IOKind, ...]
    prefix_narrowed: bool


def _plan(rule: HbrRule, kinds: Tuple[IOKind, ...]) -> RulePlan:
    relations = rule.relations
    if same_router in relations:
        router_from = "same"
    elif peer_symmetric in relations:
        router_from = "peer"
    else:
        router_from = "any"
    return RulePlan(
        router_from=router_from,
        kinds=tuple(kinds),
        prefix_narrowed=(
            same_prefix in relations and router_from != "any"
        ),
    )


def plan_for_rule(rule: HbrRule) -> RulePlan:
    """Derive the index lookup plan from a rule's declarative shape.

    Only the stock relation predicates of :mod:`repro.hbr.rules` are
    recognised (by identity); a rule built from custom predicates
    plans conservatively and the index answers it from the wider
    per-kind (or global) bucket — still correct, just less narrow.
    """
    return _plan(rule, rule.antecedent.kinds)


def forward_plan_for_rule(rule: HbrRule) -> RulePlan:
    """The mirror of :func:`plan_for_rule`: given an *antecedent*
    event, which buckets can hold the rule's consequents?

    Reuses :class:`RulePlan` because the field access is symmetric:
    ``same_router`` means the consequent lives under the antecedent's
    router, and ``peer_symmetric`` (``a.peer == b.router``) means it
    lives under the antecedent's ``peer``.  Streaming inference uses
    this to find the already-observed events a late-arriving cause
    must re-link, without scanning the whole re-link window.
    """
    return _plan(rule, rule.consequent.kinds)


class EventIndex:
    """Inverted per-(router, kind[, prefix]) indices over the stream.

    ``add`` files one event under ``(router, kind.ordinal)`` and, when
    it has a prefix, ``(router, kind.ordinal, address, length)`` —
    tuples of a str and ints, so a bucket lookup hashes at C speed.
    The two *wide* tiers (whole stream, per kind) serve only
    router-free plans and the naive/pattern window scan, which the
    default rule set never issues: events wait in ``_unfiled`` until a
    query needs those tiers.  :meth:`candidates` answers a
    :class:`RulePlan` from the narrowest bucket that covers it.  All
    answers come back in ``(timestamp, event_id)`` order.
    """

    # ``__weakref__`` so the resource ledger can hold this index
    # without extending its lifetime.
    __slots__ = ("_all", "_by_kind", "_buckets", "_unfiled", "__weakref__")

    def __init__(self) -> None:
        self._all = SortedEventList()
        self._by_kind = [SortedEventList() for _ in IOKind]
        self._buckets: Dict[tuple, SortedEventList] = {}
        self._unfiled: List[IOEvent] = []

    def track(self) -> "EventIndex":
        """Register with the resource ledger; returns ``self``.

        Registration is explicit rather than a constructor side
        effect because indices are also built inside the forked
        workers of ``DistributedHbg.build_all`` (each subgraph's
        boundary index), where a ledger registration would mutate the
        doomed forked copy and silently vanish at join — lint rule
        CONC001 checks exactly this.  Only parent-process owners call
        ``track()``.
        """
        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("hbr.index", self)
        return self

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of every bucket (ledger callback).

        An event's buckets share the event and its key tuple and each
        owns its chunk lists; the walk's shared-object dedup does the
        right thing.  The tiers that hold every event exactly once go
        first, so the sampled estimate meets events there and not in
        a sample of the buckets that share them.
        """
        from repro.obs import resources

        return resources.combined_sizeof(
            (self._unfiled, self._all, self._by_kind, self._buckets),
            sample=None if audit else obs.get_ledger().sample,
        )

    def __len__(self) -> int:
        return len(self._all) + len(self._unfiled)

    def add(self, event: IOEvent) -> None:
        self._unfiled.append(event)
        key = (event.timestamp, event.event_id)
        names = [(event.router, event.kind.ordinal)]
        prefix = event.prefix
        if prefix is not None:
            names.append(names[0] + (prefix.address, prefix.length))
        for name in names:
            bucket = self._buckets.get(name)
            if bucket is None:
                bucket = self._buckets[name] = SortedEventList()
            bucket.add(event, key)

    def _file_wide(self) -> None:
        """Bring the whole-stream and per-kind tiers up to date."""
        for event in self._unfiled:
            key = (event.timestamp, event.event_id)
            self._all.add(event, key)
            self._by_kind[event.kind.ordinal].add(event, key)
        self._unfiled.clear()

    # -- queries -----------------------------------------------------------

    def window(self, lo: Key, hi: Key) -> List[IOEvent]:
        """All events in the key range (the naive/pattern-mode scan)."""
        self._file_wide()
        return self._all.irange(lo, hi)

    def candidates(
        self, plan: RulePlan, cons: IOEvent, lo: Key, hi: Key
    ) -> List[IOEvent]:
        """Events in the window that the plan's buckets can contain.

        Returns a superset of the rule's true antecedents (the engine
        still applies ``rule.antecedes``), narrowed as far as the plan
        allows, in ``(timestamp, event_id)`` order, as a fresh list.
        """
        kinds = plan.kinds
        if plan.router_from == "any":
            if not kinds:
                return self.window(lo, hi)
            self._file_wide()
            buckets = [self._by_kind[kind.ordinal] for kind in kinds]
        else:
            router = cons.router if plan.router_from == "same" else cons.peer
            if router is None:
                # peer_symmetric with no peer on the consequent: no
                # event can satisfy the relation.
                return []
            narrow: tuple = ()
            if plan.prefix_narrowed:
                prefix = cons.prefix
                if prefix is None:
                    # same_prefix requires a concrete shared prefix.
                    return []
                narrow = (prefix.address, prefix.length)
            if len(kinds) == 1:
                # Every default rule, both directions: one dict hit.
                bucket = self._buckets.get((router, kinds[0].ordinal) + narrow)
                return bucket.irange(lo, hi) if bucket is not None else []
            names = [(router, kind.ordinal) + narrow for kind in kinds]
            buckets = [self._buckets[n] for n in names if n in self._buckets]
        merged: List[IOEvent] = []
        for bucket in buckets:
            merged += bucket.irange(lo, hi)
        if len(buckets) > 1:
            merged.sort(key=lambda e: (e.timestamp, e.event_id))
        return merged
