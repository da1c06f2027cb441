"""Indexed candidate lookup for HBR inference.

The paper's premise is that HBG construction runs *online inside the
control plane* (§4–§5), which rules out re-scanning a time window of
every captured I/O for each rule on each event.  Delta-net (see
PAPERS.md) makes the same argument for data-plane verification: real
time hinges on incremental, indexed state rather than rescans.  This
module supplies the two pieces the inference engine needs:

* :class:`SortedEventList` — an order-maintaining container keyed by
  ``(timestamp, event_id)``.  It is a miniature list-of-chunks sorted
  sequence (the classic ``SortedContainers`` layout): inserts bisect
  into a bounded chunk, so the per-event cost is O(sqrt N) instead of
  the O(N) ``list.insert`` the streaming path used to pay.
* :class:`EventIndex` — inverted indices over the event stream keyed
  by ``(router, kind)``, ``(router, kind, prefix)`` and ``(kind,)``,
  each bucket a :class:`SortedEventList`.  A rule whose antecedent
  constrains router/kind/prefix reads only its bucket's time window
  instead of the whole stream's.
* :class:`RulePlan` / :func:`plan_for_rule` — the per-rule query plan:
  which bucket a rule's antecedent can be answered from, precomputed
  once so the hot path does no reflection.

Every query yields events in ``(timestamp, event_id)`` order — the
exact order a rescan of the ordered stream produces — so the index is
pure performance work (the ``hbg-indexed-equivalence`` testkit oracle,
which owns that rescan as an executable spec, and
tests/test_hbr_index.py hold it to that).
"""

from __future__ import annotations

from bisect import bisect_left, insort
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

#: Chunk split threshold.  Chunks are kept at most this long, so the
#: bounded ``list.insert`` inside a chunk moves at most _CHUNK items.
_CHUNK = 512


class SortedEventList:
    """Events kept sorted by ``(timestamp, event_id)``.

    List-of-chunks layout: ``_maxes[i]`` caches the largest key in
    ``_chunks[i]``; ``add`` bisects to the right chunk and then within
    it, splitting chunks that exceed ``2 * _CHUNK``.  Appending in
    (mostly) timestamp order — the common streaming case — hits the
    tail-append fast path.
    """

    __slots__ = ("_chunks", "_maxes", "_len")

    def __init__(self) -> None:
        self._chunks: List[List[Tuple[float, int, IOEvent]]] = []
        self._maxes: List[Key] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def add(self, event: IOEvent) -> None:
        entry = (event.timestamp, event.event_id, event)
        key = (event.timestamp, event.event_id)
        if not self._chunks:
            self._chunks.append([entry])
            self._maxes.append(key)
            self._len += 1
            return
        if key >= self._maxes[-1]:
            # Tail append — the common case for in-order arrival.
            position = len(self._chunks) - 1
            chunk = self._chunks[position]
            chunk.append(entry)
            self._maxes[position] = key
        else:
            position = bisect_left(self._maxes, key)
            chunk = self._chunks[position]
            # Bounded by the chunk-split threshold, so this is the
            # sanctioned O(sqrt N) positional insert.  Event ids are
            # unique, so tuple comparison settles on (timestamp, id)
            # and never reaches the IOEvent element.
            insort(chunk, entry)  # repro: lint-ignore[PERF001] -- bounded chunk
        self._len += 1
        if len(chunk) > 2 * _CHUNK:
            self._split(position)

    def _split(self, position: int) -> None:
        chunk = self._chunks[position]
        half = len(chunk) // 2
        left, right = chunk[:half], chunk[half:]
        self._chunks[position] = left
        self._chunks.insert(position + 1, right)  # repro: lint-ignore[PERF001] -- O(#chunks)
        self._maxes[position] = (left[-1][0], left[-1][1])
        self._maxes.insert(position + 1, (right[-1][0], right[-1][1]))  # repro: lint-ignore[PERF001] -- O(#chunks)

    def irange(self, lo: Key, hi: Key) -> Iterator[IOEvent]:
        """Yield events with ``lo <= (timestamp, event_id) <= hi``."""
        if not self._chunks or lo > hi:
            return
        start = bisect_left(self._maxes, lo)
        for index in range(start, len(self._chunks)):
            chunk = self._chunks[index]
            if (chunk[0][0], chunk[0][1]) > hi:
                return
            begin = 0
            if index == start:
                begin = bisect_left(chunk, (lo[0], lo[1], _KEY_FLOOR))
            for ts, event_id, event in chunk[begin:]:
                if (ts, event_id) > hi:
                    return
                yield event

    def __iter__(self) -> Iterator[IOEvent]:
        for chunk in self._chunks:
            for _ts, _event_id, event in chunk:
                yield event


class _KeyFloor:
    """Sorts below any IOEvent so range bisects never compare events."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False


_KEY_FLOOR = _KeyFloor()


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

    def router_key(self, cons: IOEvent) -> Optional[str]:
        if self.router_from == "same":
            return cons.router
        if self.router_from == "peer":
            return cons.peer
        return None


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

    ``add`` registers one event in every bucket it belongs to;
    :meth:`candidates` answers a :class:`RulePlan` from the narrowest
    bucket that covers it.  All answers come back in
    ``(timestamp, event_id)`` order.
    """

    # ``__weakref__`` so the resource ledger can hold this index
    # without extending its lifetime.
    __slots__ = ("_all", "_by_kind", "_by_router_kind", "_by_rkp", "__weakref__")

    def __init__(self) -> None:
        self._all = SortedEventList()
        self._by_kind: Dict[IOKind, SortedEventList] = {}
        self._by_router_kind: Dict[Tuple[str, IOKind], SortedEventList] = {}
        self._by_rkp: Dict[
            Tuple[str, IOKind, object], SortedEventList
        ] = {}

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

        The per-kind/per-router buckets share chunk entries with
        ``_all`` only at the tuple level — each bucket owns its own
        chunk lists — so the walk's shared-object dedup does the
        right thing without special-casing.
        """
        from repro.obs import resources

        return resources.combined_sizeof(
            (self._all, self._by_kind, self._by_router_kind, self._by_rkp),
            sample=None if audit else obs.get_ledger().sample,
        )

    def __len__(self) -> int:
        return len(self._all)

    def add(self, event: IOEvent) -> None:
        self._all.add(event)
        kind = event.kind
        bucket = self._by_kind.get(kind)
        if bucket is None:
            bucket = self._by_kind[kind] = SortedEventList()
        bucket.add(event)
        rk = (event.router, kind)
        bucket = self._by_router_kind.get(rk)
        if bucket is None:
            bucket = self._by_router_kind[rk] = SortedEventList()
        bucket.add(event)
        if event.prefix is not None:
            rkp = (event.router, kind, event.prefix)
            bucket = self._by_rkp.get(rkp)
            if bucket is None:
                bucket = self._by_rkp[rkp] = SortedEventList()
            bucket.add(event)

    # -- queries -----------------------------------------------------------

    def window(self, lo: Key, hi: Key) -> Iterator[IOEvent]:
        """All events in the key range (the naive/pattern-mode scan)."""
        return self._all.irange(lo, hi)

    def candidates(
        self, plan: RulePlan, cons: IOEvent, lo: Key, hi: Key
    ) -> List[IOEvent]:
        """Events in the window that the plan's buckets can contain.

        Returns a superset of the rule's true antecedents (the engine
        still applies ``rule.pair_matches``), narrowed as far as the
        plan allows, in ``(timestamp, event_id)`` order.
        """
        if plan.router_from == "any":
            if not plan.kinds:
                return list(self._all.irange(lo, hi))
            buckets = [
                self._by_kind.get(kind) for kind in plan.kinds
            ]
        else:
            router = plan.router_key(cons)
            if router is None:
                # peer_symmetric with no peer on the consequent: no
                # event can satisfy the relation.
                return []
            if plan.prefix_narrowed:
                if cons.prefix is None:
                    # same_prefix requires a concrete shared prefix.
                    return []
                buckets = [
                    self._by_rkp.get((router, kind, cons.prefix))
                    for kind in plan.kinds
                ]
            else:
                buckets = [
                    self._by_router_kind.get((router, kind))
                    for kind in plan.kinds
                ]
        live = [b for b in buckets if b is not None]
        if not live:
            return []
        if len(live) == 1:
            return list(live[0].irange(lo, hi))
        merged: List[Tuple[float, int, IOEvent]] = []
        for bucket in live:
            merged.extend(
                (e.timestamp, e.event_id, e)
                for e in bucket.irange(lo, hi)
            )
        merged.sort(key=lambda item: (item[0], item[1]))
        return [event for _ts, _eid, event in merged]
