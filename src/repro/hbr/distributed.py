"""Distributed HBG construction and analysis (§5, final paragraph).

    "Each router can store its own happens-before subgraph containing
    that router's control plane I/Os.  Partial paths through the HBG
    can be passed to neighboring routers that can expand the paths
    based on their happens-before subgraph."

This is a real distributed construction engine, not a facade over the
central build:

* :class:`RouterSubgraph` maintains an incremental
  :class:`~repro.hbr.index.EventIndex` over *only its own* events —
  every :meth:`~RouterSubgraph.ingest` is an O(sqrt N) indexed insert
  (the streaming shape of :mod:`repro.hbr.inference`), so per-router
  work scales with per-router traffic, not with network size.
* Cross-router candidates come from **boundary summaries**: each
  router publishes, per neighbor, the compact bucket of its
  ROUTE_SEND/ROUTE_RECEIVE events addressed to that neighbor (peer,
  protocol, prefix, action, timestamp window) — never the full event
  stream.  Which kinds ship at all is derived from the engine's rule
  plans (:func:`boundary_kinds`); the default rule set needs sends
  only.
* Equivalence to the central build is an argument, not a hope.  Every
  rule plan is either ``same``-router — answerable from the local
  index alone, whose ``(router, kind[, prefix])`` buckets are
  *identical* to the central index's — or ``peer`` — answerable from
  the neighbor's boundary bucket, because the engine filters
  candidates through ``rule.antecedes``, whose ``peer_symmetric``
  relation keeps exactly the antecedents with ``peer ==
  cons.router``, which is precisely what the summary contains.  The
  post-filter candidate lists (the only input to edge choice *and*
  the ambiguity discount) are therefore identical.  Rule sets that
  break the argument (custom rules with no router relation, or with
  peer-side antecedents beyond send/receive) are **refused** with
  :exc:`DistributionUnsupported` instead of silently falling back to
  a central rebuild.
* The merge is deterministic, serial or forked
  (:meth:`DistributedHbg.build_all` with ``workers=N`` — the one
  fork-and-merge build; the cross-``PYTHONHASHSEED`` gate in
  tests/test_determinism.py covers it): same candidate lists ⇒ same
  ``_infer_edges`` output ⇒ same graph, because the graph stores
  exactly the edges it is handed, in any order.  Workers return plain
  edge *records* ``(cons_ts, cons_id, cause_id, evidence)``; the
  parent sorts them by consequent only so that the record list and
  the trace replay do not depend on the shard layout (round-robin
  over the *sorted* router names).  Workers are forked (engine, rules
  and subgraphs are inherited, not pickled); where ``fork`` is
  unavailable the shards run sequentially in-process, which is slower
  but identical.  A worker that dies raises ``BrokenProcessPool`` and
  nothing is merged.

:meth:`DistributedHbg.merged_graph` is a true merge of the per-router
edge records — it never calls the global ``build_graph`` over the
full event list.  The boundary-traffic meters
(:class:`BoundaryExchangeStats`, ``distributed.*`` obs metrics) let
the C-SCALE/C-DIST benchmarks compare message cost against shipping
every event to a central collector.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import EdgeEvidence, HappensBeforeGraph
from repro.hbr.index import EventIndex, RulePlan
from repro.hbr.inference import InferenceEngine, _IndexSource

#: One inferred edge: (consequent timestamp, consequent id, cause id,
#: evidence technique, evidence rule, evidence confidence).  Evidence
#: travels as primitives — unpickling tens of thousands of dataclasses
#: in the parent costs more than the workers save.
EdgeRecord = Tuple[float, int, int, str, str, float]

#: Per-rule timing aggregate a shard returns: rule name ->
#: (invocations, total wall seconds).  Workers must not touch the
#: process-global registry (anything they wrote would die with the
#: forked process — lint rule CONC001), so timings travel home in the
#: return value and the parent folds them into
#: ``inference.rule_invocations_total`` / ``inference.rule_seconds_total``.
ShardTimings = Dict[str, Tuple[int, float]]

#: Event kinds that can appear in a boundary summary at all: the
#: send/receive pairs that cross router boundaries.  A peer-plan rule
#: whose antecedent needs anything else (a neighbor's RIB/FIB/config
#: events) cannot be answered from summaries and is refused.
BOUNDARY_KINDS = frozenset({IOKind.ROUTE_SEND, IOKind.ROUTE_RECEIVE})


class DistributionUnsupported(ValueError):
    """The engine's rules cannot be built distributedly.

    Raised instead of silently centralizing: a caller that asked for
    the distributed path must know it did not get it.
    """


def distribution_obstacles(engine: InferenceEngine) -> List[str]:
    """Why ``engine`` cannot run distributed (empty list = it can).

    The checks mirror the equivalence argument in the module
    docstring: every candidate lookup must be answerable from a
    router's local index or a neighbor's boundary summary.
    """
    obstacles: List[str] = []
    for rule, plan in zip(engine.rules, engine._plans):
        if plan.router_from == "any":
            obstacles.append(
                f"rule {rule.name!r} has no same-router/peer relation "
                "(its antecedents need the global index)"
            )
        elif plan.router_from == "peer":
            foreign = [
                kind.value
                for kind in plan.kinds
                if kind not in BOUNDARY_KINDS
            ]
            if foreign:
                obstacles.append(
                    f"rule {rule.name!r} needs neighbor "
                    f"{'/'.join(foreign)} events, which boundary "
                    "summaries do not carry"
                )
    return obstacles


def supports_distribution(engine: InferenceEngine) -> bool:
    return not distribution_obstacles(engine)


def check_distribution(engine: InferenceEngine) -> None:
    obstacles = distribution_obstacles(engine)
    if obstacles:
        raise DistributionUnsupported(
            "engine cannot build distributedly: " + "; ".join(obstacles)
        )


def boundary_kinds(engine: InferenceEngine) -> Tuple[IOKind, ...]:
    """The event kinds boundary summaries must carry for ``engine``.

    Derived from the rule plans: only peer-plan antecedent kinds ship.
    With the default rule set that is ``(ROUTE_SEND,)`` — receives
    never antecede a cross-router rule, so they stay home.
    """
    needed: Set[IOKind] = set()
    for plan in engine._plans:
        if plan.router_from == "peer":
            needed.update(k for k in plan.kinds if k in BOUNDARY_KINDS)
    return tuple(sorted(needed, key=lambda kind: kind.value))


def _wire_bytes(event: IOEvent) -> int:
    """Deterministic estimate of one event's on-the-wire size.

    A fixed header (event id, timestamp, kind tag, field lengths)
    plus the variable-length fields.  Used for the boundary-traffic
    vs central-collector cost model; deterministic by construction so
    benchmark columns replay identically.
    """
    total = 26
    for text in (
        event.router,
        event.peer,
        event.protocol,
        str(event.prefix) if event.prefix is not None else None,
        event.action.value if event.action is not None else None,
    ):
        if text:
            total += len(text)
    for key, value in event.attrs:
        total += len(str(key)) + len(str(value))
    return total


@dataclass(frozen=True)
class BoundarySummary:
    """The compact per-neighbor bucket one router publishes.

    ``events`` is sorted by ``(timestamp, event_id)`` and contains
    only this router's boundary-kind events addressed to ``neighbor``
    — the keys (peer, protocol, prefix, action, timestamp) the
    receiving side needs to resolve cross-router send→receive edges.
    """

    origin: str
    neighbor: str
    events: Tuple[IOEvent, ...]

    def wire_bytes(self) -> int:
        return sum(_wire_bytes(event) for event in self.events)


@dataclass(frozen=True)
class BoundaryExchangeStats:
    """Traffic meter for one summary-exchange round."""

    messages: int
    events: int
    bytes: int


@dataclass(frozen=True)
class DistributedBuildStats:
    """What one :meth:`DistributedHbg.build_all` cost."""

    routers: int
    events: int
    edges: int
    workers: int
    boundary_messages: int
    boundary_events: int
    boundary_bytes: int
    #: Cost of the alternative: shipping every captured event to a
    #: central collector (same wire-size model as the summaries).
    central_bytes: int


@dataclass(frozen=True)
class PartialPath:
    """A (reversed) causal path being extended across routers.

    ``event_ids`` runs effect→cause: element 0 is the violating event
    the trace started from, the last element is the current frontier.
    """

    event_ids: Tuple[int, ...]

    @property
    def frontier(self) -> int:
        return self.event_ids[-1]

    def extended(self, event_id: int) -> "PartialPath":
        return PartialPath(self.event_ids + (event_id,))


class _DistributedSource:
    """Candidate source over a router's local index + boundary index.

    ``same``-plan lookups read the local index (bucket contents are
    identical to the central index's — buckets are keyed by the
    consequent's own router).  ``peer``-plan lookups read the boundary
    index built from neighbor summaries; the engine's ``antecedes``
    post-filter makes the resulting candidate lists identical to the
    central build's (see module docstring).  There is no entry for
    ``any``-router plans: :func:`check_distribution` refuses such
    engines up front, and one that slipped through fails loudly here.
    """

    __slots__ = ("_sources",)

    def __init__(self, local: EventIndex, boundary: EventIndex, skew: float):
        self._sources = {
            "same": _IndexSource(local, skew),
            "peer": _IndexSource(boundary, skew),
        }

    def rule_candidates(
        self, cons: IOEvent, window: float, plan: RulePlan
    ) -> List[IOEvent]:
        return self._sources[plan.router_from].rule_candidates(
            cons, window, plan
        )


# -- shards, edge records and their replay ----------------------------------


def shard_routers(routers: Sequence[str], workers: int) -> List[List[str]]:
    """Deterministically round-robin sorted router names over shards.

    Sorting first makes the assignment a pure function of the router
    set — independent of PYTHONHASHSEED, arrival order, or scheduling.
    """
    ordered = sorted(routers)
    workers = max(1, workers)
    shards = [ordered[i::workers] for i in range(workers)]
    return [shard for shard in shards if shard]


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platform
        return None


def _tally(
    timings: ShardTimings, rule: str, count: int, seconds: float
) -> None:
    had_count, had_seconds = timings.get(rule, (0, 0.0))
    timings[rule] = (had_count + count, had_seconds + seconds)


def _merge_shards(
    results: Iterable[Tuple[List[EdgeRecord], ShardTimings]]
) -> Tuple[List[EdgeRecord], ShardTimings]:
    """Concatenate shard records and sum their per-rule timings."""
    records: List[EdgeRecord] = []
    timings: ShardTimings = {}
    for shard_records, shard_timings in results:
        records.extend(shard_records)
        for rule, (count, seconds) in shard_timings.items():
            _tally(timings, rule, count, seconds)
    return records, timings


def _replay(
    events: Iterable[IOEvent], records: Iterable[EdgeRecord]
) -> Tuple[HappensBeforeGraph, Dict[int, List[int]]]:
    """The graph over ``events`` with the edges of ``records``, plus
    the edges it could not hold: effect id -> cause ids not among
    ``events``.  That is how a router's local graph keeps only its
    intra-router edges and still knows its cross-router in-edges.
    """
    graph = HappensBeforeGraph()
    foreign: Dict[int, List[int]] = {}
    for event in events:
        graph.add_event(event)
    # Most edges share one of a handful of (technique, rule,
    # confidence) shapes; intern the rebuilt evidence objects.
    evidence_cache: Dict[Tuple[str, str, float], EdgeEvidence] = {}
    for _ts, cons_id, cause_id, technique, rule, conf in records:
        if cause_id not in graph:
            foreign.setdefault(cons_id, []).append(cause_id)
            continue
        evidence = evidence_cache.get((technique, rule, conf))
        if evidence is None:
            evidence = EdgeEvidence(
                technique=technique, rule=rule, confidence=conf
            )
            evidence_cache[(technique, rule, conf)] = evidence
        graph.add_edge(cause_id, cons_id, evidence)
    return graph, foreign


class RouterSubgraph:
    """One router's share of the HBG.

    Ingest is streaming: each event lands in the local
    :class:`EventIndex` (O(sqrt N) insert, same bucket layout the
    central build uses) and the per-neighbor outbox.  Nothing here
    ever sees another router's full event stream; cross-router
    inference reads only the boundary summaries neighbors published.
    """

    def __init__(self, router: str, engine: Optional[InferenceEngine] = None):
        self.router = router
        self.engine = engine or InferenceEngine()
        self._events: List[IOEvent] = []
        #: Local events, incrementally indexed (never remote events —
        #: those live in the boundary index so local bucket contents
        #: stay identical to the central index's).
        self._local = EventIndex()
        #: neighbor -> boundary-kind events addressed to it.
        self._outbox: Dict[str, List[IOEvent]] = {}
        #: origin -> the latest summary that neighbor published to us.
        self._inbox: Dict[str, BoundarySummary] = {}
        self._boundary: Optional[EventIndex] = None
        self.graph = HappensBeforeGraph()
        #: local effect id -> ids of its inferred causes on *other*
        #: routers: the crossings the partial-path protocol follows.
        self.remote_parents: Dict[int, List[int]] = {}

    def ingest(self, event: IOEvent) -> None:
        if event.router != self.router:
            raise ValueError(
                f"event of {event.router} offered to subgraph of {self.router}"
            )
        self._events.append(event)
        self._local.add(event)
        if event.kind in BOUNDARY_KINDS and event.peer:
            self._outbox.setdefault(event.peer, []).append(event)

    def events(self) -> List[IOEvent]:
        return list(self._events)

    def event_count(self) -> int:
        return len(self._events)

    # -- boundary-summary exchange ----------------------------------------

    def neighbors(self) -> List[str]:
        """Routers this one exchanged route messages with."""
        return sorted(self._outbox)

    def summary_for(
        self, neighbor: str, kinds: Sequence[IOKind]
    ) -> BoundarySummary:
        """The boundary bucket this router publishes to ``neighbor``."""
        wanted = frozenset(kinds)
        selected = sorted(
            (
                event
                for event in self._outbox.get(neighbor, ())
                if event.kind in wanted
            ),
            key=lambda e: (e.timestamp, e.event_id),
        )
        return BoundarySummary(
            origin=self.router, neighbor=neighbor, events=tuple(selected)
        )

    def receive_summary(self, summary: BoundarySummary) -> None:
        """Accept a neighbor's boundary summary (replacing any older
        one from the same origin)."""
        self._inbox[summary.origin] = summary
        self._boundary = None

    def _boundary_index(self) -> EventIndex:
        if self._boundary is None:
            index = EventIndex()
            for origin in sorted(self._inbox):
                for event in self._inbox[origin].events:
                    index.add(event)
            self._boundary = index
        return self._boundary

    # -- inference ---------------------------------------------------------

    def infer_records(self) -> Tuple[List[EdgeRecord], ShardTimings]:
        """Edge records for this router's consequents, plus the
        per-rule timing aggregate (empty when obs is off).

        Pure per-consequent inference over the local index plus the
        boundary summaries received so far; identical to the central
        build's records for these consequents (module docstring).
        Safe inside forked workers: the timing sink only writes the
        dict this call returns — never the (forked, doomed)
        process-global registry (CONC001).
        """
        source = _DistributedSource(
            self._local,
            self._boundary_index(),
            self.engine.config.clock_skew_tolerance,
        )
        records: List[EdgeRecord] = []
        timings: ShardTimings = {}
        timing_sink = None
        if obs.get_registry().enabled:

            def timing_sink(rule_name: str, seconds: float) -> None:
                _tally(timings, rule_name, 1, seconds)

        for cons in self._events:
            for ante, evidence in self.engine._infer_edges(
                cons, source, timing_sink
            ):
                records.append(
                    (
                        cons.timestamp,
                        cons.event_id,
                        ante.event_id,
                        evidence.technique,
                        evidence.rule,
                        evidence.confidence,
                    )
                )
        return records, timings

    def build(self) -> HappensBeforeGraph:
        """(Re)infer this router's edges from what it holds so far.

        Standalone (before any summary exchange) this reproduces
        exactly what inference over the local events alone would
        produce.
        """
        check_distribution(self.engine)
        records, _timings = self.infer_records()
        self.adopt(records)
        return self.graph

    def adopt(self, records: Sequence[EdgeRecord]) -> None:
        """Install the inferred in-edges of this router's events: the
        *local* graph (own events, intra-router edges — exactly the
        merged graph's restriction to this router) plus
        :attr:`remote_parents` for the causes that live on a neighbor.
        """
        self.graph, self.remote_parents = _replay(self._events, records)


#: Stashed subgraphs (by router name) for forked workers — set in the
#: parent immediately before the fork so children inherit them without
#: pickling them per task.
_WORK: Optional[Dict[str, RouterSubgraph]] = None


def _infer_shard(
    subgraphs: Dict[str, RouterSubgraph], routers: Sequence[str]
) -> Tuple[List[EdgeRecord], ShardTimings]:
    """One shard's work, forked or in-process: the merged records and
    timings of ``routers``' subgraphs."""
    # The method is named through its class so `repro lint --deep`
    # can follow the fork root into the inference code (CONC001).
    return _merge_shards(
        RouterSubgraph.infer_records(subgraphs[name]) for name in routers
    )


def _run_shard(routers: List[str]) -> Tuple[List[EdgeRecord], ShardTimings]:
    if _WORK is None:  # set by DistributedHbg.build_all before forking
        raise RuntimeError("_run_shard called outside build_all")
    return _infer_shard(_WORK, routers)


class DistributedHbg:
    """A set of router subgraphs plus the exchange protocols.

    Two kinds of cross-router traffic, both metered:

    * **boundary summaries** at build time (compact per-neighbor
      send/receive buckets — the construction-side exchange);
    * **partial paths** at analysis time (the §5 path-expansion
      protocol, counted in :attr:`messages_exchanged`).
    """

    def __init__(self, engine: Optional[InferenceEngine] = None):
        self.engine = engine or InferenceEngine()
        self.subgraphs: Dict[str, RouterSubgraph] = {}
        #: Count of partial paths passed between routers (the cost
        #: metric for the distributed-vs-central comparison).
        self.messages_exchanged = 0
        #: O(1) owner-map lookups served (each replaces what used to
        #: be a scan over every subgraph).
        self.owner_lookups = 0
        #: event_id -> owning router, maintained on ingest.
        self._owner: Dict[int, str] = {}
        self._central_bytes = 0
        self._records: Optional[List[EdgeRecord]] = None
        self.last_build: Optional[DistributedBuildStats] = None

    # -- ingest ------------------------------------------------------------

    def ingest(self, event: IOEvent) -> None:
        subgraph = self.subgraphs.get(event.router)
        if subgraph is None:
            subgraph = RouterSubgraph(event.router, self.engine)
            self.subgraphs[event.router] = subgraph
        subgraph.ingest(event)
        self._owner[event.event_id] = event.router
        self._central_bytes += _wire_bytes(event)
        self._records = None

    def ingest_all(self, events: Iterable[IOEvent]) -> None:
        for event in events:
            self.ingest(event)

    def event_count(self) -> int:
        return len(self._owner)

    # -- construction ------------------------------------------------------

    def exchange_summaries(self) -> BoundaryExchangeStats:
        """One summary-exchange round: every router publishes its
        per-neighbor boundary buckets.  Idempotent (a newer summary
        replaces the origin's older one); empty buckets stay home."""
        kinds = boundary_kinds(self.engine)
        messages = events = bytes_total = 0
        for origin_name in sorted(self.subgraphs):
            origin = self.subgraphs[origin_name]
            for neighbor in origin.neighbors():
                target = self.subgraphs.get(neighbor)
                if target is None:
                    # External peer: it contributed no events, so the
                    # central build had nothing from it either.
                    continue
                summary = origin.summary_for(neighbor, kinds)
                if not summary.events:
                    continue
                target.receive_summary(summary)
                messages += 1
                events += len(summary.events)
                bytes_total += summary.wire_bytes()
        return BoundaryExchangeStats(
            messages=messages, events=events, bytes=bytes_total
        )

    def build_all(self, workers: Optional[int] = None) -> None:
        """Exchange boundary summaries, infer every router's edges
        (optionally with ``workers`` forked processes), and populate
        the per-router local graphs.

        Raises :exc:`DistributionUnsupported` for engines whose rules
        cannot be answered from local indices plus boundary summaries
        — never a silent central rebuild — and ``BrokenProcessPool``
        when a forked worker dies; either way the previous records
        and subgraphs stay as they were.
        """
        global _WORK
        check_distribution(self.engine)
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        exchange = self.exchange_summaries()
        names = sorted(self.subgraphs)
        shards = shard_routers(names, workers or 1)
        context = _fork_context() if len(shards) > 1 else None
        if context is None:
            results = [_infer_shard(self.subgraphs, s) for s in shards]
        else:
            # Imported here: it pulls in ~20 modules (1.6 MiB) that
            # only a forked build needs.
            from concurrent.futures import ProcessPoolExecutor

            _WORK = self.subgraphs
            try:
                with ProcessPoolExecutor(
                    max_workers=len(shards), mp_context=context
                ) as executor:
                    results = list(executor.map(_run_shard, shards))
            finally:
                _WORK = None
        records, timings = _merge_shards(results)
        # By consequent (the sort is stable, so a consequent's edges
        # keep their inferred order): the central build's emission
        # order, whatever the shard layout.
        records.sort(key=lambda r: (r[0], r[1]))
        self._records = records
        by_owner: Dict[str, List[EdgeRecord]] = {name: [] for name in names}
        for record in records:
            by_owner[self._owner[record[1]]].append(record)
        for name in names:
            self.subgraphs[name].adopt(by_owner[name])
        self.last_build = DistributedBuildStats(
            routers=len(names),
            events=len(self._owner),
            edges=len(records),
            workers=len(shards),
            boundary_messages=exchange.messages,
            boundary_events=exchange.events,
            boundary_bytes=exchange.bytes,
            central_bytes=self._central_bytes,
        )
        # Workers are throwaway forks (and may not touch the obs
        # singletons, CONC001): what `_edges_into` emits per edge on
        # the central path is replayed here in the parent.
        recorder = obs.get_recorder()
        if recorder.enabled:
            for cons_ts, cons_id, cause_id, technique, rule, conf in records:
                recorder.record(
                    obs.TraceKind.HBR_EDGE,
                    at=cons_ts,
                    router=self._owner[cons_id],
                    event_id=cons_id,
                    cause=cause_id,
                    rule=rule,
                    technique=technique,
                    confidence=conf,
                )
        if registry.enabled:
            registry.counter("distributed.builds_total").inc()
            registry.gauge("distributed.router_count").set(len(names))
            registry.histogram("distributed.build_seconds").observe(
                watch.elapsed()
            )
            registry.counter("distributed.boundary_messages_total").inc(
                exchange.messages
            )
            registry.counter("distributed.boundary_events_total").inc(
                exchange.events
            )
            registry.counter("distributed.boundary_bytes_total").inc(
                exchange.bytes
            )
            registry.counter("distributed.central_baseline_bytes_total").inc(
                self._central_bytes
            )
            for technique, count in sorted(
                Counter(record[3] for record in records).items()
            ):
                registry.counter(
                    "inference.edges_by_technique", technique=technique
                ).inc(count)
            if records:
                registry.counter("inference.hbg_edges_inferred").inc(
                    len(records)
                )
            # Counters, not histograms: per-call sample order is
            # worker-scheduling noise, but invocation counts and total
            # seconds merge deterministically.
            for rule in sorted(timings):
                count, seconds = timings[rule]
                registry.counter(
                    "inference.rule_invocations_total", rule=rule
                ).inc(count)
                registry.counter(
                    "inference.rule_seconds_total", rule=rule
                ).inc(seconds)

    def _ensure_built(self) -> None:
        if self._records is None:
            self.build_all()

    # -- lookups -----------------------------------------------------------

    def _find_event(self, event_id: int) -> Tuple[str, IOEvent]:
        """O(1) owner-map lookup (was: a scan over every subgraph)."""
        self.owner_lookups += 1
        router = self._owner.get(event_id)
        if router is None:
            raise KeyError(f"event {event_id} not in any subgraph")
        return router, self.subgraphs[router].graph.event(event_id)

    # -- analysis ----------------------------------------------------------

    def trace_root_causes(self, event_id: int) -> List[IOEvent]:
        """Distributed provenance: expand partial paths to leaves.

        §6's root-cause walk over the same inferred edges as the
        merged graph, but without a global graph: each expansion step
        reads only one router's subgraph, and following a cross-router
        in-edge costs one exchanged message.
        """
        self._ensure_built()
        start_router, start = self._find_event(event_id)
        registry = obs.get_registry()
        messages_before = self.messages_exchanged
        roots: Dict[int, IOEvent] = {}
        queue: deque = deque()
        queue.append((start_router, PartialPath((event_id,))))
        visited: Set[int] = set()
        while queue:
            router, path = queue.popleft()
            frontier_id = path.frontier
            if frontier_id in visited:
                continue
            visited.add(frontier_id)
            subgraph = self.subgraphs[router]
            parents = [
                (router, parent.event_id)
                for parent, _ in subgraph.graph.parents(frontier_id)
            ]
            for cause_id in subgraph.remote_parents.get(frontier_id, ()):
                self.messages_exchanged += 1
                parents.append((self._owner[cause_id], cause_id))
            if not parents:
                roots[frontier_id] = subgraph.graph.event(frontier_id)
            for owner, parent_id in parents:
                queue.append((owner, path.extended(parent_id)))
        if registry.enabled:
            registry.counter("distributed.partial_path_messages_total").inc(
                self.messages_exchanged - messages_before
            )
            registry.counter("distributed.owner_lookups_total").inc()
        # ``or``: an event on a leafless cycle is its own root cause,
        # as in HappensBeforeGraph.root_causes.
        return [roots[i] for i in sorted(roots)] or [start]

    def merged_graph(self) -> HappensBeforeGraph:
        """True merge of the per-router edge records.

        Byte-identical to the central build (the determinism gate
        holds batch, streaming and this to the same edge dump).  Never
        calls the global ``build_graph`` over the full event list —
        the per-router records *are* the graph.
        """
        self._ensure_built()
        everyone = [
            e for name in sorted(self.subgraphs)
            for e in self.subgraphs[name].events()
        ]
        merged, _foreign = _replay(everyone, self._records or ())
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("distributed.merges_total").inc()
        return merged

    def routers(self) -> List[str]:
        return sorted(self.subgraphs)
