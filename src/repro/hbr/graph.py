"""The happens-before graph (HBG) of §4.3.

    "Vertices correspond to specific control plane I/Os, and directed
    edges represent HBRs."

The graph stores exactly the edges it is handed — *inferred evidence*,
not arbitrated truth — so its content is a pure function of the edge
multiset, whatever order the edges arrive in.  It is usually a DAG,
but clock skew can close a cycle: every cycle passes through a
forward-skew edge (a cause logged after its effect), i.e. it is
evidence of a false-positive HBR (§4.2), and which of its edges is the
false one cannot be decided here.  Keeping all of them only ever
*enlarges* ancestry — the conservative side for §5/§6 — and every
walker below carries a ``seen`` set, so cycles are safe to traverse.
Each edge carries :class:`EdgeEvidence` recording *which* inference
technique produced it and with what confidence — §4.2 proposes
"adapting the behavior of our system according to a statistical
confidence attached to each inferred HBR", so confidence is
first-class here and every traversal can be thresholded.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.capture.io_events import IOEvent


class HbgError(ValueError):
    """Raised for invalid HBG operations (unknown vertex, ...)."""


@dataclass(frozen=True, slots=True)
class EdgeEvidence:
    """Provenance of one inferred HBR edge."""

    technique: str  # "rule" | "pattern" | "ground_truth" | ...
    rule: str = ""
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise HbgError(f"confidence out of range: {self.confidence}")


def _rank(evidence: EdgeEvidence) -> Tuple[float, str, str]:
    return (evidence.confidence, evidence.technique, evidence.rule)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed happens-before edge: cause -> effect."""

    cause: int
    effect: int
    evidence: EdgeEvidence


class HappensBeforeGraph:
    """Control-plane I/O events and the HBR edges inferred among them."""

    def __init__(self) -> None:
        self._events: Dict[int, IOEvent] = {}
        self._out: Dict[int, Dict[int, EdgeEvidence]] = defaultdict(dict)
        self._in: Dict[int, Dict[int, EdgeEvidence]] = defaultdict(dict)
        # Maintained on every insert/delete so edge_count() is O(1):
        # the streaming pipeline reads it once per observed event.
        self._edge_total = 0
        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("hbr.graph", self)

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of vertices + adjacency (ledger callback)."""
        from repro.obs import resources

        return resources.combined_sizeof(
            (self._events, self._out, self._in),
            sample=None if audit else obs.get_ledger().sample,
        )

    # -- construction ------------------------------------------------------

    def add_event(self, event: IOEvent) -> None:
        """Add a vertex (idempotent for the same event id)."""
        existing = self._events.get(event.event_id)
        if existing is not None and existing is not event and existing != event:
            raise HbgError(f"conflicting events for id {event.event_id}")
        self._events[event.event_id] = event

    def add_edge(
        self, cause_id: int, effect_id: int, evidence: EdgeEvidence
    ) -> bool:
        """Add cause -> effect; returns False only for a self-edge.

        When the edge already exists, the evidence that sorts highest
        by ``(confidence, technique, rule)`` is kept, so the result
        does not depend on insertion order.
        """
        if cause_id not in self._events:
            raise HbgError(f"unknown cause vertex {cause_id}")
        if effect_id not in self._events:
            raise HbgError(f"unknown effect vertex {effect_id}")
        if cause_id == effect_id:
            return False
        current = self._out[cause_id].get(effect_id)
        if current is not None:
            if _rank(evidence) > _rank(current):
                self._out[cause_id][effect_id] = evidence
                self._in[effect_id][cause_id] = evidence
            return True
        self._out[cause_id][effect_id] = evidence
        self._in[effect_id][cause_id] = evidence
        self._edge_total += 1
        return True

    def clear_in_edges(self, effect_id: int) -> int:
        """Remove every in-edge of ``effect_id``; returns how many.

        The streaming re-link path replaces a consequent's inferred
        in-edges wholesale: when a late-arriving event changes which
        candidate a rule picks, the previously chosen edge must not
        linger next to the new one, or the streaming graph drifts from
        the batch build's.
        """
        incoming = self._in.pop(effect_id, None)
        if not incoming:
            return 0
        for cause in incoming:
            del self._out[cause][effect_id]
        self._edge_total -= len(incoming)
        return len(incoming)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, event_id: int) -> bool:
        return event_id in self._events

    def event(self, event_id: int) -> IOEvent:
        try:
            return self._events[event_id]
        except KeyError:
            raise HbgError(f"no event {event_id} in HBG") from None

    def events(self) -> List[IOEvent]:
        return [self._events[i] for i in sorted(self._events)]

    def edge_count(self) -> int:
        return self._edge_total

    def edges(self) -> Iterator[Edge]:
        for cause in sorted(self._out):
            for effect in sorted(self._out[cause]):
                yield Edge(cause, effect, self._out[cause][effect])

    def edge_set(self) -> Set[Tuple[int, int]]:
        return {(e.cause, e.effect) for e in self.edges()}

    def parents(
        self, event_id: int, min_confidence: float = 0.0
    ) -> List[Tuple[IOEvent, EdgeEvidence]]:
        """Direct causes of ``event_id`` above the confidence bar."""
        result = []
        for cause, evidence in sorted(self._in.get(event_id, {}).items()):
            if evidence.confidence >= min_confidence:
                result.append((self._events[cause], evidence))
        return result

    def children(
        self, event_id: int, min_confidence: float = 0.0
    ) -> List[Tuple[IOEvent, EdgeEvidence]]:
        result = []
        for effect, evidence in sorted(self._out.get(event_id, {}).items()):
            if evidence.confidence >= min_confidence:
                result.append((self._events[effect], evidence))
        return result

    def ancestors(
        self, event_id: int, min_confidence: float = 0.0
    ) -> Set[int]:
        """All transitive causes of ``event_id``."""
        self.event(event_id)
        seen: Set[int] = set()
        stack = [event_id]
        while stack:
            node = stack.pop()
            for cause, evidence in self._in.get(node, {}).items():
                if evidence.confidence < min_confidence:
                    continue
                if cause not in seen:
                    seen.add(cause)
                    stack.append(cause)
        return seen

    def descendants(
        self, event_id: int, min_confidence: float = 0.0
    ) -> Set[int]:
        self.event(event_id)
        seen: Set[int] = set()
        stack = [event_id]
        while stack:
            node = stack.pop()
            for effect, evidence in self._out.get(node, {}).items():
                if evidence.confidence < min_confidence:
                    continue
                if effect not in seen:
                    seen.add(effect)
                    stack.append(effect)
        return seen

    def root_causes(
        self, event_id: int, min_confidence: float = 0.0
    ) -> List[IOEvent]:
        """§6: "Any leaf nodes we encounter represent the root cause(s)."

        Walks ancestors of ``event_id``; returns those with no parents
        (above the confidence bar).  If the event itself has no
        parents it is its own root cause.
        """
        return self.leaves_of(
            self.ancestors(event_id, min_confidence), min_confidence
        ) or [self.event(event_id)]

    def leaves_of(
        self, event_ids: Set[int], min_confidence: float = 0.0
    ) -> List[IOEvent]:
        """Those of ``event_ids`` with no parents above the bar, by id.

        Of an ancestor set these are the root causes — for a caller
        that already walked :meth:`ancestors` and need not walk again.
        """
        return [
            self._events[a]
            for a in sorted(event_ids)
            if not any(
                ev.confidence >= min_confidence
                for ev in self._in.get(a, {}).values()
            )
        ]

    def causal_chain(
        self, from_id: int, to_id: int, min_confidence: float = 0.0
    ) -> Optional[List[IOEvent]]:
        """One shortest cause→effect path from ``from_id`` to ``to_id``."""
        self.event(from_id)
        if from_id == to_id:
            return [self.event(to_id)]
        return self.causal_chain_within(
            from_id, to_id, self.ancestors(to_id, min_confidence), min_confidence
        )

    def causal_chain_within(
        self,
        from_id: int,
        to_id: int,
        ancestry: Set[int],
        min_confidence: float = 0.0,
    ) -> Optional[List[IOEvent]]:
        """:meth:`causal_chain` for a caller already holding ``ancestry``
        = ``ancestors(to_id, min_confidence)``.

        The forward BFS expands only ancestors of the target.  Every
        node on a path to the target is one, and dropping the others
        keeps the discovery order of the rest, so the chain is the one
        an unrestricted search finds — without fanning out over all
        that descends from the root (a config change reaches every
        event on its router for a minute).
        """
        if from_id == to_id:
            return [self.event(to_id)]
        parent_of: Dict[int, int] = {}
        queue = deque([from_id])
        seen = {from_id}
        while queue:
            node = queue.popleft()
            out = self._out.get(node)
            if not out:
                continue
            # Effects are visited in id order, and the target ends the
            # search the moment it is reached, so which other effects
            # precede it in that order cannot change the path.
            hit = out.get(to_id)
            if hit is not None and hit.confidence >= min_confidence:
                path = [to_id, node]
                while path[-1] != from_id:
                    path.append(parent_of[path[-1]])
                return [self._events[i] for i in reversed(path)]
            for effect in sorted(out.keys() & ancestry):
                if effect in seen or out[effect].confidence < min_confidence:
                    continue
                parent_of[effect] = node
                seen.add(effect)
                queue.append(effect)
        return None

    def topological_order(self) -> List[IOEvent]:
        """Kahn's algorithm; ties broken by event id for determinism.

        Raises :exc:`HbgError` naming the events left on or behind a
        cycle — the way to ask whether the capture holds a skew cycle.
        """
        in_degree = {i: len(self._in.get(i, {})) for i in self._events}
        ready = sorted(i for i, d in in_degree.items() if d == 0)
        order: List[IOEvent] = []
        ready_set = deque(ready)
        while ready_set:
            node = ready_set.popleft()
            order.append(self._events[node])
            newly_ready = []
            for effect in self._out.get(node, {}):
                in_degree[effect] -= 1
                if in_degree[effect] == 0:
                    newly_ready.append(effect)
            for effect in sorted(newly_ready):
                ready_set.append(effect)
        if len(order) != len(self._events):
            stuck = sorted(set(self._events) - {e.event_id for e in order})
            raise HbgError(
                f"HBG has a cycle (a false-positive HBR, §4.2) among "
                f"events {stuck[:8]}"
            )
        return order

    def events_of_router(self, router: str) -> List[IOEvent]:
        return [e for e in self.events() if e.router == router]

    def subgraph_for_router(self, router: str) -> "HappensBeforeGraph":
        """This router's happens-before subgraph (§5, distributed mode):
        the router's own events plus edges between them."""
        sub = HappensBeforeGraph()
        ids = set()
        for event in self.events_of_router(router):
            sub.add_event(event)
            ids.add(event.event_id)
        for edge in self.edges():
            if edge.cause in ids and edge.effect in ids:
                sub.add_edge(edge.cause, edge.effect, edge.evidence)
        return sub

    def merge(self, other: "HappensBeforeGraph") -> None:
        """Union ``other`` into this graph."""
        for event in other.events():
            self.add_event(event)
        for edge in other.edges():
            self.add_edge(edge.cause, edge.effect, edge.evidence)

    # -- export -------------------------------------------------------------------

    def to_dot(self, min_confidence: float = 0.0) -> str:
        """Graphviz DOT text (for the Fig. 4 / Fig. 5 style renders)."""
        lines = ["digraph hbg {", "  rankdir=TB;", "  node [shape=box];"]
        for event in self.events():
            label = event.describe().replace('"', "'")
            lines.append(
                f'  e{event.event_id} [label="{label}\\n@{event.timestamp:.4f}s"];'
            )
        for edge in self.edges():
            if edge.evidence.confidence < min_confidence:
                continue
            style = "solid" if edge.evidence.technique == "rule" else "dashed"
            lines.append(
                f"  e{edge.cause} -> e{edge.effect} "
                f'[style={style}, label="{edge.evidence.confidence:.2f}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def to_records(self) -> Dict[str, list]:
        """Serialise the graph (events + edges) to plain dicts."""
        return {
            "events": [event.to_record() for event in self.events()],
            "edges": [
                {
                    "cause": edge.cause,
                    "effect": edge.effect,
                    "technique": edge.evidence.technique,
                    "rule": edge.evidence.rule,
                    "confidence": edge.evidence.confidence,
                }
                for edge in self.edges()
            ],
        }

    @classmethod
    def from_records(cls, records: Dict[str, list]) -> "HappensBeforeGraph":
        """Inverse of :meth:`to_records` (event ids preserved)."""
        graph = cls()
        for record in records.get("events", ()):
            graph.add_event(IOEvent.from_record(record))
        for record in records.get("edges", ()):
            graph.add_edge(
                int(record["cause"]),
                int(record["effect"]),
                EdgeEvidence(
                    technique=record.get("technique", "rule"),
                    rule=record.get("rule", ""),
                    confidence=float(record.get("confidence", 1.0)),
                ),
            )
        return graph

    def prune_before(self, cutoff: float) -> int:
        """Drop events older than ``cutoff`` (and their edges).

        Long-running deployments cannot keep the HBG forever; §5's
        consistency walk and §6's provenance only ever need the
        suffix covering in-flight convergence plus the operator's
        investigation horizon.  Returns how many events were dropped.
        """
        doomed = [
            event_id
            for event_id, event in self._events.items()
            if event.timestamp < cutoff
        ]
        for event_id in doomed:
            for effect in list(self._out.get(event_id, ())):
                del self._in[effect][event_id]
                self._edge_total -= 1
            for cause in list(self._in.get(event_id, ())):
                del self._out[cause][event_id]
                self._edge_total -= 1
            self._out.pop(event_id, None)
            self._in.pop(event_id, None)
            del self._events[event_id]
        return len(doomed)

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` for ad-hoc analysis."""
        import networkx as nx

        graph = nx.DiGraph()
        for event in self.events():
            graph.add_node(event.event_id, event=event)
        for edge in self.edges():
            graph.add_edge(
                edge.cause,
                edge.effect,
                technique=edge.evidence.technique,
                rule=edge.evidence.rule,
                confidence=edge.evidence.confidence,
            )
        return graph
