"""Root-cause analysis over the HBG (§6).

    "By traversing the HBG starting from a problematic FIB update, we
    can determine the sequence of I/Os that led to the policy
    violation.  Any leaf nodes we encounter represent the root
    cause(s) of the event."

:class:`ProvenanceTracer` walks ancestors of a violating FIB update
and classifies the leaves: configuration changes and hardware events
are *actionable* root causes (they can be reverted); receives from
external peers are *environmental* (the paper's §8 limitation — a
withdrawal caused by a dead uplink cannot be usefully blocked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import HappensBeforeGraph


@dataclass
class ProvenanceResult:
    """Everything the tracer learned about one problematic event."""

    target: IOEvent
    root_causes: List[IOEvent]
    #: One shortest causal chain per root cause (cause ... target).
    chains: Dict[int, List[IOEvent]]
    #: Every ancestor event id visited.
    ancestry: Set[int]
    min_confidence: float

    @property
    def actionable_causes(self) -> List[IOEvent]:
        """Root causes we can revert: config and hardware inputs."""
        return [
            e
            for e in self.root_causes
            if e.kind in (IOKind.CONFIG_CHANGE, IOKind.HARDWARE_STATUS)
        ]

    @property
    def environmental_causes(self) -> List[IOEvent]:
        """Root causes outside our control (external advertisements)."""
        return [
            e
            for e in self.root_causes
            if e.kind not in (IOKind.CONFIG_CHANGE, IOKind.HARDWARE_STATUS)
        ]

    def config_change_ids(self) -> List[int]:
        """``ConfigChange.change_id`` values among the root causes."""
        ids = []
        for event in self.actionable_causes:
            if event.kind is IOKind.CONFIG_CHANGE:
                change_id = event.attr("change_id")
                if change_id is not None:
                    ids.append(int(change_id))
        return ids

    def describe(self) -> str:
        lines = [f"provenance of: {self.target.describe()}"]
        for cause in self.root_causes:
            marker = (
                "actionable"
                if cause in self.actionable_causes
                else "environmental"
            )
            lines.append(f"  root cause ({marker}): {cause.describe()}")
            chain = self.chains.get(cause.event_id)
            if chain:
                for hop in chain:
                    lines.append(f"    -> {hop.describe()}")
        return "\n".join(lines)


class ProvenanceTracer:
    """Backwards HBG traversal from problematic events to leaves."""

    def __init__(
        self, graph: HappensBeforeGraph, min_confidence: float = 0.0
    ):
        self.graph = graph
        self.min_confidence = min_confidence

    def trace(self, event_id: int) -> ProvenanceResult:
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        target = self.graph.event(event_id)
        ancestry = self.graph.ancestors(event_id, self.min_confidence)
        roots = self.graph.leaves_of(ancestry, self.min_confidence) or [
            target
        ]
        chains: Dict[int, List[IOEvent]] = {}
        for root in roots:
            chain = self.graph.causal_chain_within(
                root.event_id, event_id, ancestry, self.min_confidence
            )
            if chain is not None:
                chains[root.event_id] = chain
        if registry.enabled:
            registry.counter("repair.provenance_traces_total").inc()
            registry.histogram("repair.provenance_seconds").observe(
                watch.elapsed()
            )
            registry.histogram("repair.provenance_ancestry_size").observe(
                len(ancestry)
            )
            # Walk depth = hops on the longest root→target causal chain.
            depth = max((len(c) for c in chains.values()), default=0)
            registry.histogram("repair.provenance_walk_depth").observe(depth)
            registry.histogram("repair.provenance_root_causes").observe(
                len(roots)
            )
        return ProvenanceResult(
            target=target,
            root_causes=roots,
            chains=chains,
            ancestry=ancestry,
            min_confidence=self.min_confidence,
        )

    def trace_many(self, event_ids: Sequence[int]) -> ProvenanceResult:
        """Joint provenance of several violating events.

        Root causes are the union; a shared leaf (one config change
        breaking many routers, as in Fig. 4) appears once.
        """
        if not event_ids:
            raise ValueError("need at least one event to trace")
        results = [self.trace(event_id) for event_id in event_ids]
        merged = results[0]
        seen_roots = {e.event_id for e in merged.root_causes}
        for result in results[1:]:
            merged.ancestry.update(result.ancestry)
            for root in result.root_causes:
                if root.event_id not in seen_roots:
                    seen_roots.add(root.event_id)
                    merged.root_causes.append(root)
                    chain = result.chains.get(root.event_id)
                    if chain is not None:
                        merged.chains[root.event_id] = chain
        merged.root_causes.sort(key=lambda e: e.event_id)
        return merged

    def blast_radius(self, event_id: int) -> List[IOEvent]:
        """All events downstream of ``event_id`` — everything that
        would have to be rolled back if the event is reverted."""
        descendants = self.graph.descendants(event_id, self.min_confidence)
        return [self.graph.event(i) for i in sorted(descendants)]
