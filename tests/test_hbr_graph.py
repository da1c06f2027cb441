"""Tests for the happens-before graph."""

import pytest
from hypothesis import given, strategies as st

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.graph import EdgeEvidence, HappensBeforeGraph, HbgError
from repro.net.addr import Prefix

P = Prefix.parse("203.0.113.0/24")


def _event(router="R1", kind=IOKind.FIB_UPDATE, t=1.0):
    return IOEvent.create(
        router, kind, t, protocol="bgp", prefix=P, action=RouteAction.ANNOUNCE
    )


def _evidence(confidence=1.0, technique="rule"):
    return EdgeEvidence(technique=technique, confidence=confidence)


def _chain(n):
    """A graph with events e0 -> e1 -> ... -> e(n-1)."""
    graph = HappensBeforeGraph()
    events = [_event(t=float(i)) for i in range(n)]
    for event in events:
        graph.add_event(event)
    for a, b in zip(events, events[1:]):
        assert graph.add_edge(a.event_id, b.event_id, _evidence())
    return graph, events


class TestConstruction:
    def test_add_event_idempotent(self):
        graph = HappensBeforeGraph()
        event = _event()
        graph.add_event(event)
        graph.add_event(event)
        assert len(graph) == 1

    def test_edge_requires_vertices(self):
        graph = HappensBeforeGraph()
        event = _event()
        graph.add_event(event)
        with pytest.raises(HbgError):
            graph.add_edge(event.event_id, 99999, _evidence())

    def test_self_edge_rejected(self):
        graph = HappensBeforeGraph()
        event = _event()
        graph.add_event(event)
        assert not graph.add_edge(event.event_id, event.event_id, _evidence())

    def test_cycle_is_kept_as_evidence(self):
        """The graph stores what it is handed; a cycle is evidence of
        a false-positive HBR (§4.2), not something add_edge arbitrates
        — a veto here would make the graph depend on insertion order."""
        graph, events = _chain(3)
        assert graph.add_edge(
            events[2].event_id, events[0].event_id, _evidence()
        )
        assert graph.edge_count() == 3
        everyone = {e.event_id for e in events}
        assert graph.ancestors(events[0].event_id) == everyone
        assert graph.descendants(events[0].event_id) == everyone
        assert graph.root_causes(events[1].event_id) == [events[1]]
        with pytest.raises(HbgError, match="cycle"):
            graph.topological_order()

    def test_duplicate_edge_keeps_higher_confidence(self):
        graph, events = _chain(2)
        graph.add_edge(
            events[0].event_id, events[1].event_id, _evidence(confidence=0.2)
        )
        edges = list(graph.edges())
        assert len(edges) == 1 and edges[0].evidence.confidence == 1.0
        graph.add_edge(
            events[0].event_id,
            events[1].event_id,
            EdgeEvidence(technique="pattern", confidence=1.0),
        )
        assert next(graph.edges()).evidence.confidence == 1.0

    def test_duplicate_edge_tie_break_is_canonical(self):
        # Equal confidence: (technique, rule) decides, whichever came first.
        a = EdgeEvidence(technique="rule", rule="a", confidence=0.5)
        b = EdgeEvidence(technique="rule", rule="b", confidence=0.5)
        for first, second in ((a, b), (b, a)):
            graph, events = _chain(2)
            ids = (events[0].event_id, events[1].event_id)
            graph.clear_in_edges(ids[1])
            graph.add_edge(*ids, first)
            graph.add_edge(*ids, second)
            assert next(graph.edges()).evidence == b

    def test_confidence_validated(self):
        with pytest.raises(HbgError):
            EdgeEvidence(technique="rule", confidence=1.5)

    def test_unknown_event_lookup(self):
        with pytest.raises(HbgError):
            HappensBeforeGraph().event(7)


class TestTraversal:
    def test_parents_children(self):
        graph, events = _chain(3)
        middle = events[1].event_id
        assert [e.event_id for e, _ in graph.parents(middle)] == [
            events[0].event_id
        ]
        assert [e.event_id for e, _ in graph.children(middle)] == [
            events[2].event_id
        ]

    def test_ancestors_descendants(self):
        graph, events = _chain(4)
        last = events[3].event_id
        assert graph.ancestors(last) == {e.event_id for e in events[:3]}
        first = events[0].event_id
        assert graph.descendants(first) == {e.event_id for e in events[1:]}

    def test_confidence_threshold_cuts_traversal(self):
        graph = HappensBeforeGraph()
        a, b = _event(t=1.0), _event(t=2.0)
        graph.add_event(a)
        graph.add_event(b)
        graph.add_edge(a.event_id, b.event_id, _evidence(confidence=0.3))
        assert graph.ancestors(b.event_id, min_confidence=0.5) == set()
        assert graph.ancestors(b.event_id, min_confidence=0.1) == {a.event_id}

    def test_root_causes_chain(self):
        graph, events = _chain(4)
        roots = graph.root_causes(events[3].event_id)
        assert [r.event_id for r in roots] == [events[0].event_id]

    def test_root_causes_of_orphan_is_itself(self):
        graph = HappensBeforeGraph()
        event = _event()
        graph.add_event(event)
        assert graph.root_causes(event.event_id) == [event]

    def test_root_causes_diamond(self):
        graph = HappensBeforeGraph()
        a, b, c, d = (_event(t=float(i)) for i in range(4))
        for event in (a, b, c, d):
            graph.add_event(event)
        graph.add_edge(a.event_id, b.event_id, _evidence())
        graph.add_edge(a.event_id, c.event_id, _evidence())
        graph.add_edge(b.event_id, d.event_id, _evidence())
        graph.add_edge(c.event_id, d.event_id, _evidence())
        assert [r.event_id for r in graph.root_causes(d.event_id)] == [a.event_id]

    def test_causal_chain(self):
        graph, events = _chain(4)
        chain = graph.causal_chain(events[0].event_id, events[3].event_id)
        assert [e.event_id for e in chain] == [e.event_id for e in events]

    def test_causal_chain_no_path(self):
        graph = HappensBeforeGraph()
        a, b = _event(), _event()
        graph.add_event(a)
        graph.add_event(b)
        assert graph.causal_chain(a.event_id, b.event_id) is None

    def test_causal_chain_same_node(self):
        graph, events = _chain(1)
        chain = graph.causal_chain(events[0].event_id, events[0].event_id)
        assert chain == [events[0]]

    def test_topological_order(self):
        graph, events = _chain(5)
        order = graph.topological_order()
        positions = {e.event_id: i for i, e in enumerate(order)}
        for edge in graph.edges():
            assert positions[edge.cause] < positions[edge.effect]


class TestSubgraphsAndExport:
    def test_subgraph_for_router(self):
        graph = HappensBeforeGraph()
        r1a = _event(router="R1", t=1.0)
        r1b = _event(router="R1", t=2.0)
        r2 = _event(router="R2", t=1.5)
        for event in (r1a, r2, r1b):
            graph.add_event(event)
        graph.add_edge(r1a.event_id, r2.event_id, _evidence())
        graph.add_edge(r1a.event_id, r1b.event_id, _evidence())
        sub = graph.subgraph_for_router("R1")
        assert len(sub) == 2
        assert sub.edge_count() == 1  # only the intra-R1 edge

    def test_merge(self):
        a, events_a = _chain(2)
        b = HappensBeforeGraph()
        extra = _event(t=9.0)
        b.add_event(extra)
        b.add_event(events_a[1])
        b.add_edge(events_a[1].event_id, extra.event_id, _evidence())
        a.merge(b)
        assert len(a) == 3
        assert a.edge_count() == 2

    def test_to_dot_contains_all_events(self):
        graph, events = _chain(3)
        dot = graph.to_dot()
        for event in events:
            assert f"e{event.event_id}" in dot
        assert "->" in dot

    def test_to_networkx(self):
        graph, events = _chain(3)
        nxg = graph.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 2

    def test_events_sorted_by_id(self):
        graph, events = _chain(3)
        assert [e.event_id for e in graph.events()] == sorted(
            e.event_id for e in events
        )


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.sampled_from((0.3, 0.9)),
                st.sampled_from(("rule", "pattern")),
                st.sampled_from(("", "r1", "r2")),
            ),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_same_edge_multiset_any_order_same_records(self, raw_edges, rng):
        """The graph is a pure function of the edges it was handed —
        cycles, duplicates with competing evidence and all."""
        events = [_event(t=float(i)) for i in range(8)]
        shuffled = list(raw_edges)
        rng.shuffle(shuffled)
        dumps = []
        for edges in (raw_edges, shuffled):
            graph = HappensBeforeGraph()
            for event in events:
                graph.add_event(event)
            for a, b, confidence, technique, rule in edges:
                graph.add_edge(
                    events[a].event_id,
                    events[b].event_id,
                    EdgeEvidence(technique, rule, confidence),
                )
            dumps.append(graph.to_records())
        assert dumps[0] == dumps[1]
        restored = HappensBeforeGraph.from_records(dumps[0])
        assert restored.to_records() == dumps[0]

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=40))
    def test_ancestors_closed_under_parents(self, raw_edges):
        graph = HappensBeforeGraph()
        events = [_event(t=float(i)) for i in range(15)]
        for event in events:
            graph.add_event(event)
        for a, b in raw_edges:
            if a != b:
                graph.add_edge(
                    events[a].event_id, events[b].event_id, _evidence()
                )
        target = events[-1].event_id
        ancestors = graph.ancestors(target)
        for ancestor in ancestors:
            for parent, _ in graph.parents(ancestor):
                assert parent.event_id in ancestors
