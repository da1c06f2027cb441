"""Tests for provenance tracing — the Fig. 4 root-cause analysis."""

import itertools
from collections import deque

import pytest
from hypothesis import given, strategies as st

from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import EdgeEvidence, HappensBeforeGraph
from repro.hbr.inference import InferenceEngine
from repro.net.config import ConfigChange, local_pref_map
from repro.repair.provenance import ProvenanceTracer
from repro.scenarios.fig2 import Fig2Scenario
from repro.scenarios.paper_net import P


@pytest.fixture
def fig2_traced(fast_delays):
    scenario = Fig2Scenario(seed=0, delays=fast_delays)
    net = scenario.run_fig2a()
    graph = InferenceEngine().build_graph(net.collector.all_events())
    return scenario, net, graph


def _violating_fib_event(net):
    """R1's FIB flip to its own uplink — the Fig. 4 'fault' vertex."""
    config = net.collector.query(router="R2", kind=IOKind.CONFIG_CHANGE)[0]
    fibs = [
        e
        for e in net.collector.query(
            router="R1", kind=IOKind.FIB_UPDATE, prefix=P
        )
        if e.timestamp > config.timestamp
    ]
    return max(fibs, key=lambda e: e.timestamp), config


class TestFig4RootCause:
    def test_root_cause_is_r2_config_change(self, fig2_traced):
        """Fig. 4 / §6: traversing from 'R1 install P->Ext in FIB'
        reaches the leaf 'R2 configuration change'."""
        _scenario, net, graph = fig2_traced
        fib, config = _violating_fib_event(net)
        tracer = ProvenanceTracer(graph)
        result = tracer.trace(fib.event_id)
        root_ids = {e.event_id for e in result.root_causes}
        assert config.event_id in root_ids

    def test_trace_walks_ancestry_once(self, fig2_traced, monkeypatch):
        """The leaves come from the ancestor set already in hand, and
        are the ones ``root_causes`` finds with its own walk."""
        _scenario, net, graph = fig2_traced
        fib, _config = _violating_fib_event(net)
        expected = graph.root_causes(fib.event_id)
        walks = []
        original = graph.ancestors

        def counted(event_id, min_confidence=0.0):
            walks.append(event_id)
            return original(event_id, min_confidence)

        monkeypatch.setattr(graph, "ancestors", counted)
        result = ProvenanceTracer(graph).trace(fib.event_id)
        assert walks == [fib.event_id]
        assert result.root_causes == expected

    def test_config_cause_is_actionable(self, fig2_traced):
        _scenario, net, graph = fig2_traced
        fib, config = _violating_fib_event(net)
        result = ProvenanceTracer(graph).trace(fib.event_id)
        actionable_ids = {e.event_id for e in result.actionable_causes}
        assert config.event_id in actionable_ids

    def test_chain_matches_fig4_shape(self, fig2_traced):
        """config -> (R2 RIB/send) -> R1 recv -> R1 RIB -> R1 FIB."""
        _scenario, net, graph = fig2_traced
        fib, config = _violating_fib_event(net)
        result = ProvenanceTracer(graph).trace(fib.event_id)
        chain = result.chains[config.event_id]
        kinds = [e.kind for e in chain]
        assert kinds[0] is IOKind.CONFIG_CHANGE
        assert kinds[-1] is IOKind.FIB_UPDATE
        assert IOKind.ROUTE_RECEIVE in kinds
        routers = [e.router for e in chain]
        assert routers[0] == "R2" and routers[-1] == "R1"

    def test_config_change_ids_extracted(self, fig2_traced):
        scenario, net, graph = fig2_traced
        fib, _config = _violating_fib_event(net)
        result = ProvenanceTracer(graph).trace(fib.event_id)
        assert scenario.change.change_id in result.config_change_ids()

    def test_describe_readable(self, fig2_traced):
        _scenario, net, graph = fig2_traced
        fib, _config = _violating_fib_event(net)
        text = ProvenanceTracer(graph).trace(fib.event_id).describe()
        assert "root cause" in text
        assert "config change" in text


class TestTraceMany:
    def test_shared_root_reported_once(self, fig2_traced):
        """One config change poisoned R1, R2 and R3; joint provenance
        must surface it exactly once (Fig. 4's shared leaf)."""
        _scenario, net, graph = fig2_traced
        config = net.collector.query(router="R2", kind=IOKind.CONFIG_CHANGE)[0]
        fib_events = [
            e
            for e in net.collector.query(kind=IOKind.FIB_UPDATE, prefix=P)
            if e.timestamp > config.timestamp
        ]
        assert len(fib_events) >= 2
        result = ProvenanceTracer(graph).trace_many(
            [e.event_id for e in fib_events]
        )
        config_roots = [
            e
            for e in result.root_causes
            if e.kind is IOKind.CONFIG_CHANGE and e.router == "R2"
        ]
        assert len(config_roots) == 1

    def test_empty_input_rejected(self, fig2_traced):
        _scenario, _net, graph = fig2_traced
        with pytest.raises(ValueError):
            ProvenanceTracer(graph).trace_many([])


def _forward_chain(graph, from_id, to_id, min_confidence):
    """The unrestricted forward BFS ``causal_chain`` used to run: every
    descendant of the root is expanded, effects in id order."""
    if from_id == to_id:
        return [graph.event(to_id)]
    parent_of = {}
    queue = deque([from_id])
    seen = {from_id}
    while queue:
        node = queue.popleft()
        for effect, _evidence in graph.children(node, min_confidence):
            effect_id = effect.event_id
            if effect_id in seen:
                continue
            parent_of[effect_id] = node
            if effect_id == to_id:
                path = [to_id]
                while path[-1] != from_id:
                    path.append(parent_of[path[-1]])
                return [graph.event(i) for i in reversed(path)]
            seen.add(effect_id)
            queue.append(effect_id)
    return None


def _reference_trace_many(graph, event_ids, min_confidence):
    """``trace_many`` as a per-event walk plus :func:`_forward_chain`:
    (root ids in order, {root id: chain ids}, ancestry)."""
    roots, chains, ancestry = [], {}, set()
    for event_id in event_ids:
        ancestors = graph.ancestors(event_id, min_confidence)
        ancestry |= ancestors
        leaves = graph.leaves_of(ancestors, min_confidence) or [
            graph.event(event_id)
        ]
        for root in leaves:
            if root.event_id in roots:
                continue
            roots.append(root.event_id)
            chain = _forward_chain(
                graph, root.event_id, event_id, min_confidence
            )
            if chain is not None:
                chains[root.event_id] = [e.event_id for e in chain]
    return sorted(roots), chains, ancestry


@pytest.fixture
def rr_sabotaged(lagged_rr_capture):
    """``(graph, suspects)``: the lagged route-reflector capture with one
    planted config change (local-pref 1 on the best uplink, the
    benchmark's sabotage) and the FIB updates logged after it."""
    net, _view, _events = lagged_rr_capture
    maps = {
        router: net.configs.get(router).route_maps.get(
            f"{router.lower()}-uplink-lp"
        )
        for router in sorted(net.topology.internal_routers())
    }
    router, route_map = max(
        ((r, m) for r, m in maps.items() if m is not None),
        key=lambda item: item[1].clauses[0].set_local_pref,
    )
    since = net.sim.now
    net.apply_config_change(
        ConfigChange(
            router,
            "set_route_map",
            key=route_map.name,
            value=local_pref_map(route_map.name, 1),
        )
    )
    net.run(40.0)
    events = net.collector.all_events()
    graph = InferenceEngine().build_graph(events)
    suspects = [
        e.event_id
        for e in events
        if e.kind is IOKind.FIB_UPDATE and e.timestamp > since
    ]
    assert suspects
    return graph, suspects


class TestChainsSearchedInsideTheAncestry:
    """``trace`` finds each root→target chain with a forward search that
    only enters the target's ancestors; the answer must be the one the
    unrestricted search gives, at a cost that follows the ancestry."""

    def test_same_answer_as_unrestricted_search(
        self, fig2_traced, rr_sabotaged
    ):
        _scenario, net, fig2_graph = fig2_traced
        config = net.collector.query(router="R2", kind=IOKind.CONFIG_CHANGE)[0]
        fig2_suspects = [
            e.event_id
            for e in net.collector.query(kind=IOKind.FIB_UPDATE)
            if e.timestamp > config.timestamp
        ]
        for (graph, suspects), min_confidence in itertools.product(
            ((fig2_graph, fig2_suspects), rr_sabotaged), (0.0, 0.85)
        ):
            result = ProvenanceTracer(graph, min_confidence).trace_many(
                suspects
            )
            roots, chains, ancestry = _reference_trace_many(
                graph, suspects, min_confidence
            )
            assert [e.event_id for e in result.root_causes] == roots
            assert {
                root: [e.event_id for e in chain]
                for root, chain in result.chains.items()
            } == chains
            assert result.ancestry == ancestry
            for suspect in suspects:
                for root in graph.root_causes(suspect, min_confidence):
                    assert graph.causal_chain(
                        root.event_id, suspect, min_confidence
                    ) == _forward_chain(
                        graph, root.event_id, suspect, min_confidence
                    )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
                st.sampled_from([0.5, 0.8, 1.0]),
            ),
            max_size=24,
        ),
        st.sampled_from([0.0, 0.8, 0.9]),
    )
    def test_same_chain_on_random_graphs(self, edges, min_confidence):
        """Small random graphs — ties between equal-length paths, low
        confidence shortcuts, cycles — for every (root, target) pair."""
        graph = HappensBeforeGraph()
        events = [
            IOEvent.create("R1", IOKind.RIB_UPDATE, float(i)) for i in range(8)
        ]
        for event in events:
            graph.add_event(event)
        for cause, effect, confidence in edges:
            graph.add_edge(
                events[cause].event_id,
                events[effect].event_id,
                EdgeEvidence(technique="rule", confidence=confidence),
            )
        ids = [event.event_id for event in events]
        for from_id, to_id in itertools.product(ids, ids):
            assert graph.causal_chain(
                from_id, to_id, min_confidence
            ) == _forward_chain(graph, from_id, to_id, min_confidence)
        result = ProvenanceTracer(graph, min_confidence).trace_many(ids)
        roots, chains, ancestry = _reference_trace_many(
            graph, ids, min_confidence
        )
        assert [e.event_id for e in result.root_causes] == roots
        assert {
            root: [e.event_id for e in chain]
            for root, chain in result.chains.items()
        } == chains
        assert result.ancestry == ancestry

    def test_trace_calls_per_event_stay_within_budget(self, rr_sabotaged):
        """Interpreter calls per traced event, counted by cProfile: 208
        since the chain search stays inside the ancestry, 506 when it
        expanded everything downstream of the config change (whose
        ``config-before-*`` edges reach every event on its router for
        a minute).  The budget is ~1.25x the measured value."""
        import cProfile
        import pstats

        graph, suspects = rr_sabotaged
        tracer = ProvenanceTracer(graph)
        profile = cProfile.Profile()
        profile.enable()
        result = tracer.trace_many(suspects)
        profile.disable()
        assert result.actionable_causes
        calls = pstats.Stats(profile).total_calls / len(suspects)
        assert calls <= 260.0, calls


class TestHardwareRootCause:
    def test_link_failure_traced(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.fig1.run_fig1b()
        net.fail_link("R2", "Ext2")
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        hw = net.collector.query(router="R2", kind=IOKind.HARDWARE_STATUS)[0]
        # R3's FIB removal traces back to R2's hardware event.
        from repro.capture.io_events import RouteAction

        withdraws = net.collector.query(
            router="R3",
            kind=IOKind.FIB_UPDATE,
            prefix=P,
            action=RouteAction.WITHDRAW,
        )
        assert withdraws
        result = ProvenanceTracer(graph).trace(withdraws[0].event_id)
        root_ids = {e.event_id for e in result.root_causes}
        assert hw.event_id in root_ids
        # Hardware causes are actionable in classification terms but the
        # repair engine reports them unrepairable (can't fix fibre).
        assert any(
            e.kind is IOKind.HARDWARE_STATUS for e in result.actionable_causes
        )


class TestBlastRadius:
    def test_blast_radius_covers_downstream(self, fig2_traced):
        _scenario, net, graph = fig2_traced
        config = net.collector.query(router="R2", kind=IOKind.CONFIG_CHANGE)[0]
        downstream = ProvenanceTracer(graph).blast_radius(config.event_id)
        routers = {e.router for e in downstream}
        assert routers >= {"R1", "R2", "R3"}

    def test_confidence_threshold_respected(self, fig2_traced):
        _scenario, net, graph = fig2_traced
        fib, config = _violating_fib_event(net)
        strict = ProvenanceTracer(graph, min_confidence=1.1 - 1e-9)
        # With an impossible confidence bar, nothing is reachable and
        # the event is its own root cause.
        result = strict.trace(fib.event_id)
        assert result.root_causes == [graph.event(fib.event_id)]
