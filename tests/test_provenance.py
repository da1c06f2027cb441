"""Tests for provenance tracing — the Fig. 4 root-cause analysis."""

import pytest

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine
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
