"""Tests for distributed HBG construction and path expansion."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.distributed import (
    DistributedHbg,
    DistributionUnsupported,
    RouterSubgraph,
    boundary_kinds,
    supports_distribution,
)
from repro.hbr import distributed
from repro.hbr.inference import InferenceConfig, InferenceEngine
from repro.hbr.rules import EventPattern, HbrRule, different_router, peer_symmetric
from repro.net.addr import Prefix, parse_ip
from repro.repair.provenance import ProvenanceTracer
from repro.scenarios.fig2 import Fig2Scenario
from repro.scenarios.paper_net import P

PFX = Prefix(parse_ip("203.0.113.0"), 24)


def _event(router, kind, ts, peer=None, prefix=PFX, action=RouteAction.ANNOUNCE):
    return IOEvent.create(
        kind=kind,
        timestamp=ts,
        router=router,
        peer=peer,
        protocol="bgp",
        prefix=prefix,
        action=action,
    )


@pytest.fixture
def fig2_net(fast_delays):
    scenario = Fig2Scenario(seed=0, delays=fast_delays)
    net = scenario.run_fig2a()
    return net


class TestRouterSubgraph:
    def test_ingest_rejects_foreign_events(self, fig2_net):
        subgraph = RouterSubgraph("R1")
        foreign = fig2_net.collector.events_of("R2")[0]
        with pytest.raises(ValueError):
            subgraph.ingest(foreign)

    def test_build_links_local_chain(self, fig2_net):
        subgraph = RouterSubgraph("R1")
        for event in fig2_net.collector.events_of("R1"):
            subgraph.ingest(event)
        graph = subgraph.build()
        assert graph.edge_count() > 0
        # All edges are intra-R1.
        for edge in graph.edges():
            assert graph.event(edge.cause).router == "R1"
            assert graph.event(edge.effect).router == "R1"

    def test_build_all_records_cross_router_parents(self, fig2_net):
        """A subgraph keeps the cross-router in-edges build_all
        inferred for its events: local graph + remote_parents is
        exactly the merged graph's in-edges of this router."""
        dist = DistributedHbg()
        dist.ingest_all(fig2_net.collector.all_events())
        dist.build_all()
        merged = dist.merged_graph()
        r1 = dist.subgraphs["R1"]
        recv = [
            e
            for e in fig2_net.collector.events_of("R1")
            if e.kind is IOKind.ROUTE_RECEIVE and e.peer == "R2"
        ][0]
        (send_id,) = r1.remote_parents[recv.event_id]
        send = merged.event(send_id)
        assert (send.router, send.kind, send.peer, send.prefix) == (
            "R2", IOKind.ROUTE_SEND, "R1", recv.prefix
        )
        for event in r1.events():
            local = {p.event_id for p, _ in r1.graph.parents(event.event_id)}
            remote = set(r1.remote_parents.get(event.event_id, ()))
            assert all(merged.event(i).router != "R1" for i in remote)
            assert local | remote == {
                p.event_id for p, _ in merged.parents(event.event_id)
            }


class TestDistributedHbg:
    def _build(self, net):
        dist = DistributedHbg()
        dist.ingest_all(net.collector.all_events())
        dist.build_all()
        return dist

    def test_routers_discovered(self, fig2_net):
        dist = self._build(fig2_net)
        assert dist.routers() == ["R1", "R2", "R3"]

    def test_distributed_roots_match_central(self, fig2_net):
        """§5: distribution must not change the analysis outcome."""
        dist = self._build(fig2_net)
        # Find R1's RIB update that flipped it to its own uplink.
        config = fig2_net.collector.query(
            router="R2", kind=IOKind.CONFIG_CHANGE
        )[0]
        rib_r1 = [
            e
            for e in fig2_net.collector.query(
                router="R1", kind=IOKind.RIB_UPDATE, prefix=P
            )
            if e.timestamp > config.timestamp
        ]
        target = max(rib_r1, key=lambda e: e.timestamp)
        distributed_roots = dist.trace_root_causes(target.event_id)
        central_graph = InferenceEngine().build_graph(
            fig2_net.collector.all_events()
        )
        central_roots = ProvenanceTracer(central_graph).trace(
            target.event_id
        ).root_causes
        central_ids = {e.event_id for e in central_roots}
        distributed_ids = {e.event_id for e in distributed_roots}
        assert config.event_id in central_ids
        # Both walks read the same inferred edges.
        assert distributed_ids == central_ids

    def test_message_counter_increments(self, fig2_net):
        dist = self._build(fig2_net)
        config = fig2_net.collector.query(
            router="R2", kind=IOKind.CONFIG_CHANGE
        )[0]
        rib_r1 = [
            e
            for e in fig2_net.collector.query(
                router="R1", kind=IOKind.RIB_UPDATE, prefix=P
            )
            if e.timestamp > config.timestamp
        ]
        target = max(rib_r1, key=lambda e: e.timestamp)
        before = dist.messages_exchanged
        dist.trace_root_causes(target.event_id)
        assert dist.messages_exchanged > before

    def test_merged_graph_matches_central(self, fig2_net):
        dist = self._build(fig2_net)
        merged = dist.merged_graph()
        central = InferenceEngine().build_graph(fig2_net.collector.all_events())
        assert merged.edge_set() == central.edge_set()

    def test_unknown_event_raises(self, fig2_net):
        dist = self._build(fig2_net)
        with pytest.raises(KeyError):
            dist.trace_root_causes(10**9)

    def test_merged_graph_byte_identical_to_central(self, fig2_net):
        dist = self._build(fig2_net)
        central = InferenceEngine().build_graph(
            fig2_net.collector.all_events()
        )
        assert dist.merged_graph().to_records() == central.to_records()

    def test_forked_build_byte_identical(self, fig2_net):
        events = fig2_net.collector.all_events()
        serial = DistributedHbg()
        serial.ingest_all(events)
        serial.build_all()
        forked = DistributedHbg()
        forked.ingest_all(events)
        forked.build_all(workers=2)
        assert forked.merged_graph().to_records() == (
            serial.merged_graph().to_records()
        )
        assert forked.last_build.workers == 2

    def test_dead_worker_raises_and_keeps_the_last_build(
        self, fig2_net, monkeypatch
    ):
        """A forked worker that dies mid-build makes build_all raise
        (not hang, not merge a partial graph); the previous build's
        records and subgraphs stay as they were."""
        dist = self._build(fig2_net)
        records = dist._records
        before = {
            name: (sub.graph.to_records(), sub.remote_parents)
            for name, sub in dist.subgraphs.items()
        }
        infer_shard = distributed._infer_shard

        def dies_on_r1(subgraphs, routers):
            if "R1" in routers:
                os._exit(3)
            return infer_shard(subgraphs, routers)

        def hung(_signum, _frame):
            raise AssertionError("build_all hung on a dead worker")

        monkeypatch.setattr(distributed, "_infer_shard", dies_on_r1)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(BrokenProcessPool):
                dist.build_all(workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert dist._records is records
        assert {
            name: (sub.graph.to_records(), sub.remote_parents)
            for name, sub in dist.subgraphs.items()
        } == before

    def test_merged_graph_never_rebuilds_centrally(self, fig2_net, monkeypatch):
        """Regression for the prototype's dead-merge bug: the old
        merged_graph() built (and discarded) a merge, then quietly
        called the global build_graph over the full event list."""
        dist = DistributedHbg()
        dist.ingest_all(fig2_net.collector.all_events())

        def forbidden(self, events):
            raise AssertionError(
                "distributed path called the central build_graph"
            )

        monkeypatch.setattr(InferenceEngine, "build_graph", forbidden)
        dist.build_all()
        merged = dist.merged_graph()
        assert merged.edge_count() > 0

    def test_owner_map_lookup(self, fig2_net):
        dist = self._build(fig2_net)
        event = fig2_net.collector.events_of("R2")[0]
        before = dist.owner_lookups
        router, found = dist._find_event(event.event_id)
        assert router == "R2"
        assert found.event_id == event.event_id
        assert dist.owner_lookups == before + 1

    def test_build_stats_meter_boundary_traffic(self, fig2_net):
        dist = self._build(fig2_net)
        stats = dist.last_build
        assert stats.routers == 3
        assert stats.boundary_messages > 0
        assert stats.boundary_events > 0
        # The point of summaries: strictly cheaper than shipping every
        # event to a central collector.
        assert 0 < stats.boundary_bytes < stats.central_bytes

    def test_ingest_after_build_invalidates(self, fig2_net):
        dist = self._build(fig2_net)
        edges_before = dist.merged_graph().edge_count()
        extra_recv = _event(
            "R1", IOKind.ROUTE_RECEIVE, 10_000.0, peer="R2"
        )
        extra_send = _event(
            "R2", IOKind.ROUTE_SEND, 9_999.999, peer="R1"
        )
        dist.ingest(extra_send)
        dist.ingest(extra_recv)
        merged = dist.merged_graph()  # implicit rebuild
        assert extra_recv.event_id in merged
        assert (extra_send.event_id, extra_recv.event_id) in {
            (e.cause, e.effect) for e in merged.edges()
        }
        assert merged.edge_count() > edges_before


class TestDistributionSupport:
    def test_default_engine_supported(self):
        assert supports_distribution(InferenceEngine())

    @pytest.mark.parametrize(
        "make_engine",
        [
            # A neighbor's RIB updates never cross in a boundary summary.
            lambda: InferenceEngine(
                rules=[
                    HbrRule(
                        name="neighbor-rib",
                        antecedent=EventPattern(kinds=(IOKind.RIB_UPDATE,)),
                        consequent=EventPattern(kinds=(IOKind.ROUTE_RECEIVE,)),
                        relations=(peer_symmetric,),
                    )
                ]
            ),
            # "Some other router" pins no router: the global index.
            lambda: InferenceEngine(
                rules=[
                    HbrRule(
                        name="elsewhere",
                        antecedent=EventPattern(kinds=(IOKind.ROUTE_SEND,)),
                        consequent=EventPattern(kinds=(IOKind.RIB_UPDATE,)),
                        relations=(different_router,),
                    )
                ]
            ),
            lambda: InferenceEngine(
                rules=[
                    HbrRule(
                        name="anywhere",
                        antecedent=EventPattern(kinds=(IOKind.RIB_UPDATE,)),
                        consequent=EventPattern(kinds=(IOKind.RIB_UPDATE,)),
                    )
                ]
            ),
        ],
    )
    def test_global_scan_configs_refused(self, make_engine):
        engine = make_engine()
        assert not supports_distribution(engine)
        dist = DistributedHbg(engine)
        dist.ingest(_event("R1", IOKind.RIB_UPDATE, 1.0))
        with pytest.raises(DistributionUnsupported):
            dist.build_all()

    def test_default_boundary_kinds_are_sends_only(self):
        # No default rule has a receive antecedent across routers, so
        # summaries carry sends only — half the boundary traffic.
        assert boundary_kinds(InferenceEngine()) == (IOKind.ROUTE_SEND,)


class TestBoundaryExchange:
    def _pair(self):
        dist = DistributedHbg()
        dist.ingest(_event("R1", IOKind.ROUTE_SEND, 1.0, peer="R2"))
        dist.ingest(_event("R1", IOKind.ROUTE_SEND, 2.0, peer="R2"))
        dist.ingest(_event("R1", IOKind.ROUTE_RECEIVE, 1.5, peer="R2"))
        dist.ingest(_event("R2", IOKind.ROUTE_RECEIVE, 1.01, peer="R1"))
        return dist

    def test_summary_carries_sorted_send_keys(self):
        dist = self._pair()
        summary = dist.subgraphs["R1"].summary_for(
            "R2", boundary_kinds(dist.engine)
        )
        assert summary.origin == "R1"
        assert summary.neighbor == "R2"
        # Sends only (the receive stays home), in (ts, id) order.
        assert [e.timestamp for e in summary.events] == [1.0, 2.0]
        assert all(e.kind is IOKind.ROUTE_SEND for e in summary.events)
        assert summary.wire_bytes() > 0

    def test_exchange_stats(self):
        dist = self._pair()
        stats = dist.exchange_summaries()
        # R1→R2 carries two sends; R2 has no sends, so nothing flows
        # back (empty summaries stay home).
        assert stats.messages == 1
        assert stats.events == 2
        assert stats.bytes > 0

    def test_exchange_is_idempotent(self):
        dist = self._pair()
        dist.exchange_summaries()
        dist.exchange_summaries()
        dist.build_all()
        merged = dist.merged_graph()
        central = InferenceEngine().build_graph(
            [e for sg in dist.subgraphs.values() for e in sg.events()]
        )
        assert merged.to_records() == central.to_records()


class TestClockSkewEdges:
    """Boundary matching at the edges of clock_skew_tolerance."""

    SKEW = InferenceConfig().clock_skew_tolerance  # 0.050

    def _dist(self, send_ts, recv_ts):
        dist = DistributedHbg()
        send = _event("R2", IOKind.ROUTE_SEND, send_ts, peer="R1")
        recv = _event("R1", IOKind.ROUTE_RECEIVE, recv_ts, peer="R2")
        dist.ingest(send)
        dist.ingest(recv)
        return dist, send, recv

    def _edge_pairs(self, dist):
        dist.build_all()
        return {(e.cause, e.effect) for e in dist.merged_graph().edges()}

    def test_send_just_inside_tolerance_links(self):
        # Skewed clocks: the send is stamped *after* the receive but
        # within tolerance — still a valid cross-router edge.
        dist, send, recv = self._dist(10.0 + self.SKEW, 10.0)
        assert (send.event_id, recv.event_id) in self._edge_pairs(dist)

    def test_send_just_outside_tolerance_does_not_link(self):
        dist, send, recv = self._dist(10.0 + self.SKEW + 1e-6, 10.0)
        assert (send.event_id, recv.event_id) not in self._edge_pairs(dist)

    def test_skew_edges_match_central_build(self):
        for offset in (-1e-6, 0.0, 1e-6):
            dist, _send, _recv = self._dist(10.0 + self.SKEW + offset, 10.0)
            events = [
                e for sg in dist.subgraphs.values() for e in sg.events()
            ]
            dist.build_all()
            central = InferenceEngine().build_graph(events)
            assert dist.merged_graph().to_records() == central.to_records()

    def test_trace_crosses_within_tolerance_only(self):
        dist, send, recv = self._dist(10.0 + self.SKEW, 10.0)
        assert dist.trace_root_causes(recv.event_id) == [send]
        assert dist.messages_exchanged == 1
        dist2, _send2, recv2 = self._dist(10.0 + self.SKEW + 1e-6, 10.0)
        assert dist2.trace_root_causes(recv2.event_id) == [recv2]
        assert dist2.messages_exchanged == 0

    def test_trace_follows_the_inferred_send(self):
        dist = DistributedHbg()
        early = _event("R2", IOKind.ROUTE_SEND, 9.0, peer="R1")
        late = _event("R2", IOKind.ROUTE_SEND, 9.9, peer="R1")
        over = _event("R2", IOKind.ROUTE_SEND, 10.1, peer="R1")
        recv = _event("R1", IOKind.ROUTE_RECEIVE, 10.0, peer="R2")
        dist.ingest_all([early, late, over, recv])
        assert dist.trace_root_causes(recv.event_id) == [late]

    def test_trace_crosses_only_where_the_rules_inferred_an_edge(self):
        """The partial-path walk reads the recorded edges, it does not
        re-match sends: a send outside the rule window, or one whose
        action differs, is not a cause (the deleted find_matching_send
        took both, so rollback could have reverted an unrelated change)."""
        engine = InferenceEngine()
        for send_ts, action in ((5.0, RouteAction.ANNOUNCE), (9.9, RouteAction.WITHDRAW)):
            dist = DistributedHbg()
            send = _event("R2", IOKind.ROUTE_SEND, send_ts, peer="R1", action=action)
            recv = _event("R1", IOKind.ROUTE_RECEIVE, 10.0, peer="R2")
            dist.ingest_all([send, recv])
            central = engine.build_graph([send, recv])
            assert central.root_causes(recv.event_id) == [recv]
            assert dist.trace_root_causes(recv.event_id) == [recv]
