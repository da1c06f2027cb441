"""Tests for route redistribution into BGP (§4.1's cross-protocol HBRs)."""

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.net.config import (
    BgpNeighborConfig,
    RedistributionConfig,
    RouteMap,
    RouteMapClause,
    RouterConfig,
)
from repro.net.simulator import DelayModel
from repro.net.topology import Router, line_topology
from repro.protocols.network import Network

DP = Prefix.parse("172.16.0.0/16")
OTHER = Prefix.parse("172.17.0.0/16")


def _delays():
    return DelayModel(
        fib_install=0.001,
        rib_update=0.0005,
        advertisement=0.001,
        config_to_reconfig=0.05,
        spf_compute=0.001,
    )


def _redistribution_network(route_map=None, seed=0):
    """R0 -(DV)- R1 -(eBGP)- ExtPeer.

    R0 originates DP into the DV protocol; R1 redistributes eigrp
    routes into BGP and advertises to the external peer.
    """
    topo = line_topology(2)
    topo.add_router(Router("ExtPeer", asn=65009, loopback=0, external=True))
    topo.connect("R1", "ExtPeer", Prefix.parse("10.251.0.0/30"))

    r0 = RouterConfig(router="R0", asn=65000, dv_enabled=True)
    r0.dv_originated.extend([DP, OTHER])
    r1 = RouterConfig(router="R1", asn=65000, router_id=1, dv_enabled=True)
    r1.add_bgp_neighbor(BgpNeighborConfig(peer="ExtPeer", remote_asn=65009))
    if route_map is not None:
        r1.add_route_map(route_map)
    r1.redistributions.append(
        RedistributionConfig(
            source="eigrp",
            target="bgp",
            route_map=route_map.name if route_map else None,
        )
    )
    ext = RouterConfig(router="ExtPeer", asn=65009, router_id=9)
    ext.add_bgp_neighbor(BgpNeighborConfig(peer="R1", remote_asn=65000))

    net = Network(topo, [r0, r1, ext], seed=seed, delays=_delays())
    net.start()
    return net


class TestEigrpIntoBgp:
    def test_redistributed_route_advertised_externally(self):
        net = _redistribution_network()
        net.run(5)
        ext_best = net.runtime("ExtPeer").bgp.rib.best(DP)
        assert ext_best is not None
        assert ext_best.as_path == (65000,)

    def test_redistributed_origin_incomplete(self):
        from repro.protocols.routes import Origin

        net = _redistribution_network()
        net.run(5)
        best = net.runtime("R1").bgp.rib.best(DP)
        assert best is not None
        assert best.origin is Origin.INCOMPLETE
        assert best.locally_originated

    def test_withdrawal_propagates_through_redistribution(self):
        net = _redistribution_network()
        net.run(5)
        assert net.runtime("ExtPeer").bgp.rib.best(DP) is not None
        net.fail_link("R0", "R1")
        net.run(5)
        assert net.runtime("ExtPeer").bgp.rib.best(DP) is None

    def test_route_map_filters_redistribution(self):
        selective = RouteMap(
            "only-dp", (RouteMapClause(match_prefix=DP, match_exact=True),)
        )
        net = _redistribution_network(route_map=selective)
        net.run(5)
        ext = net.runtime("ExtPeer").bgp.rib
        assert ext.best(DP) is not None
        assert ext.best(OTHER) is None

    def test_fib_uses_igp_not_bgp_at_redistributor(self):
        """Admin distance: the DV route (90) wins over the
        redistributed BGP self-route at R1."""
        net = _redistribution_network()
        net.run(5)
        entry = net.runtime("R1").fib.get(DP)
        assert entry is not None and entry.protocol == "eigrp"


class TestCrossProtocolHbr:
    def test_ground_truth_chain_crosses_protocols(self):
        net = _redistribution_network()
        net.run(5)
        # ExtPeer is external (unobservable); check R1's BGP RIB event
        # traces back to R1's eigrp RIB event.
        bgp_rib = net.collector.query(
            router="R1", kind=IOKind.RIB_UPDATE, protocol="bgp", prefix=DP
        )
        assert bgp_rib
        causes = net.ground_truth.transitive_causes(bgp_rib[0].event_id)
        cause_events = [
            net.collector.get(i) for i in causes if net.collector.has(i)
        ]
        assert any(
            e.protocol == "eigrp" and e.kind is IOKind.RIB_UPDATE
            for e in cause_events
        )

    def test_inference_recovers_redistribution_edge(self):
        net = _redistribution_network()
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        bgp_rib = net.collector.query(
            router="R1", kind=IOKind.RIB_UPDATE, protocol="bgp", prefix=DP
        )[0]
        parents = graph.parents(bgp_rib.event_id)
        assert any(
            parent.protocol == "eigrp"
            and parent.kind is IOKind.RIB_UPDATE
            and evidence.rule == "redistribute-rib-to-rib"
            for parent, evidence in parents
        )

    def test_provenance_of_external_leak_reaches_igp(self):
        """Root-causing a BGP advertisement leads back through the
        redistribution boundary into the IGP event chain."""
        from repro.repair.provenance import ProvenanceTracer

        net = _redistribution_network()
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        send = net.collector.query(
            router="R1",
            kind=IOKind.ROUTE_SEND,
            protocol="bgp",
            prefix=DP,
            peer="ExtPeer",
        )[0]
        result = ProvenanceTracer(graph).trace(send.event_id)
        ancestor_protocols = {
            graph.event(i).protocol for i in result.ancestry
        }
        assert "eigrp" in ancestor_protocols
