"""End-to-end OSPF scenarios: cost changes, multihop iBGP, provenance."""

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix, parse_ip
from repro.net.config import (
    BgpNeighborConfig,
    ConfigChange,
    OspfInterfaceConfig,
    RouterConfig,
)
from repro.net.simulator import DelayModel
from repro.net.topology import Router, Topology
from repro.protocols.network import Network
from repro.repair.provenance import ProvenanceTracer

XP = Prefix.parse("203.0.113.0/24")


def _delays():
    return DelayModel(
        fib_install=0.001,
        rib_update=0.0005,
        advertisement=0.001,
        config_to_reconfig=0.05,
        spf_compute=0.001,
    )


def _diamond_network(seed=0):
    """A diamond: S - (A | B) - D, with an external peer at D.

    S reaches D via A (cost 10+10) or via B (cost 10+10); we nudge
    costs to steer.  iBGP full mesh over the OSPF underlay (the S<->D
    session is multihop), next_hop_self on D — transit routers carry
    the BGP route too, as a real non-MPLS core must.
    """
    topo = Topology("diamond")
    for index, name in enumerate(("S", "A", "B", "D")):
        topo.add_router(
            Router(name, asn=65000, loopback=parse_ip("192.168.0.1") + index)
        )
    topo.add_router(
        Router("Ext", asn=65009, loopback=parse_ip("192.168.9.9"), external=True)
    )
    links = [
        ("S", "A", "10.242.0.0/30"),
        ("S", "B", "10.242.0.4/30"),
        ("A", "D", "10.242.0.8/30"),
        ("B", "D", "10.242.0.12/30"),
        ("D", "Ext", "10.242.0.16/30"),
    ]
    for a, b, subnet in links:
        topo.connect(a, b, Prefix.parse(subnet))

    configs = {}
    for name in ("S", "A", "B", "D"):
        config = RouterConfig(
            router=name, asn=65000, router_id=ord(name[0])
        )
        router = topo.router(name)
        for iface_name in router.interfaces:
            link = next(
                l
                for l in topo.links_of(name)
                if l.interface_of(name).name == iface_name
            )
            if link.other_end(name).router == "Ext":
                continue
            config.ospf_interfaces[iface_name] = OspfInterfaceConfig(
                iface_name, cost=10
            )
        configs[name] = config
    internal = ("S", "A", "B", "D")
    for name in internal:
        for peer in internal:
            if peer == name:
                continue
            configs[name].add_bgp_neighbor(
                BgpNeighborConfig(
                    peer=peer,
                    remote_asn=65000,
                    next_hop_self=(name == "D"),
                )
            )
    configs["D"].add_bgp_neighbor(
        BgpNeighborConfig(peer="Ext", remote_asn=65009)
    )
    ext = RouterConfig(router="Ext", asn=65009, router_id=99)
    ext.add_bgp_neighbor(BgpNeighborConfig(peer="D", remote_asn=65000))
    net = Network(
        topo, list(configs.values()) + [ext], seed=seed, delays=_delays()
    )
    net.start()
    net.announce_prefix("Ext", XP)
    net.run(10)
    return net


class TestMultihopIbgp:
    def test_session_over_ospf_underlay(self):
        net = _diamond_network()
        best = net.runtime("S").bgp.rib.best(XP)
        assert best is not None
        assert best.from_peer == "D"

    def test_fib_resolves_via_igp(self):
        net = _diamond_network()
        entry = net.runtime("S").fib.get(XP)
        assert entry is not None
        assert entry.next_hop_router in ("A", "B")

    def test_end_to_end_delivery(self):
        net = _diamond_network()
        path, outcome = net.trace_path("S", XP.first_address())
        assert outcome == "delivered"
        assert path[0] == "S" and path[-1] == "Ext"
        assert len(path) == 4  # S -> (A|B) -> D -> Ext


class TestOspfCostReroute:
    def test_cost_change_shifts_traffic(self):
        net = _diamond_network()
        entry_before = net.runtime("S").fib.get(XP)
        via_before = entry_before.next_hop_router
        other = "B" if via_before == "A" else "A"
        # Penalise the current path's first link heavily.
        iface = net.topology.link_between("S", via_before).interface_of("S")
        change = ConfigChange(
            "S",
            "set_ospf_cost",
            key=iface.name,
            value=100,
            description=f"penalise link to {via_before}",
        )
        net.apply_config_change(change)
        net.run(10)
        entry_after = net.runtime("S").fib.get(XP)
        assert entry_after.next_hop_router == other

    def test_reroute_is_traced_to_cost_change(self):
        net = _diamond_network()
        via_before = net.runtime("S").fib.get(XP).next_hop_router
        iface = net.topology.link_between("S", via_before).interface_of("S")
        change = ConfigChange(
            "S",
            "set_ospf_cost",
            key=iface.name,
            value=100,
            description="penalise link",
        )
        t_change = net.sim.now
        net.apply_config_change(change)
        net.run(10)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        fibs = [
            e
            for e in net.collector.query(
                router="S", kind=IOKind.FIB_UPDATE, prefix=XP
            )
            if e.timestamp > t_change
        ]
        assert fibs
        result = ProvenanceTracer(graph).trace(
            max(fibs, key=lambda e: e.timestamp).event_id
        )
        config_events = [
            e
            for e in result.root_causes
            if e.kind is IOKind.CONFIG_CHANGE and e.router == "S"
        ]
        assert config_events
        assert change.change_id in result.config_change_ids()

    def test_cost_change_revertible(self):
        net = _diamond_network()
        via_before = net.runtime("S").fib.get(XP).next_hop_router
        iface = net.topology.link_between("S", via_before).interface_of("S")
        change = ConfigChange(
            "S", "set_ospf_cost", key=iface.name, value=100
        )
        net.apply_config_change(change)
        net.run(10)
        net.apply_config_change(change.inverted())
        net.run(10)
        assert net.runtime("S").fib.get(XP).next_hop_router == via_before


class TestPathFailover:
    def test_losing_active_path_fails_over(self):
        net = _diamond_network()
        via = net.runtime("S").fib.get(XP).next_hop_router
        other = "B" if via == "A" else "A"
        net.fail_link("S", via)
        net.run(10)
        entry = net.runtime("S").fib.get(XP)
        assert entry is not None and entry.next_hop_router == other
        path, outcome = net.trace_path("S", XP.first_address())
        assert outcome == "delivered"

    def test_losing_both_paths_kills_session_state(self):
        net = _diamond_network()
        net.fail_link("S", "A")
        net.fail_link("S", "B")
        net.run(10)
        # S is partitioned from D: the iBGP session drops and the
        # route disappears.
        assert net.runtime("S").fib.get(XP) is None
