"""Tests for the network runtime: delivery, fabric, operator verbs."""

import pytest

from repro.net.config import RouterConfig
from repro.net.topology import paper_topology
from repro.protocols.network import Network, NetworkError
from repro.scenarios.paper_net import P, build_paper_network


class TestConstruction:
    def test_missing_config_rejected(self):
        topo = paper_topology()
        with pytest.raises(NetworkError):
            Network(topo, [RouterConfig(router="R1")])

    def test_unknown_router_runtime(self, paper_network):
        with pytest.raises(NetworkError):
            paper_network.runtime("R9")


class TestFabric:
    def test_direct_path_delay_is_link_delay(self, paper_network):
        link = paper_network.topology.link_between("R1", "R2")
        assert paper_network._path_delay("R1", "R2") == pytest.approx(link.delay)

    def test_multihop_delay_sums(self):
        from repro.net.topology import line_topology

        topo = line_topology(3, delay=0.01)
        configs = [RouterConfig(router=f"R{i}") for i in range(3)]
        net = Network(topo, configs)
        assert net._path_delay("R0", "R2") == pytest.approx(0.02)

    def test_no_path_returns_none(self, paper_network):
        paper_network.topology.link_between("R1", "Ext1").up = False
        assert paper_network._path_delay("R3", "Ext1") is None

    def test_path_exists(self, paper_network):
        assert paper_network.path_exists("R1", "R3")

    def test_messages_dropped_without_path(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.announce_prefix("Ext2", P)
        net.run(2)
        # Cut R2 off entirely, then force it to advertise.
        net.fail_link("R2", "R1")
        net.fail_link("R2", "R3")
        net.fail_link("R2", "Ext2")
        before = net.dropped_messages
        net.run(5)
        # Withdrawals toward unreachable peers are dropped, not crashed.
        assert net.dropped_messages >= before


class TestOperatorVerbs:
    def test_announce_at_future_time(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.announce_prefix("Ext1", P, at=3.0)
        net.run(1)
        assert net.runtime("R1").fib.get(P) is None
        net.run(5)
        assert net.runtime("R1").fib.get(P) is not None

    def test_converge_returns_duration(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.announce_prefix("Ext1", P)
        duration = net.converge()
        assert duration >= 0
        assert net.sim.pending() == 0

    def test_set_link_status_idempotent(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.converge()
        net.fail_link("R1", "R2")
        events_after_first = len(net.collector)
        net.fail_link("R1", "R2")  # already down: no-op
        net.run(1)
        hw = [e for e in net.collector.all_events()[events_after_first:]]
        assert not hw

    def test_unknown_link_rejected(self, paper_network):
        with pytest.raises(NetworkError):
            paper_network.fail_link("R1", "Ext2")


class TestForwardingState:
    def test_forwarding_state_shape(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.announce_prefix("Ext1", P)
        net.converge()
        state = net.forwarding_state()
        assert P in state["R1"]
        assert state["R1"][P].next_hop_router == "Ext1"

    def test_trace_path_delivered(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.announce_prefix("Ext1", P)
        net.converge()
        path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "delivered"
        assert path == ["R3", "R1", "Ext1"]

    def test_trace_path_blackhole_without_route(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.converge()
        _path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "blackhole"

    def test_describe_contains_routers(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        text = net.describe()
        for router in ("R1", "R2", "R3"):
            assert router in text


class TestGuards:
    def test_guard_applies_to_internal_only(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.set_fib_guard(lambda router, old, new: False)
        assert net.runtime("R1").fib.install_guard is not None
        assert net.runtime("Ext1").fib.install_guard is None

    def test_guard_cleared(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.start()
        net.set_fib_guard(lambda router, old, new: False)
        net.set_fib_guard(None)
        assert net.runtime("R1").fib.install_guard is None
