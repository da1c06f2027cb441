"""Tests for the EIGRP-style distance-vector protocol and the §4.1
FIB-before-send ordering contrast with BGP."""

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine, score_inference
from repro.net.addr import Prefix
from repro.net.config import ConfigChange, RouterConfig
from repro.net.simulator import DelayModel
from repro.net.topology import line_topology
from repro.protocols.dvp import INFINITY, DistanceVectorProcess
from repro.protocols.network import Network

DP = Prefix.parse("172.16.0.0/16")


class TestProcess:
    def test_originate(self):
        proc = DistanceVectorProcess("R0")
        route = proc.originate(DP)
        assert route is not None and route.metric == 0
        assert proc.originate(DP) is None  # idempotent

    def test_receive_better(self):
        proc = DistanceVectorProcess("R0")
        assert proc.receive("R1", DP, 2) is not None
        assert proc.get(DP).metric == 3
        assert proc.receive("R2", DP, 1) is not None
        assert proc.get(DP).via_router == "R2"

    def test_receive_worse_ignored(self):
        proc = DistanceVectorProcess("R0")
        proc.receive("R1", DP, 1)
        assert proc.receive("R2", DP, 5) is None
        assert proc.get(DP).via_router == "R1"

    def test_successor_update_always_applies(self):
        proc = DistanceVectorProcess("R0")
        proc.receive("R1", DP, 1)
        worse = proc.receive("R1", DP, 7)
        assert worse is not None and worse.metric == 8

    def test_poison_from_successor(self):
        proc = DistanceVectorProcess("R0")
        proc.receive("R1", DP, 1)
        poisoned = proc.receive("R1", DP, INFINITY)
        assert poisoned is not None and not poisoned.reachable

    def test_infinite_offer_for_unknown_ignored(self):
        proc = DistanceVectorProcess("R0")
        assert proc.receive("R1", DP, INFINITY) is None

    def test_split_horizon_poisoned_reverse(self):
        proc = DistanceVectorProcess("R0")
        proc.receive("R1", DP, 1)
        assert proc.advertised_metric(DP, "R1") == INFINITY
        assert proc.advertised_metric(DP, "R2") == 2

    def test_neighbor_lost_poisons(self):
        proc = DistanceVectorProcess("R0")
        proc.receive("R1", DP, 1)
        poisoned = proc.neighbor_lost("R1")
        assert len(poisoned) == 1 and not poisoned[0].reachable

    def test_withdraw_origin(self):
        proc = DistanceVectorProcess("R0")
        proc.originate(DP)
        withdrawn = proc.withdraw_origin(DP)
        assert withdrawn is not None and not withdrawn.reachable


def _dv_network(n=3, seed=0):
    topo = line_topology(n)
    configs = []
    for i in range(n):
        config = RouterConfig(router=f"R{i}", asn=65000, dv_enabled=True)
        if i == 0:
            config.dv_originated.append(DP)
        configs.append(config)
    delays = DelayModel(
        fib_install=0.001,
        rib_update=0.0005,
        advertisement=0.001,
        config_to_reconfig=0.05,
        spf_compute=0.001,
    )
    net = Network(topo, configs, seed=seed, delays=delays)
    net.start()
    return net


class TestInNetwork:
    def test_propagates_along_line(self):
        net = _dv_network(4)
        net.run(5)
        for i in range(1, 4):
            entry = net.runtime(f"R{i}").fib.get(DP)
            assert entry is not None
            assert entry.protocol == "eigrp"
            assert entry.next_hop_router == f"R{i - 1}"

    def test_origin_has_local_entry(self):
        net = _dv_network(3)
        net.run(5)
        entry = net.runtime("R0").fib.get(DP)
        assert entry is not None and entry.next_hop_router is None

    def test_traffic_delivered(self):
        net = _dv_network(4)
        net.run(5)
        path, outcome = net.trace_path("R3", DP.first_address())
        assert outcome == "delivered"
        assert path == ["R3", "R2", "R1", "R0"]

    def test_fib_install_precedes_send(self):
        """The §4.1 EIGRP ordering, end to end and per router."""
        net = _dv_network(4)
        net.run(5)
        for i in range(1, 3):
            router = f"R{i}"
            fibs = net.collector.query(
                router=router, kind=IOKind.FIB_UPDATE, prefix=DP
            )
            sends = net.collector.query(
                router=router, kind=IOKind.ROUTE_SEND, prefix=DP,
                protocol="eigrp",
            )
            assert fibs and sends
            assert min(f.timestamp for f in fibs) <= min(
                s.timestamp for s in sends
            )

    def test_link_failure_poisons_downstream(self):
        net = _dv_network(4)
        net.run(5)
        net.fail_link("R1", "R2")
        net.run(5)
        assert net.runtime("R3").fib.get(DP) is None
        assert net.runtime("R0").fib.get(DP) is not None

    def test_dynamic_origination_via_config(self):
        net = _dv_network(3)
        net.run(5)
        other = Prefix.parse("172.17.0.0/16")
        change = ConfigChange(
            "R0", "set_dv_originated", value=[DP, other],
            description="originate another prefix",
        )
        net.apply_config_change(change)
        net.run(5)
        assert net.runtime("R2").fib.get(other) is not None

    def test_origin_withdrawal_propagates(self):
        net = _dv_network(3)
        net.run(5)
        change = ConfigChange(
            "R0", "set_dv_originated", value=[], description="stop originating"
        )
        net.apply_config_change(change)
        net.run(5)
        assert net.runtime("R2").fib.get(DP) is None


class TestInference:
    def test_protocol_specific_orderings_recovered(self):
        """From one capture, the engine links BGP sends to RIB events
        and EIGRP sends to FIB events — the paper's §4.1 contrast."""
        net = _dv_network(4)
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        eigrp_sends = [
            e
            for e in net.collector.query(kind=IOKind.ROUTE_SEND, protocol="eigrp")
            if e.router != "R0"  # transit routers have both FIB and RIB
        ]
        assert eigrp_sends
        fib_parent_found = False
        for send in eigrp_sends:
            for parent, evidence in graph.parents(send.event_id):
                if (
                    parent.kind is IOKind.FIB_UPDATE
                    and evidence.rule == "eigrp-fib-before-send"
                ):
                    fib_parent_found = True
        assert fib_parent_found

    def test_inference_scores_well_on_dv(self):
        net = _dv_network(5)
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        observable = {e.event_id for e in net.collector}
        score = score_inference(
            graph, net.ground_truth, observable_ids=observable
        )
        assert score.recall >= 0.9
        assert score.precision >= 0.7

    def test_ground_truth_has_fib_to_send_edges(self):
        net = _dv_network(3)
        net.run(5)
        truth = net.ground_truth.edge_set()
        fib_ids = {
            e.event_id
            for e in net.collector.query(kind=IOKind.FIB_UPDATE, prefix=DP)
        }
        send_ids = {
            e.event_id
            for e in net.collector.query(
                kind=IOKind.ROUTE_SEND, protocol="eigrp"
            )
        }
        assert any(c in fib_ids and f in send_ids for c, f in truth)
