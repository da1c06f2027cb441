"""Tests for root-cause rollback and the blocking baseline."""

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine
from repro.repair.blocking import BlockingRepair
from repro.repair.provenance import ProvenanceTracer
from repro.repair.rollback import RepairEngine
from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
from repro.scenarios.paper_net import P, paper_policy
from repro.verify.verifier import DataPlaneVerifier


def _broken_fig2(fast_delays, seed=0):
    scenario = Fig2Scenario(seed=seed, delays=fast_delays)
    net = scenario.run_fig2a()
    return scenario, net


def _provenance_of_violation(net):
    graph = InferenceEngine().build_graph(net.collector.all_events())
    config = net.collector.query(router="R2", kind=IOKind.CONFIG_CHANGE)[0]
    fibs = [
        e
        for e in net.collector.query(kind=IOKind.FIB_UPDATE, prefix=P)
        if e.timestamp > config.timestamp
    ]
    tracer = ProvenanceTracer(graph)
    return tracer.trace_many([e.event_id for e in fibs])


class TestRollback:
    def test_fig2_violation_repaired(self, fast_delays):
        scenario, net = _broken_fig2(fast_delays)
        assert scenario.violates_policy()
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        engine = RepairEngine(net, verifier)
        report = engine.repair(_provenance_of_violation(net), settle=30.0)
        assert report.repaired
        assert not scenario.violates_policy()
        # Traffic exits via R2 again.
        path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "delivered" and path[-1] == "Ext2"

    def test_repair_reverts_exact_change(self, fast_delays):
        scenario, net = _broken_fig2(fast_delays)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        report = RepairEngine(net, verifier).repair(
            _provenance_of_violation(net), settle=30.0
        )
        reverted = [a.change_reverted for a in report.actions if a.succeeded]
        assert scenario.change in reverted
        # Config store reflects the revert: LP is back to 30.
        current = net.configs.get("R2").route_maps["r2-uplink-lp"]
        assert current.clauses[0].set_local_pref == 30

    def test_control_and_data_plane_in_sync_after_repair(self, fast_delays):
        """The paper's key advantage over blocking: after root-cause
        revert, the control plane's beliefs match the FIBs."""
        scenario, net = _broken_fig2(fast_delays)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        RepairEngine(net, verifier).repair(
            _provenance_of_violation(net), settle=30.0
        )
        for router in ("R1", "R2", "R3"):
            runtime = net.runtime(router)
            best = runtime.bgp.rib.best(P)
            fib = runtime.fib.get(P)
            assert best is not None and fib is not None
            resolved = runtime.resolve_next_hop(best.next_hop)
            assert resolved is not None
            assert fib.next_hop_router == resolved[0]

    def test_post_repair_survives_uplink_failure(self, fast_delays):
        """After rollback, the Fig. 2b follow-on failure is handled
        correctly (traffic fails over to R1 instead of black-holing)."""
        scenario, net = _broken_fig2(fast_delays)
        # Put a route on R1's uplink too so failover has a target.
        net.announce_prefix("Ext1", P)
        net.run(5)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        RepairEngine(net, verifier).repair(
            _provenance_of_violation(net), settle=30.0
        )
        net.fail_link("R2", "Ext2")
        net.run(10)
        path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "delivered" and path[-1] == "Ext1"

    def test_hardware_cause_reported_unrepairable(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.fig1.run_fig1b()
        net.fail_link("R2", "Ext2")
        net.run(5)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        hw = net.collector.query(router="R2", kind=IOKind.HARDWARE_STATUS)[0]
        from repro.capture.io_events import RouteAction

        withdraw = net.collector.query(
            router="R3", kind=IOKind.FIB_UPDATE, action=RouteAction.WITHDRAW
        )[0]
        provenance = ProvenanceTracer(graph).trace(withdraw.event_id)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        report = RepairEngine(net, verifier).repair(provenance, settle=5.0)
        assert not report.repaired
        assert any(
            e.kind is IOKind.HARDWARE_STATUS for e in report.unrepairable
        )

    def test_change_missing_from_the_store_is_reported(self, fast_delays):
        from repro.capture.io_events import IOEvent
        from repro.repair.provenance import ProvenanceResult

        scenario, net = _broken_fig2(fast_delays)
        cause = IOEvent.create(
            "R2", IOKind.CONFIG_CHANGE, 1.0, attrs={"change_id": 10**9}
        )
        target = net.collector.query(kind=IOKind.FIB_UPDATE, prefix=P)[-1]
        provenance = ProvenanceResult(
            target=target,
            root_causes=[cause],
            chains={cause.event_id: [cause, target]},
            ancestry={cause.event_id},
            min_confidence=0.0,
        )
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        report = RepairEngine(net, verifier).repair(provenance, settle=0)
        assert [(a.succeeded, a.note) for a in report.actions] == [
            (False, f"change #{10**9} not in config store")
        ]

    def test_report_describe(self, fast_delays):
        scenario, net = _broken_fig2(fast_delays)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        report = RepairEngine(net, verifier).repair(
            _provenance_of_violation(net), settle=30.0
        )
        text = report.describe()
        assert "repair report" in text and "ok" in text


class TestBlockingBaseline:
    def test_blocking_freezes_fibs(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        before = {
            r: net.runtime(r).fib.get(P).next_hop_router
            for r in ("R1", "R2", "R3")
        }
        blocker = BlockingRepair(net, prefixes={P})
        blocker.activate()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        after = {
            r: net.runtime(r).fib.get(P).next_hop_router
            for r in ("R1", "R2", "R3")
        }
        assert before == after
        assert blocker.blocked

    def test_blocking_causes_divergence(self, fast_delays):
        """§2: blocking 'creates an inconsistency between the data and
        control planes'."""
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        blocker = BlockingRepair(net, prefixes={P})
        blocker.activate()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        divergence = blocker.divergence()
        assert divergence
        routers = {d[0] for d in divergence}
        assert "R1" in routers  # R1 believes Ext1, FIB says R2

    def test_fig2b_blackhole_reproduced(self, fast_delays):
        """The paper's §2 disaster: frozen FIBs + uplink failure =
        black hole at R2."""
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        blocker = BlockingRepair(net, prefixes={P})
        blocker.activate()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        net.fail_link("R2", "Ext2")
        net.run(10)
        for source in ("R1", "R3"):
            path, outcome = net.trace_path(source, P.first_address())
            assert outcome == "blackhole"
            assert path[-1] == "R2"

    def test_rollback_avoids_fig2b_blackhole(self, fast_delays):
        """Same follow-on failure, but with root-cause rollback instead
        of blocking: traffic is correctly withdrawn, no black hole."""
        scenario, net = _broken_fig2(fast_delays)
        verifier = DataPlaneVerifier(net.topology, [paper_policy()])
        RepairEngine(net, verifier).repair(
            _provenance_of_violation(net), settle=30.0
        )
        net.fail_link("R2", "Ext2")
        net.run(10)
        # The Fig. 2 baseline has P on both uplinks (Fig. 1's story),
        # so after the rollback the withdrawal propagates cleanly and
        # traffic fails over to R1's uplink — the exact scenario that
        # black-holes under blocking (test above) works here.
        for source in ("R1", "R3"):
            path, outcome = net.trace_path(source, P.first_address())
            assert outcome == "delivered"
            assert path[-1] == "Ext1"

    def test_deactivate_unfreezes(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        blocker = BlockingRepair(net, prefixes={P})
        blocker.activate()
        assert blocker.active
        blocker.deactivate()
        assert not blocker.active
        assert net.runtime("R1").fib.install_guard is None

    def test_unrelated_prefixes_unblocked(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        blocker = BlockingRepair(net, prefixes={P})
        blocker.activate()
        other = P.supernet()
        net.announce_prefix("Ext1", other)
        net.run(5)
        assert net.runtime("R3").fib.get(other) is not None
