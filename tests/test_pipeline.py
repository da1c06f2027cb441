"""Tests for the integrated Fig. 3 pipeline."""

from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.net.config import ConfigChange, local_pref_map
from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
from repro.scenarios.paper_net import P, paper_policy
from repro.verify.policy import LoopFreedomPolicy


def _armed_fig2(fast_delays, mode, seed=0):
    scenario = Fig2Scenario(seed=seed, delays=fast_delays)
    net = scenario.run_baseline()
    pipeline = IntegratedControlPlane(
        net, [paper_policy(), LoopFreedomPolicy(prefixes=[P])], mode=mode
    ).arm()
    return scenario, net, pipeline


class TestRepairMode:
    def test_bad_update_blocked_and_repaired(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert pipeline.incidents
        assert pipeline.updates_blocked >= 1
        # The root cause was reverted...
        lp = net.configs.get("R2").route_maps["r2-uplink-lp"]
        assert lp.clauses[0].set_local_pref == 30
        # ...and the data plane never left the compliant state.
        assert not scenario.violates_policy()

    def test_data_plane_never_violates_during_episode(self, fast_delays):
        """The headline: with the guard armed, the policy holds at
        every instant, not just at convergence."""
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        net.apply_config_change(bad_lp_change())
        # Step the simulation and check the live data plane throughout.
        for _ in range(100):
            net.run(0.4)
            assert not scenario.violates_policy()

    def test_incident_carries_provenance(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        change = bad_lp_change()
        net.apply_config_change(change)
        net.run(30)
        incident = pipeline.incidents[0]
        assert incident.provenance is not None
        assert change.change_id in incident.provenance.config_change_ids()
        assert incident.repair is not None
        assert any(a.succeeded for a in incident.repair.actions)

    def test_root_cause_reverted_once(self, fast_delays):
        """Several routers' updates stem from one change; it must be
        reverted exactly once."""
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        net.apply_config_change(bad_lp_change())
        net.run(60)
        reverts = [
            change
            for change in net.configs.changes("R2")
            if change.description.startswith("revert")
        ]
        assert len(reverts) == 1

    def test_benign_edit_to_repaired_route_map_kept(self, fast_delays):
        """A policy-preserving edit to the route-map just repaired
        causes no violating FIB write, so nothing reverts it."""
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        net.apply_config_change(
            ConfigChange(
                "R2",
                "set_route_map",
                key="r2-uplink-lp",
                value=local_pref_map("r2-uplink-lp", 40),
                description="raise LP slightly",
            )
        )
        net.run(30)
        lp = net.configs.get("R2").route_maps["r2-uplink-lp"]
        assert lp.clauses[0].set_local_pref == 40
        assert not scenario.violates_policy()

    def test_own_reverts_never_reverted(self, fast_delays):
        """Each repeat offense is reverted once; the pipeline's own
        reverts are never taken for root causes."""
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        for _ in range(3):
            net.apply_config_change(bad_lp_change())
            net.run(30)
        reverts = [
            change
            for change in net.configs.changes("R2")
            if change.description.startswith("revert")
        ]
        assert len(reverts) == 3
        lp = net.configs.get("R2").route_maps["r2-uplink-lp"]
        assert lp.clauses[0].set_local_pref == 30
        assert not scenario.violates_policy()

    def test_legitimate_convergence_not_blocked(self, fast_delays):
        """Fig. 1b's convergence passes through the armed guard."""
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.fig1.run_fig1a()
        pipeline = IntegratedControlPlane(
            net, [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
            mode=PipelineMode.REPAIR,
        ).arm()
        net.announce_prefix("Ext2", P)
        net.run(10)
        assert pipeline.updates_blocked == 0
        path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "delivered" and path[-1] == "Ext2"

    def test_summary_readable(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        text = pipeline.summary()
        assert "blocked" in text and "incident" in text


class TestBlockMode:
    def test_blocks_without_repair(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.BLOCK)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert pipeline.updates_blocked >= 1
        # No revert happened: the bad LP stays.
        lp = net.configs.get("R2").route_maps["r2-uplink-lp"]
        assert lp.clauses[0].set_local_pref == 10
        # Data plane protected for now (the frozen-FIB hazard remains).
        assert not scenario.violates_policy()

    def test_block_mode_leaves_divergence(self, fast_delays):
        """BLOCK mode protects the data plane but leaves the control
        plane believing something else — the §2 criticism."""
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.BLOCK)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        r1 = net.runtime("R1")
        best = r1.bgp.rib.best(P)
        fib = r1.fib.get(P)
        resolved = r1.resolve_next_hop(best.next_hop)
        assert resolved is not None
        assert fib.next_hop_router != resolved[0]  # belief != reality


class TestMonitorMode:
    def test_monitor_allows_and_records(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.MONITOR)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert pipeline.incidents
        assert pipeline.updates_blocked == 0
        assert scenario.violates_policy()  # damage done, but recorded

    def test_monitor_incidents_not_blocked_flag(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.MONITOR)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert all(not incident.blocked for incident in pipeline.incidents)


class TestOfflineDetectAndRepair:
    def test_detect_and_repair_fig2(self, fast_delays):
        """§6 variant 1: detect on a consistent snapshot after the
        fact, trace, revert."""
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig2a()
        assert scenario.violates_policy()
        pipeline = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.REPAIR
        )
        violations, repair = pipeline.detect_and_repair(settle=30.0)
        assert violations
        assert repair is not None and repair.repaired
        assert not scenario.violates_policy()

    def test_detect_on_clean_network(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        pipeline = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.REPAIR
        )
        violations, repair = pipeline.detect_and_repair()
        assert violations == [] and repair is None


class TestHbgMaintenance:
    def test_hbg_grows_with_events(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        before = len(pipeline.hbg)
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert len(pipeline.hbg) > before
        assert len(pipeline.hbg) == len(net.collector)

    def test_disarm_removes_guard(self, fast_delays):
        scenario, net, pipeline = _armed_fig2(fast_delays, PipelineMode.REPAIR)
        pipeline.disarm()
        assert net.runtime("R1").fib.install_guard is None
