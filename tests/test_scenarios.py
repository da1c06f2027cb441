"""Tests for the paper's scenario library (Figs. 1, 2, 5)."""

from repro.capture.io_events import IOKind, RouteAction
from repro.scenarios.fig2 import BAD_LOCAL_PREF, bad_lp_change
from repro.scenarios.fig5 import FIG5_LOCAL_PREF, Fig5Scenario, fig5_change
from repro.scenarios.paper_net import (
    P,
    R1_UPLINK_LP,
    R2_UPLINK_LP,
    build_paper_network,
    paper_policy,
)


class TestPaperNetwork:
    def test_local_prefs_match_paper(self):
        assert R1_UPLINK_LP == 20 and R2_UPLINK_LP == 30

    def test_ibgp_full_mesh(self):
        net = build_paper_network()
        for router in ("R1", "R2", "R3"):
            peers = set(net.configs.get(router).bgp_neighbors)
            internal = {"R1", "R2", "R3"} - {router}
            assert internal <= peers

    def test_uplink_sessions(self):
        net = build_paper_network()
        assert "Ext1" in net.configs.get("R1").bgp_neighbors
        assert "Ext2" in net.configs.get("R2").bgp_neighbors
        assert "Ext1" not in net.configs.get("R3").bgp_neighbors

    def test_policy_object(self):
        policy = paper_policy()
        assert policy.preferred_exit == "R2"
        assert policy.fallback_exit == "R1"


class TestFig1:
    def test_fig1a_exit_via_r1(self, fig1):
        fig1.run_fig1a()
        for source in ("R1", "R2", "R3"):
            assert fig1.exit_router_for(source) == "R1"

    def test_fig1b_exit_switches_to_r2(self, fig1):
        fig1.run_fig1b()
        for source in ("R1", "R2", "R3"):
            assert fig1.exit_router_for(source) == "R2"

    def test_fig1b_timestamps_recorded(self, fig1):
        fig1.run_fig1b()
        assert 0 < fig1.t_r2_route < fig1.t_converged

    def test_fig1b_r1_rib_holds_both_paths(self, fig1):
        """Fig. 1b shows R1's RIB with both Pref=20 and Pref=30 paths."""
        net = fig1.network
        fig1.run_fig1b()
        paths = net.runtime("R1").bgp.rib.paths_for(P)
        prefs = {p.local_pref for p in paths}
        assert {20, 30} <= prefs

    def test_exit_router_none_when_no_route(self, fig1):
        fig1.network.start()
        fig1.network.run(1)
        assert fig1.exit_router_for("R3") is None


class TestFig2:
    def test_fig2a_policy_violated(self, fig2):
        fig2.run_fig2a()
        assert fig2.violates_policy()
        for source in ("R1", "R3"):
            assert fig2.exit_router_for(source) == "R1"

    def test_fig2a_rib_state_matches_figure(self, fig2):
        """Fig. 2b: R2 and R3 hold P via R1 with Pref=20."""
        net = fig2.network
        fig2.run_fig2a()
        for router in ("R2", "R3"):
            best = net.runtime(router).bgp.rib.best(P)
            assert best is not None
            assert best.local_pref == 20
            assert best.from_peer == "R1"

    def test_bad_change_value(self):
        change = bad_lp_change()
        assert change.router == "R2"
        assert change.value.clauses[0].set_local_pref == BAD_LOCAL_PREF

    def test_fig2b_uplink_failure_converges_cleanly(self, fig2):
        """Without blocking, the withdrawal propagates: no black hole,
        everyone on R1's uplink."""
        net = fig2.run_fig2b_uplink_failure()
        for source in ("R1", "R3"):
            path, outcome = net.trace_path(source, P.first_address())
            assert outcome == "delivered" and path[-1] == "Ext1"

    def test_violation_check_respects_uplink_status(self, fig2):
        net = fig2.run_fig2b_uplink_failure()
        # R2's uplink is down: exiting via R1 is now the *correct*
        # behaviour, not a violation.
        assert not fig2.violates_policy()


class TestFig5:
    def test_correct_start_state(self):
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_correct_state()
        for source in ("R1", "R3"):
            path, outcome = net.trace_path(source, P.first_address())
            assert outcome == "delivered"
            assert path[-1] == "Ext2"

    def test_localpref_change_flips_exit(self):
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        for source in ("R2", "R3"):
            path, outcome = net.trace_path(source, P.first_address())
            assert outcome == "delivered"
            assert path[-1] == "Ext1"

    def test_soft_reconfig_lag_about_25s(self):
        """§7: 'Twenty[-five] seconds after the console configuration,
        router R1 starts soft reconfiguration.'"""
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        ribs = [
            e
            for e in net.collector.query(
                router="R1", kind=IOKind.RIB_UPDATE, prefix=P
            )
            if e.timestamp > scenario.t_change
        ]
        first = min(e.timestamp for e in ribs)
        lag = first - scenario.t_change
        assert 20.0 <= lag <= 30.0

    def test_fib_install_within_milliseconds_of_rib(self):
        """§7: 'Very quickly (within 4ms), a direct route to P is
        installed in the FIB.'"""
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        ribs = [
            e
            for e in net.collector.query(
                router="R1", kind=IOKind.RIB_UPDATE, prefix=P
            )
            if e.timestamp > scenario.t_change
        ]
        fibs = [
            e
            for e in net.collector.query(
                router="R1", kind=IOKind.FIB_UPDATE, prefix=P
            )
            if e.timestamp > scenario.t_change
        ]
        gap = min(f.timestamp for f in fibs) - min(r.timestamp for r in ribs)
        assert 0 < gap < 0.010

    def test_r2_withdraws_own_route(self):
        """Fig. 5's final row: 'Withdraw: P via R2' at all routers."""
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        withdraws = net.collector.query(
            router="R2",
            kind=IOKind.ROUTE_SEND,
            prefix=P,
            action=RouteAction.WITHDRAW,
        )
        assert {w.peer for w in withdraws} >= {"R1", "R3"}

    def test_event_sequence_matches_fig5_rows(self):
        """config -> (25 s) -> RIB -> FIB -> announce -> recv at R2/R3
        -> their FIBs -> R2's withdraw, strictly ordered in time."""
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        t0 = scenario.t_change

        def first(router, kind, **kw):
            events = [
                e
                for e in net.collector.query(router=router, kind=kind, **kw)
                if e.timestamp > t0
            ]
            return min(e.timestamp for e in events)

        t_rib_r1 = first("R1", IOKind.RIB_UPDATE, prefix=P)
        t_fib_r1 = first("R1", IOKind.FIB_UPDATE, prefix=P)
        t_send_r1 = first("R1", IOKind.ROUTE_SEND, prefix=P)
        t_recv_r3 = first("R3", IOKind.ROUTE_RECEIVE, prefix=P)
        t_fib_r3 = first("R3", IOKind.FIB_UPDATE, prefix=P)
        t_withdraw_r2 = first(
            "R2", IOKind.ROUTE_SEND, prefix=P, action=RouteAction.WITHDRAW
        )
        assert (
            t0
            < t_rib_r1
            <= t_fib_r1
            <= t_send_r1
            <= t_recv_r3
            <= t_fib_r3
            <= t_withdraw_r2
        )

    def test_fig5_change_value(self):
        assert fig5_change().value.clauses[0].set_local_pref == FIG5_LOCAL_PREF
