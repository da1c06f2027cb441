"""Tests for the §8 what-if engine (CrystalNet-style forked emulation)."""

import pytest

from repro.scenarios.fig2 import bad_lp_change
from repro.scenarios.paper_net import P, paper_policy
from repro.whatif.engine import (
    WhatIfEngine,
    link_failure,
    link_recovery,
    route_announcement,
    route_withdrawal,
)


@pytest.fixture
def live(fig1):
    """A converged live network (Fig. 1b state: exit via R2)."""
    return fig1.run_fig1b()


@pytest.fixture
def engine(live):
    return WhatIfEngine(live, [paper_policy()], settle=30.0)


class TestForking:
    def test_fork_reconverges_to_live_state(self, engine):
        fork = engine.fork(seed=123)
        assert engine._forwarding_matches(fork)

    def test_fork_is_isolated(self, engine, live):
        fork = engine.fork(seed=123)
        fork.fail_link("R2", "Ext2")
        fork.run(10)
        # The live network is untouched.
        link = live.topology.link_between("R2", "Ext2")
        assert link.up
        path, outcome = live.trace_path("R3", P.first_address())
        assert outcome == "delivered" and path[-1] == "Ext2"

    def test_fork_copies_link_state(self, engine, live):
        live.fail_link("R1", "R3")
        live.run(5)
        fork = engine.fork(seed=5)
        forked_link = fork.topology.link_between("R1", "R3")
        assert not forked_link.up


class TestQuestions:
    def test_bad_change_predicted_unsafe(self, engine, live):
        result = engine.is_change_safe(bad_lp_change())
        assert not result.safe
        assert any(v.policy == "preferred-exit" for v in result.violations)
        # The live network never saw the change.
        lp = live.configs.get("R2").route_maps["r2-uplink-lp"].clauses[0]
        assert lp.set_local_pref == 30

    def test_harmless_change_predicted_safe(self, engine):
        from repro.net.config import ConfigChange, local_pref_map

        harmless = ConfigChange(
            "R2",
            "set_route_map",
            key="r2-uplink-lp",
            value=local_pref_map("r2-uplink-lp", 40),  # still > R1's 20
            description="raise preferred uplink LP",
        )
        result = engine.is_change_safe(harmless)
        assert result.safe

    def test_uplink_failure_without_backup_unsafe_shape(self, engine):
        """Fig. 1b state has both uplinks announcing; losing R2's
        uplink fails over to R1 — safe under the policy (fallback)."""
        result = engine.survives_link_failure("R2", "Ext2")
        assert result.safe
        # But forwarding changed: everyone moved to Ext1.
        assert result.deltas
        path, outcome = result.hypothetical.trace("R3", P.first_address())
        assert outcome == "delivered" and "Ext1" in path

    def test_withdrawal_question(self, engine):
        """Withdrawing Ext2's route while the uplink stays physically
        up *violates* the as-written policy (it keys on link status) —
        the §8 observation that some violations cannot be repaired."""
        result = engine.ask([route_withdrawal("Ext2", P)])
        assert not result.safe
        assert all(v.policy == "preferred-exit" for v in result.violations)
        movers = {d.router for d in result.deltas}
        assert {"R1", "R2", "R3"} <= movers

    def test_combined_injection_blackhole(self, engine):
        """Withdraw the fallback and fail the preferred uplink: no
        route anywhere — reachability-free but not policy-violating
        (both uplinks unusable disables the preferred-exit policy)."""
        result = engine.ask(
            [route_withdrawal("Ext1", P), link_failure("R2", "Ext2")]
        )
        assert result.safe
        entry = result.hypothetical.entry("R3", P)
        assert entry is None

    def test_deltas_describe(self, engine):
        result = engine.ask([route_withdrawal("Ext2", P)])
        text = result.describe()
        assert "VIOLATES" in text
        assert "->" in text
        safe_text = engine.ask([]).describe()
        assert "SAFE" in safe_text

    def test_recovery_injection(self, engine, live):
        live.fail_link("R2", "Ext2")
        live.run(5)
        engine2 = WhatIfEngine(live, [paper_policy()], settle=30.0)
        result = engine2.ask([link_recovery("R2", "Ext2")])
        assert result.safe
        path, outcome = result.hypothetical.trace("R3", P.first_address())
        assert outcome == "delivered" and "Ext2" in path

    def test_announcement_injection(self, fig1):
        net = fig1.run_fig1a()  # only Ext1 announcing
        engine = WhatIfEngine(net, [paper_policy()], settle=30.0)
        result = engine.ask([route_announcement("Ext2", P)])
        assert result.safe
        path, _ = result.hypothetical.trace("R3", P.first_address())
        assert "Ext2" in path

    def test_fork_match_flag(self, engine):
        result = engine.ask([])
        assert result.fork_matches_live
        assert result.deltas == []
