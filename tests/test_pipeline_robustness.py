"""Pipeline robustness under degraded capture conditions."""

from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
from repro.scenarios.paper_net import P, build_paper_network, paper_policy
from repro.verify.policy import LoopFreedomPolicy


def _lossy_fig2(fast_delays, drop_rate, seed=0):
    net = build_paper_network(
        seed=seed, delays=fast_delays, log_drop_rate=drop_rate
    )
    net.start()
    net.announce_prefix("Ext1", P)
    net.announce_prefix("Ext2", P)
    net.run(5)
    return net


class TestLossyCapture:
    def test_guard_still_protects_data_plane(self, fast_delays):
        """The FIB guard fires on the write itself (not on log
        delivery), so lost log lines never let a bad update through."""
        for seed in (0, 1, 2):
            net = _lossy_fig2(fast_delays, drop_rate=0.3, seed=seed)
            pipeline = IntegratedControlPlane(
                net,
                [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
                mode=PipelineMode.BLOCK,
            ).arm()
            net.apply_config_change(bad_lp_change())
            net.run(30)
            # The data plane stayed on the preferred exit.
            path, outcome = net.trace_path("R3", P.first_address())
            assert outcome == "delivered"
            assert path[-1] == "Ext2"

    def test_repair_may_degrade_but_never_misfires(self, fast_delays):
        """With lost log lines, provenance can be incomplete — the
        pipeline may fail to find the root cause (degraded to BLOCK
        behaviour) but must never revert an *unrelated* change."""
        net = _lossy_fig2(fast_delays, drop_rate=0.4, seed=3)
        # An unrelated, harmless change to R1 before the episode.
        from repro.net.config import ConfigChange, local_pref_map

        harmless = ConfigChange(
            "R1",
            "set_route_map",
            key="r1-uplink-lp",
            value=local_pref_map("r1-uplink-lp", 21),
            description="tune R1 uplink LP",
        )
        net.apply_config_change(harmless)
        net.run(5)
        pipeline = IntegratedControlPlane(
            net,
            [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
            mode=PipelineMode.REPAIR,
        ).arm()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        # The harmless change must still be in force (never reverted)
        # ... unless provenance (correctly) blamed only the bad one.
        r1_lp = net.configs.get("R1").route_maps["r1-uplink-lp"].clauses[0]
        assert r1_lp.set_local_pref == 21
        # And the data plane is protected regardless.
        path, outcome = net.trace_path("R3", P.first_address())
        assert outcome == "delivered" and path[-1] == "Ext2"


class TestIdempotency:
    def test_rearming_is_safe(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        pipeline = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.REPAIR
        )
        pipeline.arm()
        pipeline.disarm()
        pipeline.arm()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        assert not scenario.violates_policy()

    def test_two_pipelines_not_needed_but_last_guard_wins(self, fast_delays):
        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        first = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.MONITOR
        ).arm()
        second = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.REPAIR
        ).arm()
        net.apply_config_change(bad_lp_change())
        net.run(30)
        # The second (armed last) guard protected the network.
        assert not scenario.violates_policy()
        assert second.updates_checked > 0

    def test_benign_changes_cause_no_incidents(self, fast_delays):
        from repro.net.config import ConfigChange, local_pref_map

        scenario = Fig2Scenario(seed=0, delays=fast_delays)
        net = scenario.run_baseline()
        pipeline = IntegratedControlPlane(
            net, [paper_policy()], mode=PipelineMode.REPAIR
        ).arm()
        for lp in (35, 40, 45):
            net.apply_config_change(
                ConfigChange(
                    "R2",
                    "set_route_map",
                    key="r2-uplink-lp",
                    value=local_pref_map("r2-uplink-lp", lp),
                    description=f"LP {lp}",
                )
            )
            net.run(10)
        assert pipeline.incidents == []
        assert not scenario.violates_policy()
