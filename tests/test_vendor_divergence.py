"""Tests for the vendor-divergence scenario (§2's model-gap motivation)."""

from repro.scenarios.vendor import (
    FIRST_PEER,
    SECOND_PEER,
    VP,
    VendorDivergenceScenario,
    divergence,
)


class TestDivergence:
    def test_cisco_prefers_first_arrival(self, fast_delays):
        scenario = VendorDivergenceScenario(
            vendor="cisco", seed=0, delays=fast_delays
        )
        scenario.run()
        assert scenario.chosen_exit() == FIRST_PEER

    def test_juniper_prefers_low_router_id(self, fast_delays):
        scenario = VendorDivergenceScenario(
            vendor="juniper", seed=0, delays=fast_delays
        )
        scenario.run()
        assert scenario.chosen_exit() == SECOND_PEER

    def test_identical_configs_diverge(self, fast_delays):
        cisco_exit, juniper_exit = divergence(seed=0, delays=fast_delays)
        assert cisco_exit != juniper_exit

    def test_divergence_stable_across_seeds(self, fast_delays):
        for seed in (1, 2, 3):
            cisco_exit, juniper_exit = divergence(seed=seed, delays=fast_delays)
            assert cisco_exit == FIRST_PEER
            assert juniper_exit == SECOND_PEER

    def test_data_plane_reflects_divergence(self, fast_delays):
        cisco = VendorDivergenceScenario(
            vendor="cisco", seed=0, delays=fast_delays
        )
        cisco.run()
        juniper = VendorDivergenceScenario(
            vendor="juniper", seed=0, delays=fast_delays
        )
        juniper.run()
        cisco_path, _ = cisco.network.trace_path("B1", VP.first_address())
        juniper_path, _ = juniper.network.trace_path("B1", VP.first_address())
        assert cisco_path[-1] == FIRST_PEER
        assert juniper_path[-1] == SECOND_PEER

    def test_deterministic_profile_removes_divergence(self, fast_delays):
        """§8: Add-Path-style determinism makes both vendors converge
        on an order-independent choice."""
        from repro.scenarios.vendor import _build
        from repro.scenarios.vendor import VP as prefix

        exits = []
        for vendor in ("cisco", "juniper"):
            net = _build(vendor, 0, fast_delays)
            net.deterministic_bgp = True
            # Rebuild runtimes with the deterministic profile.
            from repro.protocols.router import RouterRuntime

            net.runtimes = {
                r.name: RouterRuntime(r, net) for r in net.topology
            }
            net.start()
            net.announce_prefix(FIRST_PEER, prefix)
            net.run(1.0)
            net.announce_prefix(SECOND_PEER, prefix)
            net.run(5.0)
            best = net.runtime("B1").bgp.rib.best(prefix)
            exits.append(best.from_peer)
        assert exits[0] == exits[1]
