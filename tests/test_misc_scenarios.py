"""Additional cross-cutting scenarios: mixed vendors, batched log
shipping, per-router delay profiles, and larger-topology stress."""

from repro.capture.io_events import IOKind
from repro.capture.logger import BufferingSink, RouterLogger
from repro.net.simulator import DelayModel
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
)
from repro.scenarios.paper_net import P, build_paper_network


class TestMixedVendors:
    def test_paper_network_with_mixed_vendors_converges(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.topology.router("R1").vendor = "juniper"
        # Rebuild runtimes so the vendor change takes effect.
        from repro.protocols.router import RouterRuntime

        net.runtimes = {r.name: RouterRuntime(r, net) for r in net.topology}
        net.start()
        net.announce_prefix("Ext1", P)
        net.announce_prefix("Ext2", P)
        net.run(10)
        # Policy outcome unchanged: LP 30 beats 20 under both vendors.
        for router in ("R1", "R3"):
            path, outcome = net.trace_path(router, P.first_address())
            assert outcome == "delivered"
            assert path[-1] == "Ext2"

    def test_profiles_attached_per_router(self, fast_delays):
        net = build_paper_network(seed=0, delays=fast_delays)
        net.topology.router("R1").vendor = "juniper"
        from repro.protocols.router import RouterRuntime

        net.runtimes = {r.name: RouterRuntime(r, net) for r in net.topology}
        assert net.runtime("R1").profile.name == "juniper"
        assert net.runtime("R2").profile.name == "cisco"


class TestPerRouterDelays:
    def test_slow_router_installs_later(self):
        slow = DelayModel(
            fib_install=0.5,
            rib_update=0.0005,
            advertisement=0.001,
            config_to_reconfig=0.05,
            spf_compute=0.001,
        )
        fast = DelayModel(
            fib_install=0.001,
            rib_update=0.0005,
            advertisement=0.001,
            config_to_reconfig=0.05,
            spf_compute=0.001,
        )
        net = build_paper_network(
            seed=0, delays=fast, clock_skews=None
        )
        net._per_router_delays = {"R3": slow}
        from repro.protocols.router import RouterRuntime

        net.runtimes = {r.name: RouterRuntime(r, net) for r in net.topology}
        net.start()
        net.announce_prefix("Ext1", P)
        net.run(10)
        r1_fib = net.collector.query(
            router="R1", kind=IOKind.FIB_UPDATE, prefix=P
        )
        r3_fib = net.collector.query(
            router="R3", kind=IOKind.FIB_UPDATE, prefix=P
        )
        assert r1_fib and r3_fib
        assert min(e.timestamp for e in r3_fib) > min(
            e.timestamp for e in r1_fib
        ) + 0.3


class TestBatchedLogShipping:
    def test_buffered_sink_hides_events_until_flush(self):
        """Routers shipping logs in batches create exactly the
        incomplete-collector windows the consistency check guards."""
        from repro.capture.collector import Collector

        collector = Collector()
        sink = BufferingSink(collector.ingest)
        logger = RouterLogger("R9", sink)
        logger.log(IOKind.FIB_UPDATE, 1.0, prefix=P)
        logger.log(IOKind.FIB_UPDATE, 2.0, prefix=P)
        assert len(collector) == 0
        assert sink.pending() == 2
        assert len(list(sink.peek())) == 2
        assert sink.flush() == 2
        assert len(collector) == 2
        assert sink.flush() == 0  # idempotent


class TestLargerTopologies:
    def test_grid_network_with_churn_converges_and_verifies(self):
        net, specs = build_random_network(
            12, uplinks=3, seed=51, extra_edge_fraction=0.8
        )
        net.start()
        prefixes = external_prefixes(5)
        for prefix in prefixes:
            for spec in specs:
                net.announce_prefix(spec.external, prefix)
        churn_workload(net, specs, prefixes, events=10, start=5.0, seed=51)
        net.run(90)
        assert net.sim.pending() == 0 or net.sim.peek_time() is None
        # Everyone reaches every live prefix via the most-preferred
        # announcing uplink; at minimum: no loops anywhere.
        from repro.snapshot.base import DataPlaneSnapshot
        from repro.verify.policy import LoopFreedomPolicy
        from repro.verify.verifier import DataPlaneVerifier

        snapshot = DataPlaneSnapshot.from_live_network(net)
        verifier = DataPlaneVerifier(
            net.topology, [LoopFreedomPolicy(prefixes=prefixes)]
        )
        assert verifier.verify(snapshot).ok

    def test_consistent_snapshot_scales_to_12_routers(self):
        from repro.snapshot.base import VerifierView
        from repro.snapshot.consistent import ConsistentSnapshotter

        net, specs = build_random_network(12, uplinks=2, seed=52)
        net.start()
        for prefix in external_prefixes(3):
            net.announce_prefix(specs[0].external, prefix)
        net.run(60)
        snapshotter = ConsistentSnapshotter(
            VerifierView(net.collector),
            internal_routers=net.topology.internal_routers(),
        )
        snapshot, report = snapshotter.snapshot(net.sim.now)
        assert report.consistent
        assert snapshot.routers()


class TestSkewPlusLag:
    def test_consistency_check_robust_to_combined_skew_and_lag(self, fast_delays):
        """Clock skew shifts logged timestamps while delivery lag
        hides events; the checker must still converge to consistency
        once everything has arrived."""
        from repro.hbr.inference import InferenceConfig, InferenceEngine
        from repro.snapshot.base import VerifierView
        from repro.snapshot.consistent import ConsistentSnapshotter

        net = build_paper_network(
            seed=0,
            delays=fast_delays,
            clock_skews={"R1": 0.02, "R2": -0.02, "R3": 0.01},
        )
        net.start()
        net.announce_prefix("Ext1", P)
        net.announce_prefix("Ext2", P)
        net.run(10)
        view = VerifierView(net.collector, lags={"R2": 0.2})
        engine = InferenceEngine(
            config=InferenceConfig(clock_skew_tolerance=0.05)
        )
        snapshotter = ConsistentSnapshotter(
            view, internal_routers=("R1", "R2", "R3"), engine=engine
        )
        snapshot, report, when = snapshotter.wait_until_consistent(
            net.sim.now, net.sim.now + 2.0, prefix=P
        )
        assert report.consistent
        assert snapshot is not None
        path, outcome = snapshot.trace("R3", P.first_address())
        assert outcome == "delivered"
