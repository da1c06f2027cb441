"""End-to-end integration tests combining every layer on nontrivial
networks: simulator -> capture -> inference -> snapshot -> verify ->
provenance -> repair."""

from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.hbr.inference import InferenceEngine, score_inference
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
    misconfig_campaign,
)
from repro.snapshot.base import DataPlaneSnapshot, VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.snapshot.naive import NaiveSnapshotter
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)
from repro.verify.verifier import DataPlaneVerifier


class TestChurnUnderVerification:
    def test_consistent_snapshots_never_false_alarm(self):
        """Under random churn with laggy log delivery, HBG-consistent
        snapshots raise zero loop alarms (the network is loop-free
        throughout — only reconstruction artefacts could alarm)."""
        net, specs = build_random_network(6, uplinks=2, seed=11)
        net.start()
        prefixes = external_prefixes(4)
        churn_workload(net, specs, prefixes, events=12, start=2.0, seed=11)
        net.run(40)
        lags = {"R1": 0.3, "R3": 0.7}
        view = VerifierView(net.collector, lags=lags)
        snapshotter = ConsistentSnapshotter(
            view, internal_routers=net.topology.internal_routers()
        )
        verifier = DataPlaneVerifier(
            net.topology, [LoopFreedomPolicy(prefixes=prefixes)]
        )
        t = 2.0
        alarms = 0
        while t < 12.0:
            snapshot, report = snapshotter.snapshot(t)
            if report.consistent:
                result = verifier.verify(snapshot)
                alarms += len(result.violations)
            t += 0.25
        assert alarms == 0

    def test_naive_snapshots_do_false_alarm_somewhere(self):
        """Across seeds and lags, the naive snapshotter eventually
        reports a phantom anomaly the oracle denies."""
        phantom_total = 0
        for seed in (3, 11, 19):
            net, specs = build_random_network(6, uplinks=2, seed=seed)
            net.start()
            prefixes = external_prefixes(4)
            churn_workload(net, specs, prefixes, events=12, start=2.0, seed=seed)
            net.run(40)
            view = VerifierView(
                net.collector, lags={"R1": 0.3, "R3": 0.7}
            )
            naive = NaiveSnapshotter(view)
            verifier = DataPlaneVerifier(
                net.topology,
                [
                    LoopFreedomPolicy(prefixes=prefixes),
                    BlackholeFreedomPolicy(prefixes=prefixes),
                ],
            )
            t = 2.0
            while t < 12.0:
                result = verifier.verify(naive.snapshot(t))
                phantom_total += len(result.violations)
                t += 0.25
        assert phantom_total > 0

    def test_inference_quality_on_churn(self):
        net, specs = build_random_network(7, uplinks=2, seed=23)
        net.start()
        churn_workload(
            net, specs, external_prefixes(5), events=15, start=2.0, seed=23
        )
        net.run(60)
        graph = InferenceEngine().build_graph(net.collector.all_events())
        obs = {e.event_id for e in net.collector}
        score = score_inference(graph, net.ground_truth, observable_ids=obs)
        assert score.recall >= 0.95
        assert score.precision >= 0.75


class TestPipelineOnRandomNetworks:
    def test_guard_protects_preferred_exit(self):
        net, specs = build_random_network(6, uplinks=2, seed=31)
        net.start()
        prefix = external_prefixes(1)[0]
        for spec in specs:
            net.announce_prefix(spec.external, prefix)
        net.run(30)
        preferred = max(specs, key=lambda s: s.local_pref)
        fallback = min(specs, key=lambda s: s.local_pref)
        policy = PreferredExitPolicy(
            prefix=prefix,
            preferred_exit=preferred.router,
            fallback_exit=fallback.router,
            uplink_of={
                preferred.router: preferred.external,
                fallback.router: fallback.external,
            },
        )
        pipeline = IntegratedControlPlane(
            net, [policy], mode=PipelineMode.REPAIR
        ).arm()
        # Sabotage the preferred uplink's local-pref.
        from repro.net.config import ConfigChange, local_pref_map

        map_name = f"{preferred.router.lower()}-uplink-lp"
        net.apply_config_change(
            ConfigChange(
                preferred.router,
                "set_route_map",
                key=map_name,
                value=local_pref_map(map_name, 1),
                description="sabotage preferred uplink",
            )
        )
        net.run(60)
        assert pipeline.updates_blocked >= 1
        lp = net.configs.get(preferred.router).route_maps[map_name]
        assert lp.clauses[0].set_local_pref == preferred.local_pref
        for router in net.topology.internal_routers():
            path, outcome = net.trace_path(router, prefix.first_address())
            assert outcome == "delivered"
            assert path[-1] == preferred.external

    def test_monitor_mode_observes_campaign(self):
        net, specs = build_random_network(5, uplinks=2, seed=37)
        net.start()
        prefix = external_prefixes(1)[0]
        for spec in specs:
            net.announce_prefix(spec.external, prefix)
        net.run(30)
        preferred = max(specs, key=lambda s: s.local_pref)
        fallback = min(specs, key=lambda s: s.local_pref)
        policy = PreferredExitPolicy(
            prefix=prefix,
            preferred_exit=preferred.router,
            fallback_exit=fallback.router,
            uplink_of={
                preferred.router: preferred.external,
                fallback.router: fallback.external,
            },
        )
        pipeline = IntegratedControlPlane(
            net, [policy], mode=PipelineMode.MONITOR
        ).arm()
        for change in misconfig_campaign(specs, rounds=4, seed=37):
            net.apply_config_change(change)
            net.run(30)
        # Nothing blocked, everything checked.
        assert pipeline.updates_blocked == 0
        assert pipeline.updates_checked >= 1


class TestOracleAgreement:
    def test_snapshot_reconstruction_agrees_with_oracle_at_quiescence(self):
        net, specs = build_random_network(6, uplinks=2, seed=41)
        net.start()
        prefixes = external_prefixes(3)
        for prefix in prefixes:
            for spec in specs:
                net.announce_prefix(spec.external, prefix)
        net.run(40)
        view = VerifierView(net.collector)
        reconstructed = NaiveSnapshotter(view).snapshot(net.sim.now)
        oracle = DataPlaneSnapshot.from_live_network(net)
        for prefix in prefixes:
            for router in net.topology.internal_routers():
                a = oracle.entry(router, prefix)
                b = reconstructed.entry(router, prefix)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.next_hop_router == b.next_hop_router
