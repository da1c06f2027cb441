"""Failure-injection tests: lost log messages and skewed clocks.

The capture channel in a real deployment is lossy (syslog over UDP)
and unsynchronised.  These tests quantify how the paper's machinery
degrades — and where it stays safe — under those conditions.
"""

from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine, score_inference
from repro.scenarios.paper_net import P, build_paper_network
from repro.snapshot.base import VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter


def _run_network(fast_delays, drop_rate=0.0, skews=None, seed=0):
    net = build_paper_network(
        seed=seed,
        delays=fast_delays,
        log_drop_rate=drop_rate,
        clock_skews=skews,
    )
    net.start()
    net.announce_prefix("Ext1", P)
    net.announce_prefix("Ext2", P)
    net.run(10)
    return net


class TestLogDrops:
    def test_drops_reduce_captured_events(self, fast_delays):
        clean = _run_network(fast_delays)
        lossy = _run_network(fast_delays, drop_rate=0.3)
        assert len(lossy.collector) < len(clean.collector)

    def test_dropped_events_counted(self, fast_delays):
        lossy = _run_network(fast_delays, drop_rate=0.3)
        dropped = sum(
            runtime.logger.events_dropped
            for runtime in lossy.runtimes.values()
        )
        assert dropped > 0

    def test_inference_recall_degrades_gracefully(self, fast_delays):
        """Missing log lines lose edges but never fabricate them:
        precision holds while recall drops."""
        lossy = _run_network(fast_delays, drop_rate=0.3, seed=3)
        engine = InferenceEngine()
        graph = engine.build_graph(lossy.collector.all_events())
        observable = {e.event_id for e in lossy.collector}
        score = score_inference(
            graph, lossy.ground_truth, observable_ids=observable
        )
        # Edges between *captured* events remain precise.
        assert score.precision >= 0.7

    def test_consistent_snapshot_defers_on_missing_fib_logs(self, fast_delays):
        """If a router's FIB-update log line was lost, the §5 closure
        check reports the cut inconsistent rather than verifying a
        reconstruction silently missing that entry."""
        found_deferral = False
        for seed in range(12):
            lossy = _run_network(fast_delays, drop_rate=0.35, seed=seed)
            # Only interesting when an internal FIB event was dropped.
            captured_fibs = {
                (e.router, e.prefix, e.action)
                for e in lossy.collector.events_of_kind(IOKind.FIB_UPDATE)
            }
            live = {
                (r, P)
                for r in ("R1", "R2", "R3")
                if lossy.runtime(r).fib.get(P) is not None
            }
            missing = [
                router
                for router, _ in live
                if not any(
                    r == router and p == P
                    for r, p, _a in captured_fibs
                )
            ]
            if not missing:
                continue
            view = VerifierView(lossy.collector)
            snapshotter = ConsistentSnapshotter(
                view, internal_routers=("R1", "R2", "R3")
            )
            _snapshot, report = snapshotter.snapshot(
                lossy.sim.now, prefix=P
            )
            if not report.consistent:
                found_deferral = True
                break
        assert found_deferral, (
            "expected at least one run where lost FIB logs made the "
            "snapshot inconsistent"
        )


class TestClockSkew:
    def test_large_skew_defeats_strict_tolerance(self, fast_delays):
        from repro.hbr.inference import InferenceConfig

        skewed = _run_network(
            fast_delays, skews={"R1": 0.2, "R2": -0.2}, seed=1
        )
        strict = InferenceEngine(
            config=InferenceConfig(clock_skew_tolerance=0.0)
        )
        generous = InferenceEngine(
            config=InferenceConfig(clock_skew_tolerance=0.5)
        )
        observable = {e.event_id for e in skewed.collector}
        strict_score = score_inference(
            strict.build_graph(skewed.collector.all_events()),
            skewed.ground_truth,
            observable_ids=observable,
        )
        generous_score = score_inference(
            generous.build_graph(skewed.collector.all_events()),
            skewed.ground_truth,
            observable_ids=observable,
        )
        assert generous_score.recall > strict_score.recall

    def test_same_router_order_immune_to_skew(self, fast_delays):
        """Skew shifts a router's whole log uniformly; intra-router
        chains (recv -> rib -> fib -> send) survive any skew."""
        skewed = _run_network(
            fast_delays, skews={"R3": 5.0}, seed=2
        )
        engine = InferenceEngine()
        graph = engine.build_graph(skewed.collector.all_events())
        r3_events = [e for e in skewed.collector.events_of("R3")]
        fib = [
            e for e in r3_events
            if e.kind is IOKind.FIB_UPDATE and e.prefix == P
        ]
        assert fib
        ancestors = graph.ancestors(max(fib, key=lambda e: e.timestamp).event_id)
        ancestor_kinds = {
            graph.event(i).kind
            for i in ancestors
            if graph.event(i).router == "R3"
        }
        assert IOKind.RIB_UPDATE in ancestor_kinds
        assert IOKind.ROUTE_RECEIVE in ancestor_kinds
