"""Tests for the §5 consistent snapshot algorithm — the heart of the
paper's verification story."""

from repro.scenarios.fig1 import Fig1Scenario
from repro.scenarios.fig5 import Fig5Scenario
from repro.scenarios.paper_net import P
from repro.snapshot.base import VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.snapshot.naive import NaiveSnapshotter
from repro.verify.policy import LoopFreedomPolicy
from repro.verify.verifier import DataPlaneVerifier

INTERNAL = ("R1", "R2", "R3")


def _snapshotter(net, lags=None):
    view = VerifierView(net.collector, lags=lags or {})
    return ConsistentSnapshotter(view, internal_routers=INTERNAL)


class TestFig1c:
    """The paper's motivating snapshot inconsistency."""

    def _run(self, fast_delays, lags):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        return scenario, net, VerifierView(net.collector, lags=lags)

    def test_naive_snapshot_sees_phantom_loop(self, fast_delays):
        scenario, net, view = self._run(fast_delays, {"R2": 0.5})
        verifier = DataPlaneVerifier(
            net.topology, [LoopFreedomPolicy(prefixes=[P])]
        )
        naive = NaiveSnapshotter(view)
        phantom_found = False
        t = scenario.t_r2_route
        while t < scenario.t_converged + 0.2:
            result = verifier.verify(naive.snapshot(t))
            if not result.ok:
                phantom_found = True
                assert any(
                    v.policy == "loop-freedom" for v in result.violations
                )
                break
            t += 0.002
        assert phantom_found, "expected the Fig. 1c phantom loop"

    def test_consistent_snapshotter_refuses_inconsistent_cut(self, fast_delays):
        scenario, net, view = self._run(fast_delays, {"R2": 0.5})
        snapshotter = ConsistentSnapshotter(view, internal_routers=INTERNAL)
        verifier = DataPlaneVerifier(
            net.topology, [LoopFreedomPolicy(prefixes=[P])]
        )
        t = scenario.t_r2_route
        false_alarms = 0
        while t < scenario.t_converged + 0.2:
            snapshot, report = snapshotter.snapshot(t, prefix=P)
            if report.consistent:
                result = verifier.verify(snapshot)
                if not result.ok:
                    false_alarms += 1
            t += 0.002
        assert false_alarms == 0

    def test_missing_router_identified(self, fast_delays):
        scenario, net, view = self._run(fast_delays, {"R2": 0.5})
        snapshotter = ConsistentSnapshotter(view, internal_routers=INTERNAL)
        # Probe the window where R1/R3 have reported but R2 lags.
        named_r2 = False
        only_r2_somewhere = False
        t = scenario.t_r2_route
        while t < scenario.t_converged + 0.2:
            _snapshot, report = snapshotter.snapshot(t, prefix=P)
            if not report.consistent:
                if "R2" in report.missing_routers:
                    named_r2 = True
                if report.missing_routers == {"R2"}:
                    # Once genuinely-in-flight messages have landed,
                    # only the laggard R2 remains named.
                    only_r2_somewhere = True
                    assert any("R2" in reason for reason in report.reasons)
            t += 0.002
        assert named_r2
        assert only_r2_somewhere

    def test_wait_until_consistent_converges(self, fast_delays):
        scenario, net, view = self._run(fast_delays, {"R2": 0.5})
        snapshotter = ConsistentSnapshotter(view, internal_routers=INTERNAL)
        start = scenario.t_converged - 0.45  # inside R2's lag window
        snapshot, report, when = snapshotter.wait_until_consistent(
            start, start + 2.0, step=0.05, prefix=P
        )
        assert report.consistent and snapshot is not None
        assert when >= start

    def test_wait_deadline_exceeded_returns_none(self, fast_delays):
        scenario, net, view = self._run(fast_delays, {"R2": 30.0})
        snapshotter = ConsistentSnapshotter(view, internal_routers=INTERNAL)
        start = scenario.t_converged
        snapshot, report, _when = snapshotter.wait_until_consistent(
            start, start + 0.3, step=0.1, prefix=P
        )
        assert snapshot is None
        assert not report.consistent
        assert "R2" in report.missing_routers


class TestFig5Punchline:
    def test_r3_only_snapshot_detected_as_inconsistent(self):
        """§7: 'if it only sees the new FIB from R3, the verifier will
        conclude that the path is R1-R2-P ... Using the HBG, it can
        catch this inconsistency.'"""
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        # R3's logs arrive promptly; R1's and R2's lag behind.
        view = VerifierView(net.collector, lags={"R1": 5.0, "R2": 5.0})
        snapshotter = ConsistentSnapshotter(view, internal_routers=INTERNAL)
        # Pick an instant just after R3 installed its new FIB.
        from repro.capture.io_events import IOKind

        r3_fib = [
            e
            for e in net.collector.query(
                router="R3", kind=IOKind.FIB_UPDATE, prefix=P
            )
            if e.timestamp > scenario.t_change
        ]
        t = max(e.timestamp for e in r3_fib) + 0.01
        _snapshot, report = snapshotter.snapshot(t, prefix=P)
        assert not report.consistent
        assert "R1" in report.missing_routers

    def test_full_logs_are_consistent(self):
        scenario = Fig5Scenario(seed=0)
        net = scenario.run_localpref_change()
        snapshotter = _snapshotter(net)
        snapshot, report = snapshotter.snapshot(net.sim.now, prefix=P)
        assert report.consistent
        # Converged state: everyone exits via R1.
        path, outcome = snapshot.trace("R3", P.first_address())
        assert outcome == "delivered"
        assert "Ext1" in path


class TestQuiescentConsistency:
    def test_quiescent_snapshot_always_consistent(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshotter = _snapshotter(net)
        snapshot, report = snapshotter.snapshot(net.sim.now)
        assert report.consistent
        assert report.missing_routers == set()

    def test_check_scoped_to_prefix(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshotter = _snapshotter(net)
        other = P.supernet()
        _snapshot, report = snapshotter.snapshot(net.sim.now, prefix=other)
        assert report.consistent
        assert report.steps == 0  # no FIB events for that prefix

    def test_steps_counted(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshotter = _snapshotter(net)
        _snapshot, report = snapshotter.snapshot(net.sim.now, prefix=P)
        assert report.steps > 0


class TestClosureMemoization:
    """The §5 recursion re-enters the same causal subwalks from every
    FIB event that funnels through a shared ancestor; one check() now
    memoizes them and reports the saving via obs counters."""

    def test_cache_hits_surface_as_metrics(self, fast_delays):
        from repro import obs

        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshotter = _snapshotter(net)
        registry, _tracer = obs.enable()
        try:
            _snapshot, report = snapshotter.snapshot(net.sim.now)
            assert report.consistent
            hits = registry.counter("snapshot.closure_cache_hits").value
            misses = registry.counter(
                "snapshot.closure_cache_misses"
            ).value
            assert hits > 0  # shared ancestry funnels through the memo
            assert misses > 0  # first walk of each subtree still runs
        finally:
            obs.disable()

    def test_memo_reset_between_checks(self, fast_delays):
        """Memo state must not leak across check() calls: a repeat
        check on the same snapshotter yields the same verdict and the
        same hit/miss profile, not a fully-warmed cache."""
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshotter = _snapshotter(net)
        _s1, first = snapshotter.snapshot(net.sim.now)
        profile_first = (snapshotter._memo_hits, snapshotter._memo_misses)
        _s2, second = snapshotter.snapshot(net.sim.now)
        profile_second = (snapshotter._memo_hits, snapshotter._memo_misses)
        assert first.consistent == second.consistent
        assert first.steps == second.steps
        assert profile_first == profile_second
