"""Tests for per-packet verification (§5, footnote 4)."""

import pytest

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.net.topology import paper_topology
from repro.scenarios.fig1 import Fig1Scenario
from repro.scenarios.paper_net import P
from repro.verify.perpacket import FibTimeline, PerPacketAnalyzer


def _fib_event(router, t, nh=None, action=RouteAction.ANNOUNCE, discard=False):
    return IOEvent.create(
        router,
        IOKind.FIB_UPDATE,
        t,
        protocol="ibgp",
        prefix=P,
        action=action,
        attrs={"next_hop_router": nh, "out_interface": "eth0", "discard": discard},
    )


class TestFibTimeline:
    def test_state_before_any_event_is_absent(self):
        timeline = FibTimeline("R1", P)
        timeline.add_event(_fib_event("R1", 5.0, nh="R2"))
        assert not timeline.state_at(4.0).present

    def test_state_after_install(self):
        timeline = FibTimeline("R1", P)
        timeline.add_event(_fib_event("R1", 5.0, nh="R2"))
        state = timeline.state_at(6.0)
        assert state.present and state.next_hop_router == "R2"

    def test_withdraw_creates_absent_interval(self):
        timeline = FibTimeline("R1", P)
        timeline.add_event(_fib_event("R1", 5.0, nh="R2"))
        timeline.add_event(_fib_event("R1", 7.0, action=RouteAction.WITHDRAW))
        assert timeline.state_at(6.0).present
        assert not timeline.state_at(8.0).present

    def test_out_of_order_insertion(self):
        timeline = FibTimeline("R1", P)
        timeline.add_event(_fib_event("R1", 7.0, nh="R3"))
        timeline.add_event(_fib_event("R1", 5.0, nh="R2"))
        assert timeline.state_at(6.0).next_hop_router == "R2"
        assert timeline.state_at(8.0).next_hop_router == "R3"

    def test_rejects_foreign_event(self):
        timeline = FibTimeline("R1", P)
        other = IOEvent.create("R1", IOKind.RIB_UPDATE, 1.0, prefix=P)
        with pytest.raises(ValueError):
            timeline.add_event(other)


class TestAnalyzerOnHandcraftedTimelines:
    def _analyzer(self, events):
        return PerPacketAnalyzer(events, paper_topology(), P)

    def test_simple_delivery(self):
        events = [
            _fib_event("R3", 1.0, nh="R2"),
            _fib_event("R2", 1.0, nh="Ext2"),
        ]
        analyzer = self._analyzer(events)
        journey = analyzer.trace("R3", 2.0)
        assert journey.outcome == "delivered"
        assert journey.path == ("R3", "R2", "Ext2")

    def test_hop_times_accumulate_link_delay(self):
        events = [
            _fib_event("R3", 1.0, nh="R2"),
            _fib_event("R2", 1.0, nh="Ext2"),
        ]
        analyzer = self._analyzer(events)
        journey = analyzer.trace("R3", 2.0)
        assert journey.hop_times[0] == 2.0
        assert journey.hop_times[1] > journey.hop_times[0]

    def test_packet_outruns_withdrawal(self):
        """A packet mid-flight encounters the *new* state downstream:
        R3 forwards at t=1.9 (old state), but by the time the packet
        reaches R2, R2 has already withdrawn — blackhole in transit,
        invisible to any instantaneous snapshot taken at 1.9."""
        events = [
            _fib_event("R3", 1.0, nh="R2"),
            # R2's entry vanishes at t=1.905, between the packet's two hops.
            _fib_event("R2", 1.0, nh="Ext2"),
            _fib_event("R2", 1.905, action=RouteAction.WITHDRAW),
        ]
        analyzer = self._analyzer(events)
        journey = analyzer.trace("R3", 1.9)  # link delay 8 ms
        assert journey.outcome == "blackhole"
        assert journey.path == ("R3", "R2")

    def test_transient_diagonal_loop_detected(self):
        """A loop that exists only across time: R1 points at R2 until
        t=2, then at Ext1; R2 points at R1 from t=2.  No instantaneous
        state contains a loop, but a packet can still bounce R1->R2
        ->R1 if it crosses the boundary — per-packet analysis sees it
        resolve (state changed between visits), confirming no true
        persistent loop."""
        events = [
            _fib_event("R1", 1.0, nh="R2"),
            _fib_event("R2", 1.0, nh="R1"),
            _fib_event("R1", 2.0, nh="Ext1"),
        ]
        analyzer = self._analyzer(events)
        # Inject just before R1's flip: R1(old)->R2->R1(new)->Ext1.
        journey = analyzer.trace("R1", 1.999)
        assert journey.outcome == "delivered"
        assert journey.path == ("R1", "R2", "R1", "Ext1")
        # Inject well before: the loop is real while both states are old.
        early = analyzer.trace("R1", 1.5)
        assert early.outcome == "loop"

    def test_discard_outcome(self):
        events = [_fib_event("R3", 1.0, discard=True)]
        analyzer = self._analyzer(events)
        assert analyzer.trace("R3", 2.0).outcome == "discard"

    def test_injection_times_cover_boundaries(self):
        events = [
            _fib_event("R3", 1.0, nh="R2"),
            _fib_event("R2", 1.5, nh="Ext2"),
        ]
        analyzer = self._analyzer(events)
        times = analyzer.injection_times((0.5, 3.0))
        assert times[0] == 0.5
        assert len(times) == 3  # start + two boundaries

    def test_distinct_journeys_deduplicated(self):
        events = [
            _fib_event("R3", 1.0, nh="R2"),
            _fib_event("R2", 1.0, nh="Ext2"),
        ]
        analyzer = self._analyzer(events)
        journeys = analyzer.distinct_journeys("R3", (0.5, 5.0))
        outcomes = [(j.path, j.outcome) for j in journeys]
        assert len(outcomes) == len(set(outcomes))


class TestOnRealCapture:
    def test_no_packet_ever_loops_during_fig1b(self, fast_delays):
        """The heart of footnote 4 + Fig. 1c: the naive snapshot claims
        a loop during convergence, yet no physically realisable packet
        ever loops."""
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        analyzer = PerPacketAnalyzer(
            net.collector.all_events(), net.topology, P
        )
        window = (scenario.t_r2_route - 0.05, scenario.t_converged + 0.05)
        assert not analyzer.ever_loops(window)

    def test_all_outcomes_during_convergence(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        analyzer = PerPacketAnalyzer(
            net.collector.all_events(), net.topology, P
        )
        window = (scenario.t_r2_route, scenario.t_converged)
        outcomes = analyzer.all_outcomes(window)
        for source in ("R1", "R2", "R3"):
            assert outcomes[source] <= {"delivered"}

    def test_journeys_shift_exit_during_convergence(self, fast_delays):
        """Across the window, packets from R3 exit via Ext1 early and
        Ext2 late — both journeys are enumerated."""
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        analyzer = PerPacketAnalyzer(
            net.collector.all_events(), net.topology, P
        )
        window = (scenario.t_r2_route - 0.1, scenario.t_converged + 0.1)
        journeys = analyzer.distinct_journeys("R3", window)
        exits = {j.path[-1] for j in journeys if j.outcome == "delivered"}
        assert exits == {"Ext1", "Ext2"}

    def test_per_packet_waypoint_check(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        analyzer = PerPacketAnalyzer(
            net.collector.all_events(), net.topology, P
        )
        # After convergence every delivered packet goes through R2.
        window = (scenario.t_converged, scenario.t_converged + 1.0)
        bypassing = analyzer.always_traverses("R2", window)
        assert bypassing == []
