"""Tests for the discrete-event simulator."""

import pytest

from repro.net.simulator import DelayModel, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_ties_broken_by_priority_then_seq(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("normal"), priority=10)
        sim.schedule(1.0, lambda: fired.append("urgent"), priority=1)
        sim.schedule(1.0, lambda: fired.append("second-normal"), priority=10)
        sim.run()
        assert fired == ["urgent", "normal", "second-normal"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(0.5, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.pending() == 1

    def test_run_advances_clock_to_until_when_idle(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(0.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        event = sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 2.0
        event.cancel()
        assert sim.peek_time() is None

    def test_run_until_quiescent(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: fired.append(1))
        end = sim.run_until_quiescent()
        assert fired == [1]
        assert end == pytest.approx(0.5)


class TestDeterminism:
    def test_same_seed_same_jitter(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.jitter(1.0) for _ in range(10)] == [
            b.jitter(1.0) for _ in range(10)
        ]

    def test_different_seed_different_jitter(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert [a.jitter(1.0) for _ in range(5)] != [
            b.jitter(1.0) for _ in range(5)
        ]

    def test_jitter_bounds(self):
        sim = Simulator(seed=0)
        for _ in range(100):
            value = sim.jitter(1.0, fraction=0.1)
            assert 0.9 <= value <= 1.1

    def test_jitter_zero_base(self):
        assert Simulator().jitter(0.0) == 0.0

    def test_jitter_negative_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().jitter(-1.0)


class TestDelayModel:
    def test_defaults_positive(self):
        model = DelayModel()
        assert model.fib_install > 0
        assert model.config_to_reconfig > 0

    def test_instant(self):
        model = DelayModel.instant()
        assert model.fib_install == 0.0
        assert model.config_to_reconfig == 0.0

    def test_paper_fig5_constants(self):
        model = DelayModel.paper_fig5()
        assert model.config_to_reconfig == pytest.approx(25.0)
        assert model.fib_install == pytest.approx(0.004)
        assert model.advertisement == pytest.approx(0.004)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            DelayModel(fib_install=-0.1)
