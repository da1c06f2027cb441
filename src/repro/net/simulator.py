"""Deterministic discrete-event simulator.

This is the substrate that replaces the paper's GNS3/Cisco emulation.
The properties the paper's argument depends on — asynchronous message
propagation, per-router processing delay, FIB-install delay, and the
resulting impossibility of a total order on FIB updates (§5) — are
all reproduced here, but deterministically: the event heap breaks
ties by (time, priority, sequence), and all jitter comes from a
seeded RNG, so every scenario replays bit-identically.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import obs


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Ordering is (time, priority, seq): priority lets hardware events
    (link failures) pre-empt protocol processing scheduled for the
    same instant, and seq makes the order total and deterministic.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event heap + clock + seeded RNG.

    Typical use::

        sim = Simulator(seed=7)
        sim.schedule(0.5, lambda: do_something(), label="kick")
        sim.run()
    """

    def __init__(self, seed: int = 0):
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self.rng = random.Random(seed)
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = 10,
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(
            time=self._now + delay,
            priority=priority,
            seq=next(self._seq),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        label: str = "",
        priority: int = 10,
    ) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        return self.schedule(time - self._now, action, label=label, priority=priority)

    def jitter(self, base: float, fraction: float = 0.1) -> float:
        """A delay of ``base`` seconds +/- up to ``fraction`` of it.

        Deterministic given the simulator seed.  Used for per-router
        processing delays so FIB updates do not land in lockstep —
        the asynchrony at the heart of the Fig. 1c snapshot problem.
        """
        if base < 0:
            raise SimulationError(f"negative base delay: {base}")
        if base == 0:
            return 0.0
        spread = base * fraction
        return max(0.0, base + self.rng.uniform(-spread, spread))

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Drain the event heap.

        Stops when the heap is empty, when the next event is past
        ``until``, or after ``max_events`` (guarding against protocol
        oscillation bugs).  Returns the number of events processed.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        processed = 0
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        try:
            while self._heap:
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "possible protocol oscillation"
                    )
                event = self._heap[0]
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = event.time
                event.action()
                processed += 1
                self.events_processed += 1
        finally:
            self._running = False
            if registry.enabled:
                wall = watch.elapsed()
                registry.counter("sim.runs_total").inc()
                registry.counter("sim.events_processed_total").inc(processed)
                registry.histogram("sim.run_wall_seconds").observe(wall)
                registry.histogram("sim.run_events").observe(processed)
                if wall > 0 and processed:
                    registry.gauge("sim.events_per_wall_second").set(
                        processed / wall
                    )
        # Advance the clock to the horizon even when the next event
        # lies beyond it — otherwise repeated run(until=now+step)
        # calls would never make progress across quiet periods.
        if until is not None and self._now < until:
            self._now = until
        return processed

    def run_until_quiescent(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain; returns the last event's time."""
        self.run(max_events=max_events)
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return sum(1 for e in self._heap if not e.cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when idle."""
        for event in sorted(self._heap):
            if not event.cancelled:
                return event.time
        return None


class DelayModel:
    """Per-router processing-delay profile.

    The §7 feasibility study measured characteristic delays on Cisco
    routers: ~25 s from TTY config to soft reconfiguration, ~4 ms
    from decision to FIB install, ~8 ms advertisement propagation,
    ~0.1 ms for a pre-computed FIB write.  These defaults reproduce
    that regime; tests and benchmarks override them freely.
    """

    def __init__(
        self,
        fib_install: float = 0.004,
        rib_update: float = 0.001,
        advertisement: float = 0.004,
        config_to_reconfig: float = 25.0,
        spf_compute: float = 0.002,
    ):
        for name, value in (
            ("fib_install", fib_install),
            ("rib_update", rib_update),
            ("advertisement", advertisement),
            ("config_to_reconfig", config_to_reconfig),
            ("spf_compute", spf_compute),
        ):
            if value < 0:
                raise SimulationError(f"negative delay {name}={value}")
        self.fib_install = fib_install
        self.rib_update = rib_update
        self.advertisement = advertisement
        self.config_to_reconfig = config_to_reconfig
        self.spf_compute = spf_compute

    @classmethod
    def instant(cls) -> "DelayModel":
        """All-zero delays; useful for logic-only unit tests."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def paper_fig5(cls) -> "DelayModel":
        """The exact delays reported in the paper's Fig. 5."""
        return cls(
            fib_install=0.004,
            rib_update=0.0001,
            advertisement=0.004,
            config_to_reconfig=25.0,
            spf_compute=0.002,
        )
