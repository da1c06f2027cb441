"""Continuous-verification telemetry: watermarks and detection SLIs.

The paper's pitch is verification *inside* the control plane, running
while the network operates — so the operator-facing quantities are
stream-shaped: how far behind live capture is each router's event
feed (watermark lag), how much captured input is still ahead of the
verdict frontier (backlog, staleness), and — the number that
justifies the whole architecture — how long the network was exposed
between a fault and its verdict or repair.  This module derives all
of them from the existing capture/verify plumbing:

* :class:`WatermarkTracker` consumes the
  :meth:`StreamingInference.subscribe` delta feed and maintains
  per-router **event-time watermarks** (the newest capture timestamp
  seen per router), a clock-skew-adjusted lag gauge per router
  (``stream.watermark_lag_seconds{router=}``), the global frontier
  (the minimum watermark — everything at or before it is complete),
  and the pipeline **backlog depth** (events newer than the
  frontier, i.e. observed but not yet frontier-complete);
* :class:`ContinuousMonitor` composes the tracker with the verdict
  ledger (:mod:`repro.obs.ledger`) into the three SLIs:

  - ``verify.detection_latency_seconds`` — violation-introducing FIB
    update (event time) → first *failing* verdict for that prefix.
    Per-prefix suspect timestamps are attributed through an
    :class:`~repro.verify.atoms.AtomTable`: an update whose address
    range overlaps an already-tracked prefix marks that prefix
    suspect too, exactly the atoms the incremental verifier
    re-probes.
  - ``verify.exposure_seconds`` — failing verdict → the passing
    verdict or §6 rollback that closes it (a rollback closes every
    open failure; a passing whole-plane snapshot verdict does too).
  - ``verify.verdict_staleness_seconds`` — newest captured event time
    minus the verdict's own time: how far behind capture the verdict
    frontier runs.

All times are capture/simulation timestamps, never wall clocks, so
the SLIs are deterministic for a fixed scenario — hand-computable
from the event timeline, which is exactly how the tests pin them.

Zero overhead when off: nothing here hooks the pipeline unless
explicitly attached, and the registry publishes only when metrics are
enabled.  The tripping-tracker benchmark guard asserts an unattached
pipeline never reaches :meth:`WatermarkTracker.observe`.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.metrics import Bound, Family

# Deliberately no imports from repro.capture / repro.verify: ``obs``
# is importable from every layer (LAY001 EXEMPT), so an obs module
# importing a higher layer would close an import cycle (LAY002).
# Events and atom tables arrive duck-typed through the subscribe
# hooks instead.


class WatermarkTracker:
    """Per-router event-time watermarks over the streaming delta feed.

    ``view`` (a :class:`~repro.snapshot.base.VerifierView`) supplies
    per-router capture lags so the tracker's clock advances in
    *arrival* time like the incremental verifier's; without one,
    arrival time equals event time.  ``skew_tolerance`` (the
    :class:`InferenceConfig.clock_skew_tolerance` default) is
    subtracted from reported lag: two routers within the tolerance
    are indistinguishable, so their lag reads 0 rather than noise.

    The ``stream.*`` gauges read through to the accessors below
    (:meth:`Gauge.read_from`): an event pays for no gauge, and each
    accessor is a point read, safe from a scrape thread.
    """

    def __init__(
        self,
        view: Optional[Any] = None,
        skew_tolerance: float = 0.05,
    ) -> None:
        self.view = view
        self.skew_tolerance = skew_tolerance
        #: router -> newest event timestamp seen (the watermark).
        self._watermarks: Dict[str, float] = {}
        #: min(_watermarks.values()) and a router holding it: it can
        #: only move when the holder advances or a new router reports.
        self._frontier = 0.0
        self._frontier_router: Optional[str] = None
        #: Arrival-time clock (max arrival time seen).
        self.clock = 0.0
        #: Newest event timestamp across all routers.
        self.newest_event_time = 0.0
        self.events_seen = 0
        #: Min-heap of event timestamps not yet <= the frontier.
        self._pending: List[float] = []
        self._gauges = Bound(self._bind)

    # -- wiring -----------------------------------------------------------

    def attach(self, streaming: Any) -> "WatermarkTracker":
        """Subscribe to a :class:`StreamingInference` delta feed."""
        streaming.subscribe(self.observe)
        return self

    def _bind(self, registry: Any) -> None:
        gauges = self._gauges
        gauges.read_through("stream.watermark_frontier", self.frontier)
        gauges.read_through("stream.backlog_depth", self.backlog_depth)
        gauges.read_through(
            "stream.newest_event_time", lambda: self.newest_event_time
        )
        for router in sorted(self._watermarks):
            self._bind_lag(router)

    def _bind_lag(self, router: str) -> None:
        self._gauges.read_through(
            "stream.watermark_lag_seconds",
            partial(self.lag_of, router),
            router=router,
        )

    # -- the feed ---------------------------------------------------------

    def observe(
        self, event: Any, relinked: Tuple[Any, ...] = ()
    ) -> None:
        """One observed event (the ``subscribe()`` listener)."""
        registry = obs.get_registry()
        if registry.enabled:
            self._gauges.on(registry)
        self.events_seen += 1
        timestamp = event.timestamp
        arrival = (
            self.view.arrival_time(event)
            if self.view is not None
            else timestamp
        )
        if arrival > self.clock:
            self.clock = arrival
        if timestamp > self.newest_event_time:
            self.newest_event_time = timestamp
        router = event.router
        watermarks = self._watermarks
        current = watermarks.get(router)
        if current is None:
            if not watermarks or timestamp < self._frontier:
                self._frontier = timestamp
                self._frontier_router = router
            watermarks[router] = timestamp
            if registry.enabled:
                self._bind_lag(router)
        elif timestamp > current:
            watermarks[router] = timestamp
            if router == self._frontier_router:
                holder = min(watermarks, key=watermarks.__getitem__)
                self._frontier = watermarks[holder]
                self._frontier_router = holder
        pending = self._pending
        heapq.heappush(pending, timestamp)
        frontier = self._frontier
        while pending and pending[0] <= frontier:
            heapq.heappop(pending)

    # -- read side --------------------------------------------------------

    def frontier(self) -> float:
        """The global watermark: min per-router watermark (0 if none).

        Every event at or before the frontier has been observed from
        *every* router that has ever reported — the completeness line
        a verdict can be trusted up to.
        """
        return self._frontier

    def frontier_by_router(self) -> Dict[str, float]:
        """Per-router watermarks (the ledger's ``frontier`` stamp)."""
        return dict(self._watermarks)

    def lag_of(self, router: str) -> float:
        """Skew-adjusted lag of one router behind the arrival clock."""
        watermark = self._watermarks.get(router)
        if watermark is None:
            return 0.0
        return max(0.0, self.clock - watermark - self.skew_tolerance)

    def backlog_depth(self) -> int:
        """Observed events still ahead of the frontier."""
        return len(self._pending)


class ContinuousMonitor:
    """Derives the detection/exposure/staleness SLIs (module docstring).

    Wire-up::

        verdicts = obs.enable_verdicts(path="verdicts.jsonl")
        monitor = ContinuousMonitor(view=view).attach(streaming)
        monitor.bind_ledger(verdicts)
        for event in events_in_arrival_order:
            streaming.observe(event)
        # registry now carries verify.detection_latency_seconds etc.
    """

    def __init__(
        self,
        view: Optional[Any] = None,
        tracker: Optional[WatermarkTracker] = None,
        skew_tolerance: float = 0.05,
        atoms: Optional[Any] = None,
    ) -> None:
        self.tracker = (
            tracker
            if tracker is not None
            else WatermarkTracker(view=view, skew_tolerance=skew_tolerance)
        )
        #: Optional :class:`repro.verify.atoms.AtomTable` (injected —
        #: see the module docstring on layering) refined with every
        #: tracked prefix, aligning suspect attribution with the
        #: partition the incremental verifier re-probes.
        self.atoms = atoms
        #: The feed's FIB_UPDATE kind object, learned from the first
        #: one seen (no IOKind import; see the note on layering).
        self._fib_kind: Any = None
        #: tracked prefix -> (first address, last address, [its key,
        #: then the keys of the tracked prefixes overlapping it]).
        self._tracked: Dict[Any, Tuple[int, int, List[str]]] = {}
        #: prefix-str -> event time of the first unjudged FIB update.
        self._suspect: Dict[str, float] = {}
        #: prefix-str -> verdict time the open failure started.
        self._failing: Dict[str, float] = {}
        self.detections = 0
        self.exposures_closed = 0
        #: routers whose ``verify.last_verdict_ok`` gauge we set to 0.
        self._failed_routers: set = set()
        self._instruments = Bound(_verdict_instruments)

    # -- wiring -----------------------------------------------------------

    def attach(self, streaming: Any) -> "ContinuousMonitor":
        streaming.subscribe(self.on_event)
        return self

    def bind_ledger(self, verdicts: Any) -> "ContinuousMonitor":
        """Consume a :class:`VerdictLedger`'s append stream.

        Also stamps the ledger's records with this monitor's watermark
        frontier, so every persisted verdict carries the capture state
        it was judged against.
        """
        verdicts.subscribe(self.on_verdict)
        verdicts.attach_watermarks(self.tracker)
        return self

    # -- the event feed ---------------------------------------------------

    def on_event(
        self, event: Any, relinked: Tuple[Any, ...] = ()
    ) -> None:
        self.tracker.observe(event, relinked)
        kind = event.kind
        if (
            self._fib_kind is None
            and getattr(kind, "name", kind) == "FIB_UPDATE"
        ):
            self._fib_kind = kind
        if kind == self._fib_kind and event.prefix is not None:
            self._mark_suspect(event)

    def _mark_suspect(self, event: Any) -> None:
        tracked = self._tracked.get(event.prefix)
        if tracked is None:
            tracked = self._track(event.prefix)
        # Atom-table attribution: the verifier re-probes every atom
        # inside the update's range, so any tracked prefix sharing an
        # atom is equally suspect from this update on.
        for key in tracked[2]:
            self._suspect.setdefault(key, event.timestamp)

    def _track(self, prefix: Any) -> Tuple[int, int, List[str]]:
        """First sight of ``prefix``: the only time overlap between
        tracked prefixes changes, so both sides are worked out here."""
        if self.atoms is not None:
            self.atoms.ensure(prefix)
        first = prefix.first_address()
        last = prefix.last_address()
        keys = [str(prefix)]
        for ofirst, olast, others in self._tracked.values():
            if not (olast < first or last < ofirst):
                keys.append(others[0])
                others.append(keys[0])
        tracked = self._tracked[prefix] = (first, last, keys)
        return tracked

    # -- the verdict feed -------------------------------------------------

    def on_verdict(self, record: Any) -> None:
        """One ledger record (the ``VerdictLedger.subscribe`` listener)."""
        registry = obs.get_registry()
        if registry.enabled:
            staleness, last_ok, exposed = self._instruments.on(registry)
            staleness.observe(
                max(0.0, self.tracker.newest_event_time - record.at)
            )
            last_ok[record.router if record.router else "all"].set(
                1.0 if record.ok else 0.0
            )
            if not record.ok and record.router:
                self._failed_routers.add(record.router)
        if record.kind == "rollback":
            # A rollback closes every open failure: the root cause is
            # reverted, exposure ends at the rollback, whatever the
            # next verdict says about residual convergence.
            for key in sorted(self._failing):
                self._close(key, record.at, registry)
            self._suspect.clear()
        elif record.prefix is not None:
            if record.ok:
                self._suspect.pop(record.prefix, None)
                if record.prefix in self._failing:
                    self._close(record.prefix, record.at, registry)
            else:
                self._open(record, record.prefix, registry)
        else:
            # Whole-plane snapshot verdict: a pass clears everything; a
            # failure opens (only) the violated prefixes it names.
            if record.ok:
                for key in sorted(self._failing):
                    self._close(key, record.at, registry)
                self._suspect.clear()
            else:
                for key in self._violated_prefixes(record):
                    self._open(record, key, registry)
        if registry.enabled:
            exposed.set(len(self._failing))
            # Once no failure is open the plane is green: a stale FAIL
            # on a router whose update merely *triggered* a since-cured
            # check would misread as an ongoing problem.
            if record.ok and not self._failing and self._failed_routers:
                for router in sorted(self._failed_routers):
                    last_ok[router].set(1.0)
                self._failed_routers.clear()

    @staticmethod
    def _violated_prefixes(record: Any) -> List[str]:
        details = record.attrs.get("violation_detail", ())
        keys = sorted(
            {d["prefix"] for d in details if d.get("prefix")}
        )
        return keys if keys else ["*"]

    def _open(self, record: Any, key: str, registry: Any) -> None:
        if key in self._failing:
            return
        self._failing[key] = record.at
        introduced = self._suspect.pop(key, None)
        if introduced is None:
            # No FIB update was seen for this prefix (whole-plane
            # verdicts, pre-attach history): fall back to the verdict's
            # own trigger time — detection 0 when even that is absent.
            introduced = (
                record.event_time
                if record.event_time is not None
                else record.at
            )
        self.detections += 1
        if registry.enabled:
            registry.histogram("verify.detection_latency_seconds").observe(
                max(0.0, record.at - introduced)
            )

    def _close(self, key: str, at: float, registry: Any) -> None:
        started = self._failing.pop(key)
        self.exposures_closed += 1
        if registry.enabled:
            registry.histogram("verify.exposure_seconds").observe(
                max(0.0, at - started)
            )

    # -- read side --------------------------------------------------------

    def exposed_prefixes(self) -> List[str]:
        return sorted(self._failing)


def _verdict_instruments(registry: Any) -> Tuple[Any, Family, Any]:
    """What ``on_verdict`` binds per registry: the staleness histogram,
    ``last_verdict_ok`` by router, the exposed-prefixes gauge."""
    return (
        registry.histogram("verify.verdict_staleness_seconds"),
        Family(registry.gauge, "verify.last_verdict_ok", "router"),
        registry.gauge("verify.exposed_prefixes"),
    )


# -- the `repro watch` renderer ----------------------------------------------


def _fmt(value: Optional[float], suffix: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.3f}{suffix}"


def render_watch_table(
    registry: Any, verdicts: Optional[Any] = None
) -> str:
    """The ``repro watch`` status table, from the live registry.

    One row per router seen in ``stream.watermark_lag_seconds`` /
    ``verify.last_verdict_ok`` gauges; headline lines summarise the
    frontier, backlog, and the ledger tail when one is supplied.
    """
    lags: Dict[str, float] = {}
    last_ok: Dict[str, float] = {}
    frontier: Optional[float] = None
    backlog: Optional[float] = None
    exposed: Optional[float] = None
    for gauge in registry.gauges():
        labels = dict(gauge.labels)
        if gauge.name == "stream.watermark_lag_seconds":
            lags[labels.get("router", "?")] = gauge.value
        elif gauge.name == "verify.last_verdict_ok":
            last_ok[labels.get("router", "all")] = gauge.value
        elif gauge.name == "stream.watermark_frontier":
            frontier = gauge.value
        elif gauge.name == "stream.backlog_depth":
            backlog = gauge.value
        elif gauge.name == "verify.exposed_prefixes":
            exposed = gauge.value
    detection = exposure = None
    for histogram in registry.histograms():
        if histogram.name == "verify.detection_latency_seconds":
            detection = histogram.percentile(99)
        elif histogram.name == "verify.exposure_seconds":
            exposure = histogram.percentile(99)
    lines: List[str] = []
    lines.append(
        "frontier=%s  backlog=%s  exposed_prefixes=%s"
        % (
            _fmt(frontier, "s"),
            "-" if backlog is None else str(int(backlog)),
            "-" if exposed is None else str(int(exposed)),
        )
    )
    lines.append(
        "detection_p99=%s  exposure_p99=%s"
        % (_fmt(detection, "s"), _fmt(exposure, "s"))
    )
    if verdicts is not None:
        last = verdicts.last()
        tail = "-"
        if last is not None:
            status = "ok" if last.ok else "FAIL"
            where = last.prefix or last.router or "plane"
            tail = f"#{last.seq} {last.kind} {status} {where} @{last.at:g}"
        lines.append(
            f"verdicts={verdicts.appended_total}  last={tail}"
        )
    routers = sorted(set(lags) | set(last_ok) - {"all"})
    header = f"{'ROUTER':<12} {'LAG(s)':>10} {'VERDICT':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for router in routers:
        lag = lags.get(router)
        verdict_value = last_ok.get(router)
        if verdict_value is None:
            verdict = "-"
        else:
            verdict = "ok" if verdict_value >= 1.0 else "FAIL"
        lines.append(
            f"{router:<12} {_fmt(lag):>10} {verdict:>8}"
        )
    if not routers:
        lines.append("(no routers reporting)")
    return "\n".join(lines)
