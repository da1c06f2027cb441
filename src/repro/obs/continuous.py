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
from typing import Any, Dict, List, Optional, Tuple

from repro import obs

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
        #: Arrival-time clock (max arrival time seen).
        self.clock = 0.0
        #: Newest event timestamp across all routers.
        self.newest_event_time = 0.0
        self.events_seen = 0
        #: Min-heap of event timestamps not yet <= the frontier.
        self._pending: List[float] = []
        #: The registry the gauges below were bound on (see _publish).
        self._registry: Optional[Any] = None
        self._lag_gauges: Dict[str, Any] = {}
        self._scalar_gauges: Tuple[Any, ...] = ()

    # -- wiring -----------------------------------------------------------

    def attach(self, streaming: Any) -> "WatermarkTracker":
        """Subscribe to a :class:`StreamingInference` delta feed."""
        streaming.subscribe(self.observe)
        return self

    # -- the feed ---------------------------------------------------------

    def observe(
        self, event: Any, relinked: Tuple[Any, ...] = ()
    ) -> None:
        """One observed event (the ``subscribe()`` listener)."""
        self.events_seen += 1
        arrival = (
            self.view.arrival_time(event)
            if self.view is not None
            else event.timestamp
        )
        if arrival > self.clock:
            self.clock = arrival
        if event.timestamp > self.newest_event_time:
            self.newest_event_time = event.timestamp
        current = self._watermarks.get(event.router)
        if current is None or event.timestamp > current:
            self._watermarks[event.router] = event.timestamp
        heapq.heappush(self._pending, event.timestamp)
        frontier = self.frontier()
        while self._pending and self._pending[0] <= frontier:
            heapq.heappop(self._pending)
        self._publish(frontier)

    # -- read side --------------------------------------------------------

    def frontier(self) -> float:
        """The global watermark: min per-router watermark (0 if none).

        Every event at or before the frontier has been observed from
        *every* router that has ever reported — the completeness line
        a verdict can be trusted up to.
        """
        if not self._watermarks:
            return 0.0
        return min(self._watermarks.values())

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

    # -- publishing -------------------------------------------------------

    def _publish(self, frontier: float) -> None:
        registry = obs.get_registry()
        if not registry.enabled:
            return
        if registry is not self._registry:
            # Bind instruments once per registry: looking a labelled
            # gauge up costs a label-key sort, per router, per event.
            self._registry = registry
            self._lag_gauges = {}
            self._scalar_gauges = (
                registry.gauge("stream.watermark_frontier"),
                registry.gauge("stream.backlog_depth"),
                registry.gauge("stream.newest_event_time"),
            )
        lag_gauges = self._lag_gauges
        if len(lag_gauges) != len(self._watermarks):
            for router in sorted(self._watermarks):
                if router not in lag_gauges:
                    lag_gauges[router] = registry.gauge(
                        "stream.watermark_lag_seconds", router=router
                    )
        # lag_of() for every router, minus a call and a lookup each.
        clock, tolerance = self.clock, self.skew_tolerance
        watermarks = self._watermarks
        for router, gauge in lag_gauges.items():
            gauge.set(max(0.0, clock - watermarks[router] - tolerance))
        frontier_gauge, backlog_gauge, newest_gauge = self._scalar_gauges
        frontier_gauge.set(frontier)
        backlog_gauge.set(len(self._pending))
        newest_gauge.set(self.newest_event_time)


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
        #: prefix-str -> (first_address, last_address) of tracked keys.
        self._ranges: Dict[str, Tuple[int, int]] = {}
        #: prefix-str -> event time of the first unjudged FIB update.
        self._suspect: Dict[str, float] = {}
        #: prefix-str -> verdict time the open failure started.
        self._failing: Dict[str, float] = {}
        self.detections = 0
        self.exposures_closed = 0
        #: routers whose ``verify.last_verdict_ok`` gauge we set to 0.
        self._failed_routers: set = set()

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
        # Duck-typed FIB_UPDATE check (no IOKind import; see module
        # docstring on layering).
        kind = getattr(event.kind, "name", event.kind)
        if kind == "FIB_UPDATE" and event.prefix is not None:
            self._mark_suspect(event)

    def _mark_suspect(self, event: Any) -> None:
        prefix = event.prefix
        key = str(prefix)
        first = prefix.first_address()
        last = prefix.last_address()
        if key not in self._ranges:
            if self.atoms is not None:
                self.atoms.ensure(prefix)
            self._ranges[key] = (first, last)
        self._suspect.setdefault(key, event.timestamp)
        # Atom-table attribution: the verifier re-probes every atom
        # inside the update's range, so any tracked prefix sharing an
        # atom is equally suspect from this update on.
        for other, (ofirst, olast) in self._ranges.items():
            if other != key and not (olast < first or last < ofirst):
                self._suspect.setdefault(other, event.timestamp)

    # -- the verdict feed -------------------------------------------------

    def on_verdict(self, record: Any) -> None:
        """One ledger record (the ``VerdictLedger.subscribe`` listener)."""
        registry = obs.get_registry()
        if registry.enabled:
            staleness = max(
                0.0, self.tracker.newest_event_time - record.at
            )
            registry.histogram("verify.verdict_staleness_seconds").observe(
                staleness
            )
            registry.gauge(
                "verify.last_verdict_ok",
                router=record.router if record.router else "all",
            ).set(1.0 if record.ok else 0.0)
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
            registry.gauge("verify.exposed_prefixes").set(
                len(self._failing)
            )
            # Once no failure is open the plane is green: a stale FAIL
            # on a router whose update merely *triggered* a since-cured
            # check would misread as an ongoing problem.
            if record.ok and not self._failing and self._failed_routers:
                for router in sorted(self._failed_routers):
                    registry.gauge(
                        "verify.last_verdict_ok", router=router
                    ).set(1.0)
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
