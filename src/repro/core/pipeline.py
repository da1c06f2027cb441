"""The integrated verification/repair pipeline (Fig. 3).

    "Our proposal is for each router to capture all control plane
    inputs and outputs, send them to a centralized data plane
    verifier, and only allow the data plane to be updated if the
    inputs and outputs are deemed correct."  (§1)

The pipeline subscribes to the capture collector (maintaining the
HBG incrementally via streaming inference) and installs a guard at
every internal router's FIB boundary.  When a FIB write is attempted:

1. the write is applied, as a *what-if delta*, to the forwarding
   reconstruction the incremental verifier already maintains from the
   same event stream, and only the atoms it touches are re-probed;
2. only violations *introduced* by the write are counted —
   legitimate convergence transitions that shrink or preserve the
   violation set pass through — and the reconstruction is put back;
3. an offending write is blocked (in ``BLOCK``/``REPAIR`` modes), its
   provenance is traced from its causing RIB update back to HBG
   leaves, and in ``REPAIR`` mode the root-cause configuration change
   is reverted through the versioned config store — once per change,
   however many routers' updates it poisoned.

The pipeline also offers the offline path (``detect_and_repair``)
corresponding to §6's first variant: verify a consistent snapshot
after the fact, trace each violating FIB entry, and revert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.capture.io_events import IOKind
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.protocols.fib import FibEntry
from repro.repair.provenance import ProvenanceResult, ProvenanceTracer
from repro.repair.rollback import RepairEngine, RepairReport
from repro.snapshot.base import SnapshotEntry, VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier
from repro.verify.policy import Policy, Violation
from repro.verify.verifier import DataPlaneVerifier


class PipelineMode(enum.Enum):
    """What the pipeline does about a bad update."""

    MONITOR = "monitor"  # detect and record only
    BLOCK = "block"  # block the update (the §2 strawman)
    REPAIR = "repair"  # block + revert the root cause (the paper)


@dataclass
class PipelineIncident:
    """One caught-bad-update episode."""

    at: float
    router: str
    prefix: Prefix
    introduced_violations: List[Violation]
    provenance: Optional[ProvenanceResult]
    blocked: bool
    repair: Optional[RepairReport] = None

    def describe(self) -> str:
        lines = [
            f"incident @{self.at:.3f}s: FIB update for {self.prefix} "
            f"on {self.router} would introduce "
            f"{len(self.introduced_violations)} violation(s) "
            f"({'blocked' if self.blocked else 'allowed'})"
        ]
        for violation in self.introduced_violations:
            lines.append(f"  {violation}")
        if self.provenance is not None:
            lines.append("  " + self.provenance.describe().replace("\n", "\n  "))
        if self.repair is not None:
            lines.append("  " + self.repair.describe().replace("\n", "\n  "))
        return "\n".join(lines)


class IntegratedControlPlane:
    """Fig. 3, operational: capture -> verify -> trace -> block/repair."""

    def __init__(
        self,
        network,
        policies: Sequence[Policy],
        mode: PipelineMode = PipelineMode.REPAIR,
        engine: Optional[InferenceEngine] = None,
        repair_settle: float = 60.0,
    ):
        self.network = network
        self.mode = mode
        self.engine = engine or InferenceEngine()
        self.verifier = DataPlaneVerifier(network.topology, policies)
        self.repair_engine = RepairEngine(network, self.verifier)
        self.repair_settle = repair_settle
        self.incidents: List[PipelineIncident] = []
        self.updates_checked = 0
        self.updates_blocked = 0
        #: Config change ids already reverted (dedup across incidents).
        self._reverted_change_ids: Set[int] = set()
        self._stream = self.engine.streaming()
        #: Rides the streaming HBG's delta feed: the per-delta verdicts
        #: and the forwarding reconstruction the guard asks what-ifs of
        #: (co-located with the collector, so zero delivery lag).
        self.incremental = IncrementalVerifier(
            network.topology.internal_routers(),
            topology=network.topology,
            policies=policies,
            engine=self.engine,
        ).attach(self._stream)
        network.collector.subscribe(self._stream.observe)
        # Catch up on any events captured before attachment.
        for event in network.collector:
            self._stream.observe(event)

    # -- lifecycle -------------------------------------------------------------

    def arm(self) -> "IntegratedControlPlane":
        """Install the FIB guard on every internal router."""
        self.network.set_fib_guard(self._guard)
        return self

    def disarm(self) -> None:
        self.network.set_fib_guard(None)

    @property
    def hbg(self):
        """The incrementally-maintained happens-before graph."""
        return self._stream.graph

    # -- the guard ---------------------------------------------------------------

    def _guard(
        self,
        router: str,
        old: Optional[FibEntry],
        new: Optional[FibEntry],
    ) -> bool:
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        self.updates_checked += 1
        entry = new if new is not None else old
        if entry is None:
            return True
        prefix = entry.prefix
        pending = (
            None
            if new is None
            else SnapshotEntry.from_fib_entry(router, new, self.network.sim.now)
        )
        introduced = self.incremental.what_if(router, prefix, pending)
        if not introduced:
            if registry.enabled:
                registry.counter("verify.fib_writes_verified").inc()
                registry.histogram(
                    "verify.fib_write_latency_seconds"
                ).observe(watch.elapsed())
            return True
        provenance = self._trace_pending_update(router, prefix)
        blocked = self.mode is not PipelineMode.MONITOR
        incident = PipelineIncident(
            at=self.network.sim.now,
            router=router,
            prefix=prefix,
            introduced_violations=introduced,
            provenance=provenance,
            blocked=blocked,
        )
        self.incidents.append(incident)
        if blocked:
            self.updates_blocked += 1
        if self.mode is PipelineMode.REPAIR and provenance is not None:
            incident.repair = self._repair_once(provenance)
        if registry.enabled:
            registry.counter("verify.fib_writes_verified").inc()
            registry.counter("repair.incidents_total").inc()
            registry.counter(
                "verify.violations_introduced_total"
            ).inc(len(introduced))
            if blocked:
                registry.counter("verify.fib_writes_blocked").inc()
            registry.histogram("verify.fib_write_latency_seconds").observe(
                watch.elapsed()
            )
        return not blocked

    def _trace_pending_update(
        self, router: str, prefix: Prefix
    ) -> Optional[ProvenanceResult]:
        """Provenance of the not-yet-installed FIB update.

        The FIB event does not exist (the write is pending), but its
        would-be parent does: the latest RIB_UPDATE for the same
        router and prefix.  Trace from there.
        """
        candidates = [
            event
            for event in self.network.collector.query(
                router=router, kind=IOKind.RIB_UPDATE, prefix=prefix
            )
            if event.event_id in self._stream.graph
        ]
        if not candidates:
            return None
        latest = max(candidates, key=lambda e: (e.timestamp, e.event_id))
        tracer = ProvenanceTracer(self._stream.graph)
        return tracer.trace(latest.event_id)

    def _repair_once(
        self, provenance: ProvenanceResult
    ) -> Optional[RepairReport]:
        """Revert root causes not already reverted this session."""
        new_ids = {
            change_id
            for change_id in provenance.config_change_ids()
            if change_id not in self._reverted_change_ids
        }
        if not new_ids:
            return None
        self._reverted_change_ids.update(new_ids)
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        # Note: settle=0 here; the revert propagates through the
        # already-running simulation rather than a nested run() call
        # (the guard fires *inside* a simulation event).
        report = self.repair_engine.repair(
            provenance, settle=0.0, only_change_ids=new_ids
        )
        if registry.enabled:
            registry.counter("repair.root_causes_reverted_total").inc(
                len(new_ids)
            )
            registry.histogram("repair.repair_seconds").observe(
                watch.elapsed()
            )
        # The reverts themselves are config changes; they must never be
        # treated as root causes to revert later (that would oscillate).
        for action in report.actions:
            if action.inverse_applied is not None:
                self._reverted_change_ids.add(action.inverse_applied.change_id)
        return report

    # -- offline detection (the monitoring path) -----------------------------------

    def detect_and_repair(
        self,
        view: Optional[VerifierView] = None,
        at: Optional[float] = None,
        wait_deadline: float = 5.0,
        settle: float = 60.0,
    ) -> Tuple[List[Violation], Optional[RepairReport]]:
        """§6 variant 1: verify a consistent snapshot, trace, revert.

        Uses the consistent snapshotter (waiting for stragglers up to
        ``wait_deadline`` seconds past ``at``) so the verifier never
        acts on a phantom violation.
        """
        when = at if at is not None else self.network.sim.now
        view = view or VerifierView(self.network.collector)
        snapshotter = ConsistentSnapshotter(
            view,
            internal_routers=self.network.topology.internal_routers(),
            engine=self.engine,
        )
        with obs.span("pipeline.detect_and_repair"):
            snapshot, report, got_at = snapshotter.wait_until_consistent(
                when, when + wait_deadline
            )
            if snapshot is None:
                return [], None
            with obs.span("pipeline.offline_verify"):
                result = self.verifier.verify(snapshot)
            if result.ok:
                return [], None
            with obs.span("pipeline.offline_trace"):
                graph = self.engine.build_graph(view.visible_events(got_at))
                tracer = ProvenanceTracer(graph)
                violating_event_ids: List[int] = []
                for violation in result.violations:
                    for hop in violation.path:
                        entry = (
                            snapshot.entry(hop, violation.prefix)
                            if violation.prefix is not None
                            else None
                        )
                        if entry is not None and entry.source_event_id in graph:
                            violating_event_ids.append(entry.source_event_id)
                if not violating_event_ids:
                    return result.violations, None
                provenance = tracer.trace_many(violating_event_ids)
            with obs.span("pipeline.offline_repair"):
                repair = self.repair_engine.repair(provenance, settle=settle)
            return result.violations, repair

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"pipeline[{self.mode.value}]: {self.updates_checked} updates "
            f"checked, {self.updates_blocked} blocked, "
            f"{len(self.incidents)} incident(s), "
            f"{len(self._reverted_change_ids)} change(s) reverted"
        ]
        for incident in self.incidents:
            lines.append(incident.describe())
        return "\n".join(lines)
