"""Incremental atom-based verification: §5 per FIB delta, not per snapshot.

The paper's verifier is meant to run *continuously* as updates stream
in, but the batch pipeline re-derives the whole §5 closure and
re-probes every policy per snapshot — the scaling bottleneck BENCH
C-SCALE exposed.  This module is the Delta-net-style answer
(PAPERS.md): partition the address space into atoms
(:mod:`repro.verify.atoms`), maintain per-router forwarding state
incrementally, and on each FIB delta re-check only

* the §5 consistency of the delta's own prefix, against the facts and
  per-prefix memos :class:`ConsistentSnapshotter` maintains from the
  same feed (:meth:`ConsistentSnapshotter.observe`), and
* the policy invariants of the probe addresses inside the delta's
  atoms, from the sources whose path crosses the delta's router —
  every other (address, source) trace is provably untouched by it.

CB-VER's stable-interface framing (PAPERS.md) dictates the contract
held invariant between deltas: after every observed event, verdicts
equal what the batch path (fresh :class:`ConsistentSnapshotter` +
:class:`DataPlaneVerifier` over the visible event set) would produce.
The ``verify-incremental-equivalence`` testkit oracle checks exactly
that after every delta of a fuzzed execution.

One deliberate global exception to atom locality: the *first* FIB
entry a router ever installs (and, symmetrically, a replay wiping a
router) flips :meth:`DataPlaneSnapshot.trace`'s external-router
heuristic for every address, so such deltas re-probe all atoms.

The Fig. 3 guard (:mod:`repro.core.pipeline`) asks the same state
about a write that is still *pending*: :meth:`IncrementalVerifier.what_if`
applies it, re-probes the touched atoms, diffs and restores.

The delta feed is :meth:`StreamingInference.subscribe`; the contract
above rests on the streaming graph equalling the batch build after
every observe, even under per-router log lag (arrival-order feeds).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.inference import InferenceEngine, StreamingInference
from repro.net.addr import Prefix
from repro.net.topology import Topology
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry, VerifierView
from repro.snapshot.consistent import ConsistencyReport, ConsistentSnapshotter
from repro.verify.atoms import AtomTable
from repro.verify.policy import Policy, Violation


#: (verdict context, violations in probe_sources order) of one address.
_Verdict = Tuple[object, Tuple[Violation, ...]]


def incremental_engine() -> InferenceEngine:
    """The inference engine the incremental feed runs on."""
    return InferenceEngine()


def _apply_instruments(registry):
    """What :meth:`IncrementalVerifier.apply` binds per registry."""
    return (
        registry.gauge("verify.atoms_total"),
        registry.histogram("verify.atoms_touched"),
        registry.histogram("verify.incremental_seconds"),
        registry.counter("verify.incremental_deltas_total"),
    )


class IncrementalVerifier:
    """Per-delta §5 + policy verification over a streaming HBG.

    Wire-up::

        engine = incremental_engine()
        streaming = engine.streaming()
        verifier = IncrementalVerifier(
            internal_routers, topology=topo, policies=[...],
            view=view, engine=engine,
        ).attach(streaming)
        for event in events_in_arrival_order:
            streaming.observe(event)   # verifier.ingest() runs inside
        verifier.violations(), verifier.consistency(prefix)
    """

    def __init__(
        self,
        internal_routers: Sequence[str],
        topology: Optional[Topology] = None,
        policies: Sequence[Policy] = (),
        view: Optional[VerifierView] = None,
        engine: Optional[InferenceEngine] = None,
        inflight_bound: float = 0.1,
        max_unmatched_age: Optional[float] = 30.0,
    ):
        self.internal_routers = set(internal_routers)
        self.topology = topology
        self.policies: Tuple[Policy, ...] = tuple(policies)
        self.view = view
        self.engine = engine or incremental_engine()
        self.snapshotter = ConsistentSnapshotter(
            view,
            internal_routers,
            engine=self.engine,
            inflight_bound=inflight_bound,
            max_unmatched_age=max_unmatched_age,
        )
        self.streaming: Optional[StreamingInference] = None
        self.atoms = AtomTable()
        #: The incrementally maintained forwarding reconstruction.
        self.snapshot = DataPlaneSnapshot()
        #: Last §5 report per prefix (refreshed on each delta).
        self._reports: Dict[Prefix, ConsistencyReport] = {}
        #: Per policy: judged probe address -> (verdict context, its
        #: violations in probe_sources order).  Values are immutable,
        #: so a shallow copy is a snapshot (what_if's copy-on-write).
        self._policy_hits: List[Dict[int, _Verdict]] = [
            {} for _ in self.policies
        ]
        #: ``sorted`` keys of each cache; None once an address came or went.
        self._judged: List[Optional[List[int]]] = [None] * len(self.policies)
        #: Verifier-visible wall clock (max arrival time seen).
        self.clock = 0.0
        # Plain accumulators for benchmarks (the registry histograms
        # carry the same numbers when obs is enabled).
        self.deltas_applied = 0
        self.verify_seconds_total = 0.0
        self.check_seconds_total = 0.0
        self.checks_run = 0
        self.atoms_touched_total = 0
        self._instruments = obs.Bound(_apply_instruments)

    # -- wiring -----------------------------------------------------------

    def attach(self, streaming: StreamingInference) -> "IncrementalVerifier":
        """Subscribe to a streaming inference's delta feed."""
        self.streaming = streaming
        streaming.subscribe(self.ingest)
        return self

    def invalidate(self) -> None:
        """Rollback-replay hook: drop all derived state.

        Replayed captures re-use event ids, so every cache keyed by
        event id or (router, prefix) — the snapshotter's §5 facts and
        memos, the forwarding reconstruction — may silently describe a
        different event after a replay.  The repair engine calls this
        for registered verifiers/snapshotters after applying reverts.
        """
        self.snapshotter.invalidate()
        self.snapshot = DataPlaneSnapshot()
        self._reports.clear()
        for cache in self._policy_hits:
            cache.clear()
        self._judged = [None] * len(self.policies)

    # -- the delta feed ---------------------------------------------------

    def ingest(self, event: IOEvent, relinked: Tuple[IOEvent, ...] = ()) -> None:
        """Feed one observed event plus the events re-linked by it.

        This is the :meth:`StreamingInference.subscribe` listener.
        Every event goes to the snapshotter's §5 bookkeeping; FIB
        deltas additionally trigger the scoped re-verification in
        :meth:`apply`.
        """
        arrival = (
            self.view.arrival_time(event)
            if self.view is not None
            else event.timestamp
        )
        if arrival > self.clock:
            self.clock = arrival
        self.snapshotter.observe(event, relinked, self.streaming.graph)
        if event.kind is IOKind.FIB_UPDATE and event.prefix is not None:
            self.apply(event)

    def apply(self, event: IOEvent) -> ConsistencyReport:
        """Apply one FIB delta: update atoms and forwarding state,
        re-check §5 for the delta's prefix, and re-probe the policies
        of the touched atoms."""
        registry = obs.get_registry()
        watch = obs.Stopwatch()
        prefix = event.prefix
        self.atoms.ensure(prefix)
        touched = len(self.atoms.atoms_within(prefix))
        self.atoms_touched_total += touched
        global_dirty = False
        if event.action is RouteAction.WITHDRAW:
            self.snapshot.remove(event.router, prefix)
        else:
            if not self.snapshot.has_router(event.router):
                # First entry ever on this router: the trace heuristic
                # flips from "external, delivered" to "internal, may
                # blackhole" for every address — atom locality does
                # not apply, re-probe everything.
                global_dirty = True
            self.snapshot.install(SnapshotEntry.from_event(event))
        self.snapshot.set_taken_at(self.clock)
        report = self.consistency(prefix)
        self._refresh_policies(prefix, global_dirty)
        elapsed = watch.elapsed()
        self.deltas_applied += 1
        self.verify_seconds_total += elapsed
        if registry.enabled:
            atoms_total, atoms_touched, seconds, deltas = (
                self._instruments.on(registry)
            )
            atoms_total.set(self.atoms.atom_count())
            atoms_touched.observe(touched)
            seconds.observe(elapsed)
            deltas.inc()
        verdicts = obs.get_verdicts()
        if verdicts.enabled:
            prefix_violations = self._violations_within(prefix)
            ok = report.consistent and not prefix_violations
            if not report.consistent:
                detail = report.first_reason() or "inconsistent"
            elif prefix_violations:
                detail = str(prefix_violations[0])
            else:
                detail = "ok"
            verdicts.record(
                kind="incremental",
                at=self.clock,
                ok=ok,
                prefix=str(prefix),
                router=event.router,
                event_id=event.event_id,
                event_time=event.timestamp,
                detail=detail,
                violations=len(prefix_violations),
                missing_routers=tuple(report.missing_routers),
                refs=(event.event_id,),
            )
        return report

    def what_if(
        self, router: str, prefix: Prefix, entry: Optional[SnapshotEntry]
    ) -> List[Violation]:
        """Violations a *pending* FIB write would introduce.

        ``entry`` is the entry about to be installed at ``router`` for
        ``prefix`` (``None``: a withdraw).  The write is applied to the
        maintained snapshot, the touched atoms re-probed exactly as
        :meth:`apply` would, and the violation keys diffed — an update
        that leaves existing violations in place (or removes some)
        during convergence is not blamed for them.  The snapshot and
        the per-policy caches are back at their pre-call values on
        return; nothing else (atoms, §5 bookkeeping) is touched.
        """
        before = {violation.key() for violation in self.violations()}
        caches = [dict(cache) for cache in self._policy_hits]
        judged = list(self._judged)
        global_dirty = entry is not None and not self.snapshot.has_router(
            router
        )
        with self.snapshot.hypothetically(router, prefix, entry):
            self._refresh_policies(prefix, global_dirty)
            introduced = [
                violation
                for violation in self.violations()
                if violation.key() not in before
            ]
        self._policy_hits, self._judged = caches, judged
        return introduced

    # -- verdicts ---------------------------------------------------------

    def consistency(
        self, prefix: Prefix, at: Optional[float] = None
    ) -> ConsistencyReport:
        """The §5 verdict for one prefix at the current visibility.

        Equals a batch :meth:`ConsistentSnapshotter.check` with the
        same prefix over the visible event set (``consistent`` and
        ``missing_routers``; see ``check_incremental`` for the caveat
        on ``steps``).
        """
        if self.streaming is None:
            raise RuntimeError("attach() a StreamingInference first")
        watch = obs.Stopwatch()
        report = self.snapshotter.check_incremental(
            self.streaming.graph, prefix, self.clock if at is None else at
        )
        self.check_seconds_total += watch.elapsed()
        self.checks_run += 1
        self._reports[prefix] = report
        return report

    def last_report(self, prefix: Prefix) -> Optional[ConsistencyReport]:
        return self._reports.get(prefix)

    def _violations_within(self, prefix: Prefix) -> List[Violation]:
        """Cached policy violations probed inside ``prefix``'s range."""
        result: List[Violation] = []
        for index, cache in enumerate(self._policy_hits):
            for address in self._judged_within(index, prefix):
                result.extend(cache[address][1])
        return result

    def violations(self) -> List[Violation]:
        """Current policy violations, in batch-verifier order."""
        result: List[Violation] = []
        for index, cache in enumerate(self._policy_hits):
            for address in self._judged_within(index, None):
                result.extend(cache[address][1])
        return result

    # -- internals --------------------------------------------------------

    def _judged_within(self, index: int, prefix: Optional[Prefix]) -> List[int]:
        """Policy ``index``'s judged addresses inside ``prefix`` (None:
        all), ascending."""
        judged = self._judged[index]
        if judged is None:
            judged = self._judged[index] = sorted(self._policy_hits[index])
        if prefix is None:
            return judged
        low = bisect_left(judged, prefix.first_address())
        return judged[low : bisect_right(judged, prefix.last_address(), low)]

    def _refresh_policies(self, prefix: Prefix, global_dirty: bool) -> None:
        """Re-judge the probe addresses inside the delta's prefix; of
        each, only the stale sources (no memoised trace: the delta
        dropped those whose path visits its router), unless the address
        is new to the policy's cache or its verdict context changed."""
        if not self.policies or self.topology is None:
            return
        snapshot, topology = self.snapshot, self.topology
        first = prefix.first_address()
        last = prefix.last_address()
        scopes = []
        for index, policy in enumerate(self.policies):
            cache = self._policy_hits[index]
            relevant = policy.probe_addresses(snapshot)
            if global_dirty:
                cache.clear()
                self._judged[index] = None
            else:
                low = bisect_left(relevant, first)
                relevant = relevant[low : bisect_right(relevant, last, low)]
                # Forget addresses a withdraw took out of the probe set.
                for gone in set(self._judged_within(index, prefix)) - set(relevant):
                    del cache[gone]
                    self._judged[index] = None
            scopes.append((index, policy, cache, relevant))
        # Read once, before any policy re-traces: the memo is shared, so
        # the first policy's re-trace would hide a stale source.
        traced = {
            address: snapshot.traced_sources(address)
            for *_, relevant in scopes
            for address in relevant
        }
        for index, policy, cache, relevant in scopes:
            if not relevant:
                continue
            sources = policy.probe_sources(snapshot, topology)
            context = policy.verdict_context(topology)
            for address in relevant:
                known = cache.get(address)
                if known is None or known[0] != context:
                    stale, kept = sources, []
                    if known is None:
                        self._judged[index] = None
                else:
                    stale = [s for s in sources if s not in traced[address]]
                    if not stale:
                        continue
                    kept = [v for v in known[1] if v.router not in stale]
                found = kept + policy.check_addresses(
                    snapshot, topology, [address], sources=stale
                )
                if kept:
                    found.sort(key=lambda v, order=sources: order.index(v.router))
                cache[address] = (context, tuple(found))
