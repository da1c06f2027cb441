"""The HBG-based consistent snapshotter (§5).

    "To obtain a consistent snapshot — i.e., one that reflects the
    FIB entries a packet would encounter as it traverses the network
    at a specific instance in time — we simply need to ensure that if
    a FIB snapshot from one router (R) was taken after applying a
    route update (U), then the FIB snapshot from every other router
    that had previously received U must also have been taken after
    applying U."

The check walks exactly the recursion the paper describes: starting
from each FIB update in the candidate cut, follow its advertisement
parents backwards.  A receive without its matching send in the HBG
means some router's I/Os have not arrived yet ("all router I/Os have
not been received and integrated into the HBG, so we may be missing
some FIB updates") — the snapshot is declared inconsistent and the
verifier is told which routers to wait for.  The walk terminates at
FIB updates that do not depend on an advertisement, or when "the
router from which the update was received is external to the
network".

This is a Chandy–Lamport-style consistent-cut condition specialised
to the HBG: the visible event set must be causally closed along
advertisement edges.

One walk serves two callers:

* :meth:`ConsistentSnapshotter.check` is the from-scratch reference:
  it derives the cut front, the FIB history and the unmatched sends
  from the visible stream, walks on call-scoped memos, and leaves no
  trace on the instance.
* :meth:`ConsistentSnapshotter.check_incremental` reads the same
  three facts from state :meth:`ConsistentSnapshotter.observe`
  maintains per event, against memos that survive across checks so a
  FIB delta re-checks one prefix at near-constant cost.  **The prefix
  is the unit of caching and of invalidation** (a walk never crosses
  prefixes): re-linking an event of prefix P, or a straggler FIB
  update for P landing at or before a cutoff a cached walk queried,
  drops P's memos and nothing else.  :meth:`invalidate` is the big
  hammer for rollback replay (docs/INCREMENTAL_VERIFY.md): a replayed
  capture re-uses event ids, so every maintained entry may silently
  describe a different event and must go before the replay is fed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import HappensBeforeGraph
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.snapshot.base import DataPlaneSnapshot, VerifierView


#: Distinguishes "memoized as absent" from "not yet memoized".
_UNSET: object = object()

#: Sorts after every real event id in the FIB-history bisect probes.
_AFTER_ANY_ID = float("inf")

#: Sorts before every cutoff a walk can query.
_BEFORE_ANY_TIME = float("-inf")

#: FIB protocols participating in the §5 BGP closure recursion.
_BGP_PROTOCOLS = ("ebgp", "ibgp", "bgp")

#: Per-(router, prefix) FIB updates, sorted by (timestamp, event id).
FibHistory = Dict[Tuple[str, Prefix], List[Tuple[float, int, IOEvent]]]

# Problem kinds a report records; ``(kind, event[, in_flight])``.
_UNMATCHED_SEND = "unmatched-send"
_RECEIVE_WITHOUT_SEND = "receive-without-send"
_SENDER_WITHOUT_FIB = "sender-without-fib"


def _describe(problem: tuple) -> str:
    """The human-readable explanation of one recorded problem."""
    kind, event = problem[0], problem[1]
    if kind == _UNMATCHED_SEND:
        why = (
            "may still be in flight"
            if problem[2]
            else "has not reached the verifier"
        )
        return (
            f"{event.router} sent {event.action.value if event.action else '?'} "
            f"for {event.prefix} to {event.peer} at {event.timestamp:.3f}s "
            f"but {event.peer}'s receive {why}"
        )
    if kind == _RECEIVE_WITHOUT_SEND:
        return (
            f"{event.router}'s HBG contains a route for "
            f"{event.prefix} via {event.peer} that has not been "
            f"announced in the HBG received from {event.peer}"
        )
    return (
        f"{event.peer} announced {event.prefix} but its own FIB "
        f"update has not reached the verifier"
    )


@dataclass
class ConsistencyReport:
    """Outcome of the §5 consistency check."""

    consistent: bool
    #: Internal routers whose logs the verifier must wait for.
    missing_routers: Set[str] = field(default_factory=set)
    #: Offending event id -> one ``(kind, event[, in_flight])`` tuple
    #: per problem found; :attr:`reasons` phrases them.  Keyed so the
    #: cached sub-reports several walks share merge in once.
    problems: Dict[int, tuple] = field(default_factory=dict)
    #: Number of walk steps performed (benchmark instrumentation).
    steps: int = 0

    @property
    def reasons(self) -> List[str]:
        """Human-readable explanations, one per problem found."""
        return [_describe(problem) for problem in self.problems.values()]

    def first_reason(self) -> Optional[str]:
        """``reasons[0]`` without phrasing the rest (the verdict ledger)."""
        for problem in self.problems.values():
            return _describe(problem)
        return None

    def defer(self, router: str, *problem) -> None:
        """Record one problem; the verifier must wait for ``router``."""
        self.consistent = False
        self.missing_routers.add(router)
        self.problems[problem[1].event_id] = problem

    def merge(self, other: "ConsistencyReport") -> None:
        self.consistent = self.consistent and other.consistent
        self.missing_routers.update(other.missing_routers)
        self.problems.update(other.problems)
        self.steps += other.steps


class _PrefixMemo:
    """One prefix's cached walk results: the unit of invalidation."""

    __slots__ = ("ancestors", "sends", "closures", "cutoffs")

    def __init__(self) -> None:
        #: FIB update id -> the receives it depends on.
        self.ancestors: Dict[int, List[IOEvent]] = {}
        #: receive id -> its matching send (or None).
        self.sends: Dict[int, Optional[IOEvent]] = {}
        #: FIB update id -> the verdict of its closed subwalk.
        self.closures: Dict[int, ConsistencyReport] = {}
        #: router -> largest ``when + slack`` a cached walk queried its
        #: FIB history with; an update at or before it can change them.
        self.cutoffs: Dict[str, float] = {}


def _check_instruments(registry):
    """What :meth:`ConsistentSnapshotter._run_check` binds per registry."""
    return (
        registry.counter("snapshot.closure_cache_hits"),
        registry.counter("snapshot.closure_cache_misses"),
    )


class ConsistentSnapshotter:
    """Snapshots that pass the §5 HBG closure check."""

    def __init__(
        self,
        view: Optional[VerifierView],
        internal_routers: Sequence[str],
        engine: Optional[InferenceEngine] = None,
        inflight_bound: float = 0.1,
        max_unmatched_age: Optional[float] = 30.0,
    ):
        self.view = view
        self.internal_routers = set(internal_routers)
        self.engine = engine or InferenceEngine()
        #: Propagation bound used only to phrase the deferral reason
        #: ("in flight" vs "log lagging"); both defer regardless.
        self.inflight_bound = inflight_bound
        #: After this long, an unmatched send is presumed lost (e.g. a
        #: partition swallowed it) and stops deferring snapshots.
        self.max_unmatched_age = max_unmatched_age
        # The §5 facts :meth:`observe` maintains and
        # :meth:`check_incremental` reads (:meth:`check` derives its
        # own from the visible stream and touches none of this).
        self._fib: FibHistory = {}
        #: prefix -> router -> its latest BGP-protocol FIB update.
        self._front: Dict[Prefix, Dict[str, IOEvent]] = {}
        #: prefix -> id -> internal BGP send with no receive linked yet.
        self._unmatched: Dict[Optional[Prefix], Dict[int, IOEvent]] = {}
        #: receive id -> the sends its in-edges currently credit, so a
        #: re-link of the receive can revoke (and re-derive) credit.
        self._credited: Dict[int, List[IOEvent]] = {}
        #: prefix -> memos of the walks over the facts above.
        self._memos: Dict[Optional[Prefix], _PrefixMemo] = {}
        # Per-call tallies behind snapshot.closure_cache_hits/_misses.
        self._memo_hits = 0
        self._memo_misses = 0
        self._instruments = obs.Bound(_check_instruments)
        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("snapshot.closure_cache", self)

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of the maintained facts and memos (ledger)."""
        from repro.obs import resources

        return resources.combined_sizeof(
            (
                self._memos,
                self._fib,
                self._front,
                self._unmatched,
                self._credited,
            ),
            sample=None if audit else obs.get_ledger().sample,
        )

    # -- public API -------------------------------------------------------

    def snapshot(
        self, at: float, prefix: Optional[Prefix] = None
    ) -> Tuple[DataPlaneSnapshot, ConsistencyReport]:
        """Build the snapshot visible at ``at`` and check consistency.

        With ``prefix`` given, only that prefix's update chains are
        checked (the per-prefix mode the verifier uses when reacting
        to a specific FIB update); otherwise every prefix seen in any
        FIB event is checked.
        """
        if self.view is None:
            raise RuntimeError("snapshot() needs a VerifierView")
        registry = obs.get_registry()
        if registry.enabled:
            watch = registry.stopwatch()
        visible = self.view.visible_events(at)
        graph = self.engine.build_graph(visible)
        snapshot = DataPlaneSnapshot.from_fib_events(visible, taken_at=at)
        report = self.check(graph, visible, prefix=prefix, at=at)
        if registry.enabled:
            registry.counter("snapshot.consistency_checks_total").inc()
            if not report.consistent:
                registry.counter("snapshot.inconsistent_total").inc()
            registry.histogram("snapshot.consistency_check_seconds").observe(
                watch.elapsed()
            )
            registry.histogram("snapshot.walk_steps").observe(report.steps)
        return snapshot, report

    def wait_until_consistent(
        self,
        start: float,
        deadline: float,
        step: float = 0.05,
        prefix: Optional[Prefix] = None,
    ) -> Tuple[Optional[DataPlaneSnapshot], ConsistencyReport, float]:
        """§7's remedy: "the verifier can wait until it receives the
        up-to-date HBG from R1 before verifying the data plane."

        Polls forward in time until the snapshot is consistent or the
        deadline passes.  Returns (snapshot-or-None, last report,
        time of the returned snapshot).
        """
        when = start
        with obs.span("snapshot.wait_until_consistent"):
            snapshot, report = self.snapshot(when, prefix=prefix)
            while not report.consistent and when < deadline:
                when = min(deadline, when + step)
                snapshot, report = self.snapshot(when, prefix=prefix)
        registry = obs.get_registry()
        if registry.enabled:
            # Simulated seconds the verifier deferred past ``start``
            # waiting for straggler logs (§7's remedy).
            registry.histogram("snapshot.wait_sim_seconds").observe(
                when - start
            )
            if not report.consistent:
                registry.counter("snapshot.wait_deadline_exceeded_total").inc()
        if report.consistent:
            return snapshot, report, when
        return None, report, when

    # -- the maintained §5 facts ------------------------------------------

    def observe(
        self,
        event: IOEvent,
        relinked: Sequence[IOEvent],
        graph: HappensBeforeGraph,
    ) -> None:
        """Maintain the §5 facts after one streaming ``observe()``.

        ``relinked`` are the already-observed events whose in-edges
        ``graph`` re-inferred because of ``event``: each drops its
        prefix's memos (prefix-less config / hardware events need
        none — the walks never read their parents), and a re-linked
        receive revokes and re-derives the sends it credits.
        """
        kind = event.kind
        if kind is IOKind.ROUTE_SEND and self._unmatched_send(graph, event):
            self._unmatched.setdefault(event.prefix, {})[event.event_id] = event
        for stale in relinked:
            if stale.prefix is not None:
                self._memos.pop(stale.prefix, None)
            if stale.kind is IOKind.ROUTE_RECEIVE:
                self._credit_sends(graph, stale)
        if kind is IOKind.ROUTE_RECEIVE:
            self._credit_sends(graph, event)
        elif kind is IOKind.FIB_UPDATE and event.prefix is not None:
            self._note_fib_update(event)

    def invalidate(self) -> None:
        """Drop every maintained fact and memo.

        The rollback-replay hook: a replayed capture re-uses event ids
        (``reset_event_ids``), so after a replay *every* entry may
        describe an event that no longer exists — per-(router, prefix)
        keys collide silently and serve stale closures.  Must run
        before replayed events are fed
        (:class:`repro.repair.rollback.RepairEngine` calls this for
        every registered snapshotter after applying reverts).
        """
        self._fib = {}
        self._front = {}
        self._unmatched = {}
        self._credited = {}
        self._memos = {}

    def _unmatched_send(self, graph: HappensBeforeGraph, event: IOEvent) -> bool:
        """Is ``event`` an internal BGP send no receive is linked to?

        A visible [R' send U to N] with no visible [N receive U] means
        either U is still in flight or N's log stream is lagging.
        """
        if (
            event.kind is not IOKind.ROUTE_SEND
            or event.protocol != "bgp"
            or event.peer not in self.internal_routers
        ):
            return False
        for child, _evidence in graph.children(event.event_id):
            if child.kind is IOKind.ROUTE_RECEIVE:
                return False
        return True

    def _credit_sends(self, graph: HappensBeforeGraph, recv: IOEvent) -> None:
        """Re-derive which sends ``recv``'s in-edges match.

        A (re-)link replaces the receive's in-edges wholesale, so
        credit granted through it is revoked first; sends that lost
        their only receive go back into the unmatched set.
        """
        for send in self._credited.pop(recv.event_id, ()):
            if self._unmatched_send(graph, send):
                self._unmatched.setdefault(send.prefix, {})[send.event_id] = send
        credited = [
            parent
            for parent, _evidence in graph.parents(recv.event_id)
            if parent.kind is IOKind.ROUTE_SEND
        ]
        if credited:
            self._credited[recv.event_id] = credited
            for send in credited:
                bucket = self._unmatched.get(send.prefix)
                if bucket:
                    bucket.pop(send.event_id, None)

    def _note_fib_update(self, event: IOEvent) -> None:
        """File one FIB update into the history and the cut front.

        An arrival at or before a cutoff some cached walk already
        queried drops the prefix's memos (the Fig. 1c resolution path:
        a straggler's FIB update finally arrives and flips the
        verdict).
        """
        router, prefix = event.router, event.prefix
        bucket = self._fib.setdefault((router, prefix), [])
        item = (event.timestamp, event.event_id, event)
        bucket.append(item)
        if len(bucket) > 1 and bucket[-2] > item:
            # Out-of-order arrival (straggler log): rare, so the hot
            # path stays an append (PERF001's discipline).
            bucket.sort()
        if event.protocol in _BGP_PROTOCOLS:
            front = self._front.setdefault(prefix, {})
            current = front.get(router)
            if current is None or item[:2] > (
                current.timestamp,
                current.event_id,
            ):
                front[router] = event
        memo = self._memos.get(prefix)
        if memo is not None:
            cutoff = memo.cutoffs.get(router)
            if cutoff is not None and event.timestamp <= cutoff:
                del self._memos[prefix]

    # -- the §5 walk ------------------------------------------------------------

    def check(
        self,
        graph: HappensBeforeGraph,
        visible: Sequence[IOEvent],
        prefix: Optional[Prefix] = None,
        at: Optional[float] = None,
    ) -> ConsistencyReport:
        """The from-scratch §5 check of ``visible`` (``graph``'s events).

        Derives the FIB history, the cut front and the unmatched sends
        from the stream and walks on call-scoped memos: the reference
        every incremental verdict is compared against.
        """
        fib: FibHistory = {}
        sends: List[IOEvent] = []
        for event in visible:
            kind = event.kind
            if kind is IOKind.FIB_UPDATE:
                if event.prefix is not None and (
                    prefix is None or event.prefix == prefix
                ):
                    fib.setdefault((event.router, event.prefix), []).append(
                        (event.timestamp, event.event_id, event)
                    )
            elif (
                kind is IOKind.ROUTE_SEND
                and at is not None
                and (prefix is None or event.prefix == prefix)
                and self._unmatched_send(graph, event)
            ):
                sends.append(event)
        # Only the *latest* BGP FIB event per (router, prefix) is part
        # of the cut; superseded ones need no closure.
        front: List[IOEvent] = []
        for bucket in fib.values():
            bucket.sort()
            for _timestamp, _event_id, event in reversed(bucket):
                if event.protocol in _BGP_PROTOCOLS:
                    front.append(event)
                    break
        return self._run_check(graph, front, sends, at, {}, fib)

    def check_incremental(
        self,
        graph: HappensBeforeGraph,
        prefix: Prefix,
        at: Optional[float] = None,
    ) -> ConsistencyReport:
        """The §5 check of one prefix over the maintained facts.

        Never scans the visible stream: the cut front, the FIB history
        and the unmatched sends are what :meth:`observe` filed, the
        memos survive from earlier checks.  ``consistent`` and
        ``missing_routers`` equal :meth:`check`'s over the events
        observed so far; ``steps`` reflects only un-memoized work.
        """
        front = self._front.get(prefix)
        sends = self._unmatched.get(prefix)
        return self._run_check(
            graph,
            front.values() if front else (),
            sends.values() if sends else (),
            at,
            self._memos,
            self._fib,
        )

    def _run_check(
        self,
        graph: HappensBeforeGraph,
        cut_events: Iterable[IOEvent],
        unmatched_sends: Iterable[IOEvent],
        at: Optional[float],
        memos: Dict[Optional[Prefix], _PrefixMemo],
        fib: FibHistory,
    ) -> ConsistencyReport:
        self._memo_hits = 0
        self._memo_misses = 0
        report = ConsistencyReport(consistent=True)
        if at is not None:
            self._check_send_closure(unmatched_sends, at, report)
        visited: Set[int] = set()
        for event in cut_events:
            memo = memos.get(event.prefix)
            if memo is None:
                memo = memos[event.prefix] = _PrefixMemo()
            report.merge(
                self._walk_fib_update(graph, event, visited, memo, fib)
            )
        registry = obs.get_registry()
        if registry.enabled:
            hits, misses = self._instruments.on(registry)
            hits.inc(self._memo_hits)
            misses.inc(self._memo_misses)
        return report

    def _check_send_closure(
        self,
        unmatched_sends: Iterable[IOEvent],
        at: float,
        report: ConsistencyReport,
    ) -> None:
        """The dual of the receive walk: sends need matching receives.

        The verifier cannot tell an advertisement still in flight from
        a receiver whose log stream is lagging without heartbeats, and
        only the former matches reality — so *both* defer the
        snapshot: the cut may show N's FIB arbitrarily stale, which is
        how phantom black holes at transit routers arise.  The small
        cost is deferring a few propagation-delays' worth of probes
        even under zero log lag.

        Which sends are unmatched is :meth:`_unmatched_send`'s call;
        this only ages them.  Known limitation: an advertisement
        permanently lost in the network (e.g. sent just as a partition
        formed) defers this prefix's snapshots until
        ``max_unmatched_age`` passes, after which the send is presumed
        dead and ignored.
        """
        slack = self.inflight_bound + self.engine.config.clock_skew_tolerance
        max_age = self.max_unmatched_age
        for send in unmatched_sends:
            if max_age is not None and at > send.timestamp + max_age:
                continue  # presumed lost in a partition; give up waiting
            report.steps += 1
            report.defer(
                send.peer, _UNMATCHED_SEND, send, at < send.timestamp + slack
            )

    def _walk_fib_update(
        self,
        graph: HappensBeforeGraph,
        fib_event: IOEvent,
        visited: Set[int],
        memo: _PrefixMemo,
        fib: FibHistory,
    ) -> ConsistencyReport:
        """One recursion step of the §5 algorithm.

        Chains from several cut fronts funnel into the same upstream
        FIB updates, so the closed subwalk's verdict is cached in
        ``memo``, keyed by this FIB event; whatever drops it drops the
        whole prefix's memos.  Returned reports are read-only — the
        cached objects themselves are handed back (``merge`` never
        mutates its argument).  ``visited`` holds the walks entered
        during this check: meeting one that has no verdict yet means it
        is still open further up the stack, which will report it.
        """
        event_id = fib_event.event_id
        cached = memo.closures.get(event_id)
        if cached is not None:
            self._memo_hits += 1
            return cached
        if event_id in visited:
            self._memo_hits += 1
            return ConsistencyReport(consistent=True)
        self._memo_misses += 1
        visited.add(event_id)
        report = ConsistencyReport(consistent=True, steps=1)
        for recv in self._advertisement_ancestors(graph, fib_event, memo):
            report.steps += 1
            sender = recv.peer
            if sender is None or sender not in self.internal_routers:
                # "...the router from which the update was received is
                # external to the network" — the walk terminates here.
                continue
            send = self._matching_send(graph, recv, memo)
            if send is None:
                report.defer(sender, _RECEIVE_WITHOUT_SEND, recv)
                continue
            # BGP property: the sender installed its FIB before
            # sending.  Its FIB update must therefore be visible.
            sender_fib = self._latest_fib_before(
                fib, sender, recv.prefix, send.timestamp, memo
            )
            if sender_fib is None:
                report.defer(sender, _SENDER_WITHOUT_FIB, recv)
                continue
            report.merge(
                self._walk_fib_update(graph, sender_fib, visited, memo, fib)
            )
        memo.closures[event_id] = report
        return report

    def _advertisement_ancestors(
        self,
        graph: HappensBeforeGraph,
        fib_event: IOEvent,
        memo: _PrefixMemo,
    ) -> List[IOEvent]:
        """ROUTE_RECEIVE ancestors of ``fib_event`` for the same prefix,
        reached without crossing another FIB update (i.e. the receive
        that this particular FIB change depends on).

        The walk is pure in (event, prefix) for a fixed graph, so the
        closed subwalk is memoized — cut fronts for the same prefix on
        different routers funnel into the same advertisement ancestry
        over and over.
        """
        cached = memo.ancestors.get(fib_event.event_id)
        if cached is not None:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        result: List[IOEvent] = []
        stack = [fib_event.event_id]
        seen = {fib_event.event_id}
        while stack:
            node = stack.pop()
            for parent, _evidence in graph.parents(node):
                if parent.event_id in seen:
                    continue
                seen.add(parent.event_id)
                if parent.kind is IOKind.ROUTE_RECEIVE:
                    if parent.prefix == fib_event.prefix:
                        result.append(parent)
                    continue
                if parent.kind in (IOKind.RIB_UPDATE,):
                    stack.append(parent.event_id)
                # CONFIG_CHANGE / HARDWARE_STATUS parents terminate the
                # walk: the FIB update did not depend on an
                # advertisement along this path.
        memo.ancestors[fib_event.event_id] = result
        return result

    def _matching_send(
        self,
        graph: HappensBeforeGraph,
        recv: IOEvent,
        memo: _PrefixMemo,
    ) -> Optional[IOEvent]:
        cached = memo.sends.get(recv.event_id, _UNSET)
        if cached is not _UNSET:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        found: Optional[IOEvent] = None
        for parent, _evidence in graph.parents(recv.event_id):
            if (
                parent.kind is IOKind.ROUTE_SEND
                and parent.router == recv.peer
                and parent.prefix == recv.prefix
            ):
                found = parent
                break
        memo.sends[recv.event_id] = found
        return found

    def _latest_fib_before(
        self,
        fib: FibHistory,
        router: str,
        prefix: Optional[Prefix],
        when: float,
        memo: _PrefixMemo,
    ) -> Optional[IOEvent]:
        """Newest FIB update on ``router`` for ``prefix`` at ``when``.

        Answered by bisecting the (router, prefix) history (the naive
        per-query scan of every one of the router's events dominated
        large-network snapshot checks); the cutoff queried is noted in
        ``memo`` so a straggler landing behind it drops the memos.
        """
        cutoff = when + self.engine.config.clock_skew_tolerance
        if cutoff > memo.cutoffs.get(router, _BEFORE_ANY_TIME):
            memo.cutoffs[router] = cutoff
        bucket = fib.get((router, prefix))
        if not bucket:
            return None
        cut = bisect_right(bucket, (cutoff, _AFTER_ANY_ID))
        if cut == 0:
            return None
        return bucket[cut - 1][2]
