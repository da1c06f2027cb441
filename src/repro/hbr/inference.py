"""HBR inference: §4.2's filters plus rule matching.

    "Prefixes ... can only be used to filter I/Os for possible HBRs."
    "Timestamps can be used to filter the HBRs considered/generated
    by other strategies, but timestamps cannot be used as the sole
    mechanism for identifying HBRs."
    "Rule matching ... requires understanding protocol standards."
    "Pattern matching ... has the benefit of being fully automated,
    but we risk missing an important HBR."

:class:`InferenceEngine` decides every edge by rule:

* timestamp ordering is the candidate window ``[cons.t - rule.window,
  cons.t + clock_skew_tolerance]`` and prefix filtering the
  ``same_prefix`` bucket of :mod:`repro.hbr.index` — *filters*,
  exactly as the paper prescribes;
* rule matching consults the declarative rule set of
  :mod:`repro.hbr.rules` and decides which filtered candidate is a
  cause.

The other two techniques are benchmark C-INF's ablation, not engine
modes: :func:`repro.testkit.oracles.naive_graph` links every
prefix/timestamp-compatible pair, and
:func:`repro.testkit.oracles.pattern_graph` links the I/O pair shapes
a miner learned from a policy-compliant capture.  On C-INF's captures
patterns recover few of a deleted rule's edges at the price of many
false ones, so the online engine does not use them.

:func:`score_inference` computes precision/recall against the
simulator's ground-truth channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.capture.ground_truth import GroundTruth
from repro.capture.io_events import IOEvent, IOKind
from repro.hbr.graph import EdgeEvidence, HappensBeforeGraph
from repro.hbr.index import (
    EventIndex,
    MAX_ID,
    RulePlan,
    forward_plan_for_rule,
    plan_for_rule,
)
from repro.hbr.rules import HbrRule, default_rules


@dataclass
class InferenceConfig:
    """The engine's one knob."""

    #: Allowed clock disagreement between routers (seconds).
    clock_skew_tolerance: float = 0.050


# -- candidate source -------------------------------------------------------


def _admissible(
    cons: IOEvent, candidates: Iterable[IOEvent]
) -> List[IOEvent]:
    """Candidates minus the consequent itself and minus same-router
    events keyed after it: one router's clock does not skew against
    itself, so its later events cannot be causes."""
    cons_key = (cons.timestamp, cons.event_id)
    return [
        ante
        for ante in candidates
        if ante.event_id != cons.event_id
        and not (
            ante.router == cons.router
            and (ante.timestamp, ante.event_id) > cons_key
        )
    ]


class _IndexSource:
    """Indexed candidate lookup over :class:`repro.hbr.index.EventIndex`.

    Rule lookups read only the (router, kind[, prefix]) bucket the
    rule's precomputed plan names, and the answer comes back in
    (timestamp, event_id) order.

    The window is ``[cons.t - window, cons.t + skew]``: the forward
    allowance is the timestamp technique's skew tolerance — a cause on
    another (skewed) router may carry a slightly *later* logged
    timestamp than its effect.  Where the plan pins the router,
    :func:`_admissible` is a property of the bucket, not a filter: a
    ``same`` bucket holds only the consequent's router, so the
    admissible events are exactly those keyed below the consequent
    (which bounds the read, with the consequent itself last when the
    rule's antecedent kind is its own); a ``peer`` bucket holds only
    another router's events, all admissible.
    """

    __slots__ = ("index", "skew")

    def __init__(self, index: EventIndex, skew: float):
        self.index = index
        self.skew = skew

    def rule_candidates(
        self, cons: IOEvent, window: float, plan: "RulePlan"
    ) -> List[IOEvent]:
        lo = (cons.timestamp - window, 0)
        if plan.router_from == "same":
            found = self.index.candidates(
                plan, cons, lo, (cons.timestamp, cons.event_id)
            )
            if found and found[-1].event_id == cons.event_id:
                found.pop()
            return found
        found = self.index.candidates(
            plan, cons, lo, (cons.timestamp + self.skew, MAX_ID)
        )
        if plan.router_from == "peer" and cons.peer != cons.router:
            return found
        return _admissible(cons, found)


# -- the engine ---------------------------------------------------------------


def _dispatch(rules, plans, side) -> Tuple[Tuple[tuple, ...], ...]:
    """``kind.ordinal`` -> the ``(rule, plan)`` pairs whose ``side``
    pattern (antecedent or consequent) admits that kind."""
    return tuple(
        tuple(
            (rule, plan)
            for rule, plan in zip(rules, plans)
            if not side(rule).kinds or kind in side(rule).kinds
        )
        for kind in IOKind
    )


def _edge_instruments(registry):
    """What :meth:`InferenceEngine._edges_into` binds per registry:
    ``edges_by_technique`` by technique, the per-rule timing sink
    ``_infer_edges`` reports into, and a dict the site fills with
    ``hbg_edges_inferred`` on the first edge (not pre-created)."""
    rule_seconds = obs.Family(
        registry.histogram, "inference.rule_seconds", "rule"
    )

    def timing_sink(rule_name: str, seconds: float) -> None:
        rule_seconds[rule_name].observe(seconds)

    return (
        obs.Family(
            registry.counter, "inference.edges_by_technique", "technique"
        ),
        timing_sink,
        {},
    )


class InferenceEngine:
    """Builds an HBG from an observable I/O stream."""

    def __init__(
        self,
        rules: Optional[Sequence[HbrRule]] = None,
        config: Optional[InferenceConfig] = None,
    ):
        self.rules: Tuple[HbrRule, ...] = tuple(
            rules if rules is not None else default_rules()
        )
        self.config = config or InferenceConfig()
        #: Per-rule index query plans, parallel to ``self.rules``.
        self._plans: Tuple[RulePlan, ...] = tuple(
            plan_for_rule(rule) for rule in self.rules
        )
        #: Rule dispatch: ``kind.ordinal`` -> the (rule, plan) pairs
        #: whose consequent can be of that kind (a pattern declaring no
        #: kinds fires for every kind).  Skips only rules whose
        #: ``consequent.matches`` would have rejected the event anyway,
        #: so results (and per-rule obs timings) are unchanged.
        self._by_consequent = _dispatch(
            self.rules, self._plans, lambda rule: rule.consequent
        )
        #: (rule name, confidence) -> the one evidence object for it:
        #: a capture has tens of thousands of edges and a handful of
        #: distinct evidences.
        self._evidence: Dict[Tuple[str, float], EdgeEvidence] = {}
        self._instruments = obs.Bound(_edge_instruments)

    # -- batch ------------------------------------------------------------

    def build_graph(self, events: Iterable[IOEvent]) -> HappensBeforeGraph:
        """Infer the full HBG for a finished capture."""
        registry = obs.get_registry()
        recorder = obs.get_recorder()
        if registry.enabled:
            watch = registry.stopwatch()
        ordered = sorted(events, key=lambda e: (e.timestamp, e.event_id))
        graph = HappensBeforeGraph()
        for event in ordered:
            graph.add_event(event)
        index = EventIndex()
        for event in ordered:
            index.add(event)
        # The batch build only ever runs in the parent process, so
        # ledger registration of the index is safe here.
        source = _IndexSource(
            index.track(), self.config.clock_skew_tolerance
        )
        for cons in ordered:
            for ante, evidence in self._edges_into(
                cons, source, registry, recorder
            ):
                graph.add_edge(ante.event_id, cons.event_id, evidence)
        if registry.enabled:
            registry.counter("inference.batch_builds_total").inc()
            registry.histogram("inference.build_graph_seconds").observe(
                watch.elapsed()
            )
            registry.histogram("inference.build_graph_events").observe(
                len(ordered)
            )
        return graph

    def _edges_into(
        self, cons: IOEvent, source, registry, recorder
    ) -> List[Tuple[IOEvent, EdgeEvidence]]:
        """``_infer_edges`` plus what the obs layer hears about it.

        The caller resolves ``registry`` / ``recorder`` once (per
        observe, per batch build) and hands them down; with both off
        this is a straight call into the inference.
        """
        if not (registry.enabled or recorder.enabled):
            return self._infer_edges(cons, source)
        if registry.enabled:
            # Batch/streaming path: per-rule wall time goes straight
            # into the registry histograms.  The sink indirection keeps
            # _infer_edges free of process-global mutation so the
            # forked workers of DistributedHbg.build_all can reuse it
            # with an aggregating sink instead — a CONC001 requirement.
            by_technique, timing_sink, lazy = self._instruments.on(registry)
            edges = self._infer_edges(cons, source, timing_sink)
            if edges:
                if not lazy:
                    lazy["inferred"] = registry.counter(
                        "inference.hbg_edges_inferred"
                    )
                lazy["inferred"].inc(len(edges))
                for _ante, evidence in edges:
                    by_technique[evidence.technique].inc()
        else:
            edges = self._infer_edges(cons, source)
        if edges and recorder.enabled:
            for ante, evidence in edges:
                recorder.record(
                    obs.TraceKind.HBR_EDGE,
                    at=cons.timestamp,
                    router=cons.router,
                    event_id=cons.event_id,
                    cause=ante.event_id,
                    rule=evidence.rule,
                    technique=evidence.technique,
                    confidence=evidence.confidence,
                )
        return edges

    def _infer_edges(
        self, cons: IOEvent, source, timing_sink=None
    ) -> List[Tuple[IOEvent, EdgeEvidence]]:
        """Infer this consequent's in-edges (pure inference, no obs).

        ``timing_sink(rule_name, seconds)``, when provided, receives
        one wall-time sample per rule evaluated: the clock is read
        once after each, so a sample runs from the previous read (the
        call's start, for the first) and includes the dispatch that
        led to its rule.  This function must stay free of registry
        / recorder mutation: it runs inside the forked workers of
        ``DistributedHbg.build_all``, where any process-global emission
        would silently die with the worker (lint rule CONC001 checks
        exactly this).
        """
        edges: List[Tuple[IOEvent, EdgeEvidence]] = []
        linked: Set[int] = set()
        # Per-rule wall time is only clocked when a sink asks for it;
        # the disabled path pays one None check per rule.
        if timing_sink is not None:
            watch = obs.Stopwatch()
        for rule, plan in self._by_consequent[cons.kind.ordinal]:
            if not rule.consequent.matches(cons):
                continue
            candidates = source.rule_candidates(cons, rule.window, plan)
            antecedes = rule.antecedes
            confidence = rule.base_confidence
            if rule.pick == "all":
                chosen = [ante for ante in candidates if antecedes(ante, cons)]
                if len(chosen) > 1:
                    # Linking all of N candidates: each is 1/N likely.
                    confidence = max(0.05, confidence / len(chosen))
            else:
                # Candidates come in key order, so the latest match is
                # the first one met walking backwards; the ambiguity
                # discount only asks whether a second exists.
                chosen = []
                for ante in reversed(candidates):
                    if antecedes(ante, cons):
                        if chosen:
                            # Picked the latest of several: mildly
                            # less sure.
                            confidence *= 0.9
                            break
                        chosen.append(ante)
            if chosen:
                evidence = self._evidence.get((rule.name, confidence))
                if evidence is None:
                    evidence = self._evidence[rule.name, confidence] = (
                        EdgeEvidence("rule", rule.name, confidence)
                    )
                for ante in chosen:
                    if ante.event_id not in linked:
                        linked.add(ante.event_id)
                        edges.append((ante, evidence))
            if timing_sink is not None:
                timing_sink(rule.name, watch.lap())
        return edges

    # -- streaming ------------------------------------------------------------

    def streaming(self) -> "StreamingInference":
        return StreamingInference(self)


class StreamingInference:
    """Incremental HBG construction for the online pipeline.

    ``observe`` adds one event, links it backwards, and re-links every
    already-observed consequent whose candidate lists the new event
    can enter — so after every observe the graph equals
    :meth:`InferenceEngine.build_graph` over the events seen so far,
    whatever order they arrived in (per-router log lag can deliver a
    cause long after its effects).

    The graph holds, for every event, exactly what ``_infer_edges``
    returned the last time it was (re-)linked — nothing else decides an
    edge — so the equality above is by construction.  An
    :class:`~repro.hbr.index.EventIndex` is maintained incrementally
    (O(sqrt N) insert, bucketed lookups).  The ``inference.hbg_events``
    / ``hbg_edges`` gauges cost an observe nothing: they read through
    to the totals the graph tracks itself (see
    :meth:`HappensBeforeGraph.edge_count`), guarded by the overhead
    test in tests/test_hbr_inference.py.
    """

    def __init__(self, engine: InferenceEngine):
        self.engine = engine
        self.graph = HappensBeforeGraph()
        #: Forward dispatch: ``kind.ordinal`` -> (rule, forward plan)
        #: for the rules an event of that kind can antecede; the plan
        #: names the buckets that can hold the rule's consequents.
        self._by_antecedent = _dispatch(
            engine.rules,
            [forward_plan_for_rule(rule) for rule in engine.rules],
            lambda rule: rule.antecedent,
        )
        #: ``listener(event, relinked)`` callbacks, notified after each
        #: observe() — the delta feed the incremental verifier rides.
        self._listeners: List = []
        # Streaming inference lives in the parent process, so the
        # index is ledger-tracked here.
        self._index = EventIndex().track()
        self._source = _IndexSource(
            self._index, engine.config.clock_skew_tolerance
        )
        self._instruments = obs.Bound(self._bind)

    def subscribe(self, listener) -> None:
        """Register ``listener(event, relinked)``.

        Called after every :meth:`observe` with the newly observed
        event and the tuple of *already-observed* events whose
        in-edges were re-inferred because of it.  Listeners run after
        the graph is updated, outside the observe metrics window.
        """
        self._listeners.append(listener)

    def observe(self, event: IOEvent) -> None:
        registry = obs.get_registry()
        recorder = obs.get_recorder()
        if registry.enabled:
            observed, seconds = self._instruments.on(registry)
            watch = registry.stopwatch()
        self._index.add(event)
        self.graph.add_event(event)
        self._link(event, registry, recorder)
        relinked = self._relink_forward(event, registry, recorder)
        if registry.enabled:
            observed.inc()
            seconds.observe(watch.elapsed())
        for listener in self._listeners:
            listener(event, relinked)

    def _bind(self, registry):
        """Per registry: the graph-size gauges read through to the
        graph's own totals, and ``observe`` keeps its two handles."""
        graph = self.graph
        self._instruments.read_through("inference.hbg_events", graph.__len__)
        self._instruments.read_through("inference.hbg_edges", graph.edge_count)
        return (
            registry.counter("inference.events_observed_total"),
            registry.histogram("inference.observe_seconds"),
        )

    def _relink_forward(
        self, event: IOEvent, registry, recorder
    ) -> Tuple[IOEvent, ...]:
        """Re-link the already-observed events ``event`` may cause.

        A consequent's candidate window is ``[cons.t - rule.window,
        cons.t + skew]``, so the new event can enter the lists of
        consequents up to one rule window ahead of it and one skew
        behind it (it may be a forward-skew cause).  For each rule the
        event can antecede (a FIB update does not pay the 60 s config
        window), read the consequent buckets the forward plan names
        over ``[event.t - skew, event.t + rule.window]`` — a superset
        of every candidate list the event can enter; a same-router
        read starts at the event's own key — and keep the
        consequents for which *that rule* would admit the event: inside
        the rule's window and matching the rule both ways.  Skipping
        the rest is sound because ``_infer_edges`` is a pure function
        of each rule's candidate list.  The event must also be
        :func:`_admissible` to the consequent.
        """
        confirmed: Dict[Tuple[float, int], IOEvent] = {}
        event_at = event.timestamp
        event_key = (event_at, event.event_id)
        lo = (event_at - self._source.skew, 0)
        for rule, fplan in self._by_antecedent[event.kind.ordinal]:
            if not rule.antecedent.matches(event):
                continue
            window = rule.window
            hi = (event_at + window, MAX_ID)
            if fplan.kinds:
                # Same-router consequents keyed below the event
                # could not admit it: start the read at its key.
                candidates = self._index.candidates(
                    fplan,
                    event,
                    event_key if fplan.router_from == "same" else lo,
                    hi,
                )
            else:
                # A kind-free consequent pattern has no bucket.
                candidates = self._index.window(lo, hi)
            for cons in candidates:
                if (
                    cons.timestamp - window <= event_at
                    and rule.consequent.matches(cons)
                    and rule.antecedes(event, cons)
                ):
                    confirmed[cons.timestamp, cons.event_id] = cons
        if not confirmed:
            return ()
        relinked = tuple(
            confirmed[key]
            for key in sorted(confirmed)
            if _admissible(confirmed[key], (event,))
        )
        for cons in relinked:
            self._link(cons, registry, recorder)
        return relinked

    def _link(self, cons: IOEvent, registry, recorder) -> None:
        # Replace, don't accumulate: a re-link may change which
        # candidate a pick-latest rule chooses, and the superseded
        # edge must go (clear is a no-op for a fresh event).
        self.graph.clear_in_edges(cons.event_id)
        for ante, evidence in self.engine._edges_into(
            cons, self._source, registry, recorder
        ):
            self.graph.add_edge(ante.event_id, cons.event_id, evidence)

    def __len__(self) -> int:
        return len(self._index)


# -- scoring against ground truth ----------------------------------------------


@dataclass(frozen=True)
class InferenceScore:
    """Precision/recall of an inferred HBG against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __str__(self) -> str:
        return (
            f"precision={self.precision:.3f} recall={self.recall:.3f} "
            f"f1={self.f1:.3f} (tp={self.true_positives} "
            f"fp={self.false_positives} fn={self.false_negatives})"
        )


def score_inference(
    graph: HappensBeforeGraph,
    ground_truth: GroundTruth,
    observable_ids: Optional[Set[int]] = None,
    min_confidence: float = 0.0,
) -> InferenceScore:
    """Compare inferred edges with the simulator's true dependencies.

    ``observable_ids`` restricts ground truth to events the collector
    actually saw (edges to/from unobservable events — external
    routers, dropped log lines — cannot be inferred and are excluded
    from the recall denominator).
    """
    inferred = {
        (e.cause, e.effect)
        for e in graph.edges()
        if e.evidence.confidence >= min_confidence
    }
    truth = ground_truth.edge_set()
    if observable_ids is not None:
        truth = {
            (c, f)
            for c, f in truth
            if c in observable_ids and f in observable_ids
        }
    tp = len(inferred & truth)
    fp = len(inferred - truth)
    fn = len(truth - inferred)
    return InferenceScore(tp, fp, fn)
