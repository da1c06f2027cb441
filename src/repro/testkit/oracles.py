"""Differential oracles: cross-implementation invariants per case.

Each oracle replays one :class:`~repro.testkit.case.CasePlan`
through two implementations of the same claim and asserts they
agree:

* ``snapshot-consistency`` — §5: an HBG-consistent snapshot never
  raises an alarm (loop/blackhole) the ground-truth data plane never
  exhibited, and once all logs drain it matches reality exactly.
* ``hbg-distributed`` — §5 final ¶: distributed HBG construction
  (per-router indexed subgraphs + boundary-summary exchange, serial
  and forked) merges to a graph byte-identical to the central build
  while exchanging strictly fewer bytes than shipping every event to
  a central collector, and partial-path root-cause traces name the
  central graph's root causes.
* ``hbg-indexed-equivalence`` — the indexed (repro.hbr.index) build
  produces exactly the edge set and evidence of the window-rescan
  spec (:func:`rescan_graph`, owned by this oracle), and the
  streaming path lands on the same records as the batch build.
* ``whatif-replay`` — §6: the what-if engine's forked prediction of
  an injection equals actually replaying that injection live.
* ``provenance-rollback`` — §6: reverting the provenance-identified
  root cause restores the pre-violation FIBs.
* ``replay-determinism`` — §8 precondition: executing the same plan
  twice is byte-identical (trace, HBG, forwarding).

The window-rescan spec also builds benchmark C-INF's ablation rows:
:func:`naive_graph` and :func:`pattern_graph` (with its
:class:`PatternMiner`) are §4.2's two techniques the engine does not
use.

Oracles receive an :class:`OracleContext`.  Read-only oracles use
the lazily-shared execution; oracles that mutate the network (what-if
replay, rollback) call :meth:`OracleContext.fresh` so they cannot
poison their neighbours.
"""

from __future__ import annotations

import bisect
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.net.config import ConfigChange, local_pref_map
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.testkit.case import CasePlan
from repro.testkit.execution import (
    Execution,
    uplink_map_name,
    execute_plan,
    execution_digest,
)


@dataclass
class OracleVerdict:
    """One oracle's judgement of one case."""

    oracle: str
    ok: bool
    detail: str = ""
    #: Number of individual comparisons made — 0 flags a vacuous pass.
    checked: int = 0

    def to_dict(self) -> Dict:
        return {
            "oracle": self.oracle,
            "ok": self.ok,
            "detail": self.detail,
            "checked": self.checked,
        }


class OracleContext:
    """Lazily-shared execution plus a factory for private ones."""

    def __init__(
        self,
        plan: CasePlan,
        executor: Callable[[CasePlan], Execution] = execute_plan,
    ):
        self.plan = plan
        self._executor = executor
        self._shared: Optional[Execution] = None

    @property
    def shared(self) -> Execution:
        """One execution reused by every read-only oracle."""
        if self._shared is None:
            self._shared = self._executor(self.plan)
        return self._shared

    def fresh(self) -> Execution:
        """A private execution an oracle is free to mutate."""
        return self._executor(self.plan)


Oracle = Callable[[OracleContext], OracleVerdict]

#: Name → oracle, in registration (= default run) order.
ORACLES: Dict[str, Oracle] = {}


def oracle(name: str) -> Callable[[Oracle], Oracle]:
    def register(fn: Oracle) -> Oracle:
        if name in ORACLES:
            raise ValueError(f"duplicate oracle name {name!r}")

        def wrapped(ctx: OracleContext) -> OracleVerdict:
            verdict = fn(ctx)
            verdict.oracle = name
            return verdict

        ORACLES[name] = wrapped
        return wrapped

    return register


def default_oracle_names() -> List[str]:
    return list(ORACLES)


# -- helpers ----------------------------------------------------------------


def _trace_outcomes(
    snapshot: DataPlaneSnapshot, routers: Sequence[str], prefixes
) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """(router, prefix) → (path string, outcome) over a snapshot."""
    outcomes = {}
    for router in routers:
        for prefix in prefixes:
            path, outcome = snapshot.trace(router, prefix.first_address())
            outcomes[(router, str(prefix))] = ("->".join(path), outcome)
    return outcomes


def _evidence_edges(graph) -> List[Tuple[int, int, str, str, float]]:
    """Canonical (cause, effect, technique, rule, confidence) tuples."""
    return sorted(
        (
            edge.cause,
            edge.effect,
            edge.evidence.technique,
            edge.evidence.rule,
            edge.evidence.confidence,
        )
        for edge in graph.edges()
    )


def _edge_diff(reference, found) -> str:
    """``N vs M edges (missing [...], extra [...])`` for two
    :func:`_evidence_edges` lists that should have been equal."""
    ref_set, got_set = set(reference), set(found)
    return (
        f"{len(reference)} vs {len(found)} edges "
        f"(missing {sorted(ref_set - got_set)[:3]}, "
        f"extra {sorted(got_set - ref_set)[:3]})"
    )


def _anomaly_timeline(execution: Execution) -> Set[Tuple[str, str, str]]:
    """Every (router, prefix, anomaly) reality exhibited at any instant.

    The live FIBs change exactly at FIB_UPDATE events, so replaying
    the captured FIB events one at a time and tracing after each step
    enumerates every transient forwarding state the network actually
    passed through.
    """
    fib_events = sorted(
        (
            e
            for e in execution.events()
            if e.kind is IOKind.FIB_UPDATE and e.prefix is not None
        ),
        key=lambda e: (e.timestamp, e.event_id),
    )
    interesting = {str(p) for p in execution.prefixes}
    routers = execution.internal_routers
    replay = DataPlaneSnapshot()
    seen: Set[Tuple[str, str, str]] = set()
    for event in fib_events:
        if event.action is RouteAction.WITHDRAW:
            replay.remove(event.router, event.prefix)
        else:
            replay.install(SnapshotEntry.from_event(event))
        if str(event.prefix) not in interesting:
            continue
        for prefix in execution.prefixes:
            address = prefix.first_address()
            for router in routers:
                _path, outcome = replay.trace(router, address)
                if outcome in ("loop", "blackhole"):
                    seen.add((router, str(prefix), outcome))
    return seen


# -- (a) naive vs consistent snapshots --------------------------------------


@oracle("snapshot-consistency")
def snapshot_consistency(ctx: OracleContext) -> OracleVerdict:
    """Consistent snapshots raise no phantom alarms (§5, Fig. 1c)."""
    execution = ctx.shared
    internal = execution.internal_routers
    snapshotter = ConsistentSnapshotter(
        execution.view, internal_routers=internal
    )
    reality = _anomaly_timeline(execution)
    checked = 0
    problems: List[str] = []

    for probe, _truth in execution.truth_probes:
        snapshot, report = snapshotter.snapshot(probe)
        if not report.consistent:
            # The verifier defers instead of alarming — by design.
            continue
        for prefix in execution.prefixes:
            address = prefix.first_address()
            for router in internal:
                checked += 1
                _path, outcome = snapshot.trace(router, address)
                if outcome in ("loop", "blackhole") and (
                    (router, str(prefix), outcome) not in reality
                ):
                    problems.append(
                        f"phantom {outcome} at t={probe}: {router} -> "
                        f"{prefix} alarmed in the consistent cut but "
                        "never occurred in the data plane"
                    )

    # Once every log stream has drained, the consistent snapshot must
    # exist and match reality exactly.
    max_lag = max(
        [execution.view.default_lag]
        + [execution.view.lag_of(r) for r in internal]
    )
    drained = execution.end_time + max_lag + 1e-6
    snapshot, report = snapshotter.snapshot(drained)
    if not report.consistent:
        problems.append(
            "snapshot still inconsistent after all logs drained: "
            + "; ".join(report.reasons[:3])
        )
    else:
        recon = _trace_outcomes(snapshot, internal, execution.prefixes)
        truth = _trace_outcomes(
            execution.final_live, internal, execution.prefixes
        )
        for key in sorted(truth):
            checked += 1
            if recon[key] != truth[key]:
                problems.append(
                    f"final state diverges for {key[0]} -> {key[1]}: "
                    f"reconstructed {recon[key]}, live {truth[key]}"
                )

    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (b) centralized vs distributed HBG -------------------------------------


@oracle("hbg-distributed")
def hbg_distributed(ctx: OracleContext) -> OracleVerdict:
    """Distributed construction loses nothing vs the central HBG.

    The boundary-summary engine of repro.hbr.distributed claims the
    strongest form of equivalence: its merged graph is byte-identical
    to the central indexed build (hence, transitively, to the
    window-rescan spec — ``hbg-indexed-equivalence`` pins that), for
    both the serial and the forked (workers=2) record builds.  Plus
    the traffic claim that makes the design worthwhile — boundary
    bytes strictly below shipping every event to a central collector
    — and partial-path root-cause expansion naming the central roots.
    """
    from repro.hbr.distributed import DistributedHbg
    from repro.hbr.inference import InferenceEngine

    execution = ctx.shared
    events = execution.events()
    central = InferenceEngine().build_graph(events)
    reference = _evidence_edges(central)

    problems: List[str] = []
    checked = len(reference)
    for name, workers in (("serial", None), ("forked", 2)):
        distributed = DistributedHbg(InferenceEngine())
        distributed.ingest_all(events)
        distributed.build_all(workers=workers)
        merged = distributed.merged_graph()
        checked += 1
        if merged.to_records() != central.to_records():
            problems.append(
                f"{name} distributed merge not byte-identical to central: "
                + _edge_diff(reference, _evidence_edges(merged))
            )
        stats = distributed.last_build
        checked += 1
        if events and stats.boundary_bytes >= stats.central_bytes:
            problems.append(
                f"{name} boundary exchange ({stats.boundary_bytes}B) "
                "not below central collection "
                f"({stats.central_bytes}B)"
            )

    # Root causes (walked on the forked build, the last one above) of
    # the latest FIB update of each workload prefix.  Partial-path
    # expansion follows the cross-router in-edges build_all recorded —
    # the very edges the central walk reads — so every distributed
    # root must be a central ancestor; more, the leaf sets are equal.
    interesting = {str(p) for p in execution.prefixes}
    latest: Dict[Tuple[str, str], int] = {}
    for event in events:
        if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
            continue
        if str(event.prefix) not in interesting:
            continue
        latest[(event.router, str(event.prefix))] = event.event_id
    for key in sorted(latest)[:6]:
        event_id = latest[key]
        checked += 1
        central_roots = {
            e.event_id for e in central.root_causes(event_id, 0.0)
        }
        distributed_roots = {
            e.event_id for e in distributed.trace_root_causes(event_id)
        }
        if central_roots != distributed_roots:
            problems.append(
                f"root causes of event {event_id} ({key[0]}, {key[1]}) "
                f"differ: central {sorted(central_roots)} vs "
                f"distributed {sorted(distributed_roots)}"
            )

    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (b') window-rescan spec vs indexed vs streaming HBG ---------------------


class WindowRescan:
    """Executable spec of candidate lookup: rescan the ordered stream.

    What the inverted indices of repro.hbr.index must be
    indistinguishable from — every event logged within ``[cons.t -
    window, cons.t + skew]``, in ``(timestamp, event_id)`` order,
    minus the consequent itself and minus same-router events logged
    after it (one router's clock does not skew against itself).  Rule
    plans are ignored: narrowing to a bucket may only drop events the
    rule's own ``antecedes`` rejects anyway.
    """

    def __init__(self, ordered: Sequence[IOEvent], skew: float):
        self.ordered = ordered
        self.times = [event.timestamp for event in ordered]
        self.skew = skew

    def window_candidates(self, cons: IOEvent, window: float) -> List[IOEvent]:
        start = bisect.bisect_left(self.times, cons.timestamp - window)
        end = bisect.bisect_right(self.times, cons.timestamp + self.skew)
        return [
            ante
            for ante in self.ordered[start:end]
            if ante.event_id != cons.event_id
            and not (
                ante.router == cons.router
                and (ante.timestamp, ante.event_id)
                > (cons.timestamp, cons.event_id)
            )
        ]

    def rule_candidates(self, cons: IOEvent, window: float, plan) -> List[IOEvent]:
        return self.window_candidates(cons, window)


def rescan_graph(events, engine=None):
    """The HBG of ``events`` by definition: every event's in-edges are
    what ``engine`` infers for it from the :class:`WindowRescan` of
    the whole capture.  O(window) per rule per event — a reference for
    differential tests, never a production path."""
    from repro.hbr.inference import InferenceEngine

    engine = engine or InferenceEngine()
    ordered, source, graph = _rescan(events, engine.config)
    for cons in ordered:
        for ante, evidence in engine._infer_edges(cons, source):
            graph.add_edge(ante.event_id, cons.event_id, evidence)
    return graph


def _rescan(events, config=None):
    """``events`` in key order, their :class:`WindowRescan` at
    ``config``'s skew, and an edgeless graph over them."""
    from repro.hbr.graph import HappensBeforeGraph
    from repro.hbr.inference import InferenceConfig

    config = config or InferenceConfig()
    ordered = sorted(events, key=lambda e: (e.timestamp, e.event_id))
    graph = HappensBeforeGraph()
    for event in ordered:
        graph.add_event(event)
    return ordered, WindowRescan(ordered, config.clock_skew_tolerance), graph


# -- the C-INF ablation: the two techniques the engine does not use --------


Signature = Tuple[str, str, str]
Relation = Tuple[bool, bool, bool]  # (same_router, peer_symmetric, same_prefix)
PatternKey = Tuple[Signature, Signature, Relation]


def _signature(event: IOEvent) -> Signature:
    return (
        event.kind.value,
        event.protocol or "-",
        event.action.value if event.action else "-",
    )


def _relation(ante: IOEvent, cons: IOEvent) -> Relation:
    return (
        ante.router == cons.router,
        ante.peer == cons.router and cons.peer == ante.router,
        ante.prefix is not None and ante.prefix == cons.prefix,
    )


def _prefix_compatible(a: IOEvent, b: IOEvent) -> bool:
    """The paper's prefix filter: same prefix, or either side has none
    (config/hardware/LSA events carry no prefix but can still relate)."""
    if a.prefix is None or b.prefix is None:
        return True
    return a.prefix == b.prefix


class PatternMiner:
    """§4.2 "Pattern matching": mine recurring I/O pair shapes.

    Training scans a (presumed policy-compliant) capture: for every
    event B it looks back ``window`` seconds at prefix-compatible
    events A and counts how often each (signature(A), signature(B),
    relation) shape occurs, normalised by the number of B-signature
    occurrences.  The resulting ratio is the statistical confidence
    the paper proposes attaching to inferred HBRs.
    """

    def __init__(self, window: float = 2.0):
        self.window = window
        self._pair_counts: Dict[PatternKey, int] = defaultdict(int)
        self._cons_totals: Dict[Signature, int] = defaultdict(int)
        self.trained_events = 0

    def train(self, events: Sequence[IOEvent]) -> None:
        ordered = sorted(events, key=lambda e: (e.timestamp, e.event_id))
        times = [e.timestamp for e in ordered]
        for index, cons in enumerate(ordered):
            self._cons_totals[_signature(cons)] += 1
            self.trained_events += 1
            start = bisect.bisect_left(times, cons.timestamp - self.window)
            seen_keys: Set[PatternKey] = set()
            for ante in ordered[start:index]:
                if not _prefix_compatible(ante, cons):
                    continue
                key = (_signature(ante), _signature(cons), _relation(ante, cons))
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                self._pair_counts[key] += 1

    def confidence(self, ante: IOEvent, cons: IOEvent) -> float:
        key = (_signature(ante), _signature(cons), _relation(ante, cons))
        total = self._cons_totals.get(key[1], 0)
        if total == 0:
            return 0.0
        return self._pair_counts.get(key, 0) / total

    def known_patterns(self, min_confidence: float = 0.0) -> List[Tuple[PatternKey, float]]:
        result = []
        for key, count in self._pair_counts.items():
            total = self._cons_totals.get(key[1], 0)
            if total == 0:
                continue
            confidence = count / total
            if confidence >= min_confidence:
                result.append((key, confidence))
        result.sort(key=lambda item: (-item[1], item[0]))
        return result


def naive_graph(events, window: float = 1.0):
    """§4.2's strawman: link every prefix-compatible pair logged within
    ``window`` (plus the skew allowance) — timestamps and prefixes used
    as the sole mechanism, which the paper warns against."""
    from repro.hbr.graph import EdgeEvidence

    ordered, source, graph = _rescan(events)
    evidence = EdgeEvidence(technique="naive", confidence=0.1)
    for cons in ordered:
        for ante in source.window_candidates(cons, window):
            if _prefix_compatible(ante, cons):
                graph.add_edge(ante.event_id, cons.event_id, evidence)
    return graph


def pattern_graph(events, miner: PatternMiner, threshold: float = 0.6, base=None):
    """§4.2's pattern matching: per consequent and pair shape, link the
    latest prefix-compatible candidate whose mined confidence reaches
    ``threshold``.  Given ``base`` (a rule graph over the same events)
    the result is ``base`` plus pattern edges from antecedents ``base``
    does not already link into that consequent."""
    from repro.hbr.graph import EdgeEvidence

    ordered, source, graph = _rescan(events)
    if base is not None:
        graph.merge(base)
    for cons in ordered:
        linked = {cause.event_id for cause, _ in graph.parents(cons.event_id)}
        best: Dict[PatternKey, Tuple[IOEvent, float]] = {}
        for ante in source.window_candidates(cons, miner.window):
            if ante.event_id in linked or not _prefix_compatible(ante, cons):
                continue
            confidence = miner.confidence(ante, cons)
            if confidence >= threshold:
                # Candidates come in key order: the last one wins.
                key = (_signature(ante), _signature(cons), _relation(ante, cons))
                best[key] = (ante, confidence)
        for ante, confidence in best.values():
            graph.add_edge(
                ante.event_id,
                cons.event_id,
                EdgeEvidence(technique="pattern", confidence=confidence),
            )
    return graph


@oracle("hbg-indexed-equivalence")
def hbg_indexed_equivalence(ctx: OracleContext) -> OracleVerdict:
    """The indexed build path equals the window-rescan spec.

    The inverted indices of repro.hbr.index are pure performance
    work: for any capture they must produce exactly the edge set *and
    evidence* (technique, rule, confidence — the ambiguity discount
    depends on candidate-set equality, so confidences diverge first)
    of :func:`rescan_graph`.
    """
    from repro.hbr.inference import InferenceEngine

    execution = ctx.shared
    events = execution.events()
    indexed_engine = InferenceEngine()
    indexed = indexed_engine.build_graph(events)

    reference = _evidence_edges(rescan_graph(events, indexed_engine))
    problems: List[str] = []
    checked = 1 + len(reference)
    found = _evidence_edges(indexed)
    if found != reference:
        problems.append(
            "indexed path diverges from the window-rescan spec: "
            + _edge_diff(reference, found)
        )

    # The streaming path shares the index; one pass over the events
    # must land on the same graph as the batch build.
    streaming = indexed_engine.streaming()
    for event in events:
        streaming.observe(event)
    checked += 1
    if streaming.graph.to_records() != indexed.to_records():
        problems.append(
            "streaming indexed path disagrees with batch: "
            f"{streaming.graph.edge_count()} vs "
            f"{indexed.edge_count()} edges"
        )

    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (c) what-if prediction vs actual replay --------------------------------


def _forwarding_map(
    snapshot: DataPlaneSnapshot, routers: Sequence[str]
) -> Dict[str, Dict[str, Tuple]]:
    return {
        router: {
            str(entry.prefix): (entry.next_hop_router, entry.discard)
            for entry in snapshot.entries_of(router)
        }
        for router in routers
    }


def _pick_injection(execution: Execution):
    """A deterministic hypothetical event + its description.

    Returns (factory, description) where ``factory()`` builds a fresh
    injection each call — necessary because applying a ConfigChange
    mutates it (fills ``previous``), so the fork and the live network
    each need their own copy.
    """
    case = execution.plan.case
    rng = random.Random(f"repro.testkit.whatif/{case.seed}")
    topology = execution.network.topology
    internal = set(topology.internal_routers())
    internal_links = sorted(
        (link.a.router, link.b.router)
        for link in topology.links.values()
        if link.a.router in internal
        and link.b.router in internal
        and link.up
    )
    if internal_links and rng.random() < 0.5:
        a, b = rng.choice(internal_links)

        def fail(net, a=a, b=b):
            net.fail_link(a, b)

        return fail, f"fail link {a}-{b}"
    spec = rng.choice(execution.specs)
    new_lp = rng.choice((5, 300))
    map_name = uplink_map_name(spec.router)

    def misconfigure(net, spec=spec, new_lp=new_lp, map_name=map_name):
        net.apply_config_change(
            ConfigChange(
                spec.router,
                "set_route_map",
                key=map_name,
                value=local_pref_map(map_name, new_lp),
                description=f"what-if local-pref {new_lp}",
            )
        )

    return misconfigure, f"set {spec.router} uplink local-pref to {new_lp}"


@oracle("whatif-replay")
def whatif_replay(ctx: OracleContext) -> OracleVerdict:
    """Forked prediction == live replay of the same injection (§6)."""
    from repro.whatif.engine import WhatIfEngine

    execution = ctx.fresh()
    network = execution.network
    case = execution.plan.case
    factory, description = _pick_injection(execution)

    engine = WhatIfEngine(network, policies=[], settle=case.settle)
    result = engine.ask([factory], seed=case.seed + 101)
    problems: List[str] = []
    if not result.fork_matches_live:
        problems.append(
            "fork did not reproduce the live forwarding state before "
            f"injection ({description})"
        )

    factory(network)
    network.run(case.settle)
    actual = DataPlaneSnapshot.from_live_network(network)

    internal = execution.internal_routers
    predicted_map = _forwarding_map(result.hypothetical, internal)
    actual_map = _forwarding_map(actual, internal)
    checked = 0
    for router in internal:
        prefixes = set(predicted_map[router]) | set(actual_map[router])
        for prefix in sorted(prefixes):
            checked += 1
            predicted = predicted_map[router].get(prefix)
            replayed = actual_map[router].get(prefix)
            if predicted != replayed:
                problems.append(
                    f"{router} {prefix}: predicted {predicted}, "
                    f"replay saw {replayed} ({description})"
                )

    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (d) provenance rollback ------------------------------------------------


@oracle("provenance-rollback")
def provenance_rollback(ctx: OracleContext) -> OracleVerdict:
    """Reverting the root cause restores the pre-violation FIB (§6)."""
    from repro.hbr.inference import InferenceEngine
    from repro.repair.provenance import ProvenanceTracer
    from repro.repair.rollback import RepairEngine
    from repro.verify.verifier import DataPlaneVerifier

    execution = ctx.fresh()
    network = execution.network
    case = execution.plan.case
    internal = execution.internal_routers
    pre = _forwarding_map(
        DataPlaneSnapshot.from_live_network(network), internal
    )

    # Invert the preference order decisively: the preferred uplink's
    # local-pref drops below everything else, so traffic must move.
    preferred = max(execution.specs, key=lambda s: s.local_pref)
    map_name = uplink_map_name(preferred.router)
    change = ConfigChange(
        preferred.router,
        "set_route_map",
        key=map_name,
        value=local_pref_map(map_name, 1),
        description="rollback-oracle misconfiguration",
    )
    changed_at = network.sim.now
    network.apply_config_change(change)
    network.run(case.settle)
    during = _forwarding_map(
        DataPlaneSnapshot.from_live_network(network), internal
    )
    if during == pre:
        return OracleVerdict(
            oracle="",
            ok=True,
            detail="misconfiguration changed no forwarding (vacuous)",
            checked=0,
        )

    # A FIB update on a (router, prefix) the change moved.
    moved = {
        (router, prefix)
        for router in internal
        for prefix in set(pre[router]) | set(during[router])
        if pre[router].get(prefix) != during[router].get(prefix)
    }
    graph = InferenceEngine().build_graph(execution.events())
    target = None
    for event in execution.events():
        if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
            continue
        if event.timestamp <= changed_at:
            continue
        if (event.router, str(event.prefix)) in moved:
            target = event
            break
    if target is None:
        return OracleVerdict(
            oracle="",
            ok=False,
            detail="forwarding moved but no FIB update was captured "
            "after the misconfiguration",
            checked=1,
        )

    provenance = ProvenanceTracer(graph).trace(target.event_id)
    if change.change_id not in provenance.config_change_ids():
        return OracleVerdict(
            oracle="",
            ok=False,
            detail=(
                f"provenance of FIB update {target.event_id} missed the "
                f"config change (found ids "
                f"{provenance.config_change_ids()})"
            ),
            checked=1,
        )

    verifier = DataPlaneVerifier(network.topology, [])
    report = RepairEngine(network, verifier).repair(
        provenance, settle=case.settle, only_change_ids={change.change_id}
    )
    problems: List[str] = []
    if not any(action.succeeded for action in report.actions):
        problems.append("repair engine applied no revert")
    post = _forwarding_map(
        DataPlaneSnapshot.from_live_network(network), internal
    )
    checked = 1
    for router in internal:
        prefixes = set(pre[router]) | set(post[router])
        for prefix in sorted(prefixes):
            checked += 1
            if pre[router].get(prefix) != post[router].get(prefix):
                problems.append(
                    f"{router} {prefix}: pre-violation "
                    f"{pre[router].get(prefix)} but post-rollback "
                    f"{post[router].get(prefix)}"
                )
    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (e) incremental vs batch verification -----------------------------------


class VerifiedState(NamedTuple):
    """What one side — incremental or batch — holds after a FIB delta."""

    consistent: bool
    missing_routers: Set[str]
    forwarding: Dict[str, Dict[str, Tuple]]
    violations: List

    @classmethod
    def of(cls, report, snapshot, violations) -> "VerifiedState":
        return cls(
            report.consistent,
            report.missing_routers,
            _forwarding_map(snapshot, snapshot.routers()),
            violations,
        )


def per_delta_comparisons(
    incremental, events: Sequence[IOEvent], internal: Sequence[str]
) -> Iterator[Tuple[IOEvent, VerifiedState, VerifiedState]]:
    """Yield ``(event, incremental state, batch state)`` per FIB delta.

    ``events`` are fed in *arrival* order (per-router log lag applied)
    to ``incremental``'s streaming inference.  After every FIB delta
    the batch state is recomputed from scratch over exactly the events
    fed so far: the §5 verdict from a fresh
    :class:`ConsistentSnapshotter` over a fresh batch HBG, the
    forwarding reconstruction from
    :meth:`DataPlaneSnapshot.from_fib_events`, the violations from the
    batch policy checks.  The one comparison behind both the
    ``verify-incremental-equivalence`` oracle and ``repro verify
    --differential``.
    """
    from repro.hbr.inference import InferenceEngine

    view = incremental.view
    batch_engine = InferenceEngine()
    fed: List[IOEvent] = []
    for event in sorted(
        events, key=lambda e: (view.arrival_time(e), e.event_id)
    ):
        incremental.streaming.observe(event)
        fed.append(event)
        if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
            continue
        clock = incremental.clock
        batch_report = ConsistentSnapshotter(view, internal).check(
            batch_engine.build_graph(fed), fed, prefix=event.prefix, at=clock
        )
        batch_snapshot = DataPlaneSnapshot.from_fib_events(fed, taken_at=clock)
        batch_violations = [
            violation
            for policy in incremental.policies
            for violation in policy.check(batch_snapshot, incremental.topology)
        ]
        yield (
            event,
            VerifiedState.of(
                incremental.last_report(event.prefix),
                incremental.snapshot,
                incremental.violations(),
            ),
            VerifiedState.of(batch_report, batch_snapshot, batch_violations),
        )


@oracle("verify-incremental-equivalence")
def verify_incremental_equivalence(ctx: OracleContext) -> OracleVerdict:
    """The incremental verifier equals the batch pipeline per delta.

    All of :func:`per_delta_comparisons`' batch state must match the
    incremental verifier's exactly after every FIB delta — the
    equivalence contract docs/INCREMENTAL_VERIFY.md promises.
    """
    from repro.verify.incremental import IncrementalVerifier, incremental_engine
    from repro.verify.policy import BlackholeFreedomPolicy, LoopFreedomPolicy

    execution = ctx.shared
    internal = execution.internal_routers
    engine = incremental_engine()
    incremental = IncrementalVerifier(
        internal,
        topology=execution.network.topology,
        policies=(LoopFreedomPolicy(), BlackholeFreedomPolicy()),
        view=execution.view,
        engine=engine,
    ).attach(engine.streaming())

    problems: List[str] = []
    checked = 0
    for event, inc, batch in per_delta_comparisons(
        incremental, execution.events(), internal
    ):
        checked += 3
        if (inc.consistent, inc.missing_routers) != (
            batch.consistent,
            batch.missing_routers,
        ):
            problems.append(
                f"§5 verdict diverges after event {event.event_id} "
                f"({event.router} {event.prefix}): incremental "
                f"({inc.consistent}, {sorted(inc.missing_routers)}) vs "
                f"batch ({batch.consistent}, {sorted(batch.missing_routers)})"
            )
        if inc.forwarding != batch.forwarding:
            problems.append(
                f"forwarding reconstruction diverges after event "
                f"{event.event_id}: incremental {inc.forwarding} vs batch "
                f"{batch.forwarding}"
            )
        if inc.violations != batch.violations:
            problems.append(
                f"policy violations diverge after event {event.event_id}: "
                f"incremental {inc.violations[:3]} vs batch "
                f"{batch.violations[:3]}"
            )
        if problems:
            break

    return OracleVerdict(
        oracle="",
        ok=not problems,
        detail="; ".join(problems[:5]),
        checked=checked,
    )


# -- (f) byte-identical replay ----------------------------------------------


@oracle("replay-determinism")
def replay_determinism(ctx: OracleContext) -> OracleVerdict:
    """Same plan, two executions, identical digests (§8)."""
    first = execution_digest(ctx.shared)
    second = execution_digest(ctx.fresh())
    ok = first == second
    return OracleVerdict(
        oracle="",
        ok=ok,
        detail=""
        if ok
        else f"digest drift: {first[:16]}… vs {second[:16]}…",
        checked=1,
    )
