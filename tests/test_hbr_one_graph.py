"""One graph, whichever way it is built or fed.

``InferenceEngine._infer_edges`` is the only code that decides an
HBR edge; the graph stores exactly what it is handed.  So batch,
streaming (any arrival order), distributed (serial or forked),
``merge`` and ``to_records``/``from_records`` agree *by construction*
— including on captures where clock skew closes a cycle, which is
where an insertion-order cycle veto used to make them differ (and
could drop a true edge to keep a skew guess).
"""

import itertools
import random

import pytest

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.distributed import DistributedHbg
from repro.hbr.graph import HappensBeforeGraph, HbgError
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.net.config import ConfigChange, local_pref_map
from repro.repair.provenance import ProvenanceTracer
from repro.repair.rollback import RepairEngine
from repro.scenarios.generators import (
    build_scaled_network,
    churn_workload,
    external_prefixes,
)
from repro.snapshot.base import VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier, incremental_engine
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)
from repro.verify.verifier import DataPlaneVerifier

P = Prefix.parse("203.0.113.0/24")


def _bgp(router, kind, t, peer=None):
    return IOEvent.create(
        router, kind, t, peer=peer, protocol="bgp", prefix=P,
        action=RouteAction.ANNOUNCE,
    )


def _skew_cycle():
    """recv -> rib -> send -> peer recv -> rib -> send, the last send
    logged 30 ms after the first receive: within the 50 ms skew
    tolerance, so ``send-before-recv`` also links it *into* that
    receive and the six inferred edges form a cycle."""
    return [
        _bgp("R1", IOKind.ROUTE_RECEIVE, 10.000, peer="R2"),
        _bgp("R1", IOKind.RIB_UPDATE, 10.005),
        _bgp("R1", IOKind.ROUTE_SEND, 10.010, peer="R2"),
        _bgp("R2", IOKind.ROUTE_RECEIVE, 10.020, peer="R1"),
        _bgp("R2", IOKind.RIB_UPDATE, 10.025),
        _bgp("R2", IOKind.ROUTE_SEND, 10.030, peer="R1"),
    ]


def _distributed(events, workers=None):
    dist = DistributedHbg(InferenceEngine())
    dist.ingest_all(events)
    dist.build_all(workers=workers)
    return dist


class TestSkewCycle:
    def test_every_build_and_every_arrival_order_gives_one_edge_list(self):
        events = _skew_cycle()
        ids = [e.event_id for e in events]
        engine = InferenceEngine()
        batch = engine.build_graph(events)
        canonical = batch.to_records()
        edges = batch.edge_set()
        # The time-respecting edge (R2 rib -> R2 send) *and* the skew
        # edge (R2 send -> R1 recv): neither is dropped for the other.
        assert (ids[4], ids[5]) in edges and (ids[5], ids[0]) in edges
        assert edges == {(a, b) for a, b in zip(ids, ids[1:] + ids[:1])}

        for order in itertools.permutations(events):
            stream = engine.streaming()
            for event in order:
                stream.observe(event)
            assert stream.graph.to_records() == canonical, [
                e.event_id for e in order
            ]
        for workers in (None, 2):
            merged = _distributed(events, workers).merged_graph()
            assert merged.to_records() == canonical
        assert HappensBeforeGraph.from_records(canonical).to_records() == (
            canonical
        )
        half = HappensBeforeGraph.from_records(canonical)
        half.prune_before(10.015)
        half.merge(batch)
        assert half.to_records() == canonical

    def test_walkers_terminate_on_the_cycle(self):
        events = _skew_cycle()
        config = IOEvent.create(
            "R1", IOKind.CONFIG_CHANGE, 9.0, attrs={"change_id": 7}
        )
        first, last = events[0].event_id, events[-1].event_id
        everyone = {e.event_id for e in events}

        graph = InferenceEngine().build_graph(events)
        assert graph.ancestors(first) == everyone
        assert graph.descendants(first) == everyone
        # A leafless cycle: the event is its own root cause.
        assert graph.root_causes(first) == [events[0]]
        assert graph.causal_chain(first, last) == events
        assert graph.causal_chain(last, events[4].event_id) == (
            [events[5]] + events[:5]
        )
        with pytest.raises(HbgError, match="cycle"):
            graph.topological_order()
        dist = _distributed(events)
        assert dist.trace_root_causes(first) == [events[0]]

        # With a real leaf upstream, the walk goes through the cycle
        # to it — from every event on the cycle, centrally and
        # distributedly.
        graph = InferenceEngine().build_graph(events + [config])
        dist = _distributed(events + [config])
        for event in events:
            assert graph.root_causes(event.event_id) == [config]
            assert dist.trace_root_causes(event.event_id) == [config]
        result = ProvenanceTracer(graph).trace_many([first, last])
        assert result.root_causes == [config]
        assert result.config_change_ids() == [7]
        assert result.ancestry == everyone | {config.event_id}


# -- the captures that used to disagree ---------------------------------------

GUARD_AT, CHURN_START, SETTLE, DRAIN_GAP, REPAIR_SETTLE = 1.0, 30.0, 40.0, 2.0, 60.0


class _World:
    """bench/loop.py's recipe: a route-reflector network, four guard
    prefixes announced on every uplink, seeded churn drained back to
    the guard-only steady state; fed to the online loop in arrival
    order."""

    def __init__(self, n, churn, world_seed, sim_seed, lag_ms):
        self.net, specs = build_scaled_network(
            n, seed=sim_seed, rng=random.Random(world_seed)
        )
        self.guards = external_prefixes(4, base="198.51.0.0")
        self.churned = external_prefixes(8)
        self.preferred = max(specs, key=lambda s: s.local_pref)
        self.fallback = min(specs, key=lambda s: s.local_pref)
        self.internal = self.net.topology.internal_routers()
        self.net.start()
        for spec in specs:
            for prefix in self.guards:
                self.net.announce_prefix(spec.external, prefix, at=GUARD_AT)
        schedule = churn_workload(
            self.net, specs, self.churned, churn,
            start=CHURN_START, seed=world_seed,
        )
        last = schedule[-1][0]
        live = set()
        for _when, action, external, prefix in schedule:
            (live.add if action == "announce" else live.discard)(
                (external, prefix)
            )
        for external, prefix in sorted(live):
            self.net.withdraw_prefix(external, prefix, at=last + DRAIN_GAP)
        self.net.run(last + DRAIN_GAP + SETTLE)
        rng = random.Random(sim_seed)
        lags = {
            router: rng.uniform(0.0, lag_ms / 1000.0)
            for router in sorted(self.internal)
            if lag_ms
        }
        self.view = VerifierView(self.net.collector, lags=lags)
        self.policies = [
            PreferredExitPolicy(
                prefix=self.guards[0],
                preferred_exit=self.preferred.router,
                fallback_exit=self.fallback.router,
                uplink_of={
                    self.preferred.router: self.preferred.external,
                    self.fallback.router: self.fallback.external,
                },
            ),
            LoopFreedomPolicy(),
            BlackholeFreedomPolicy(),
        ]
        engine = incremental_engine()
        self.streaming = engine.streaming()
        self.verifier = IncrementalVerifier(
            self.internal,
            topology=self.net.topology,
            policies=self.policies,
            view=self.view,
            engine=engine,
        ).attach(self.streaming)
        self.fed = []
        self.feed()

    def feed(self):
        """Observe what was captured since the last call, in arrival order."""
        fresh = self.net.collector.all_events()[len(self.fed):]
        fresh.sort(key=lambda e: (self.view.arrival_time(e), e.event_id))
        for event in fresh:
            self.streaming.observe(event)
        self.fed.extend(fresh)

    def sabotage_and_repair(self):
        """One bench round: local-pref 1 on the preferred uplink, trace
        the violated prefixes' FIB churn, roll the root cause back."""
        since = self.net.sim.now
        name = f"{self.preferred.router.lower()}-uplink-lp"
        planted = ConfigChange(
            self.preferred.router,
            "set_route_map",
            key=name,
            value=local_pref_map(name, 1),
            description="sabotage preferred uplink",
        )
        self.net.apply_config_change(planted)
        self.net.run(SETTLE)
        self.feed()
        violated = {v.prefix for v in self.verifier.violations()}
        assert violated
        suspects = [
            e.event_id
            for e in self.fed
            if e.kind is IOKind.FIB_UPDATE
            and e.timestamp > since
            and e.prefix in violated
        ]
        provenance = ProvenanceTracer(self.streaming.graph).trace_many(suspects)
        assert provenance.config_change_ids() == [planted.change_id]
        report = RepairEngine(
            self.net, DataPlaneVerifier(self.net.topology, self.policies)
        ).repair(provenance, settle=REPAIR_SETTLE)
        assert report.repaired
        self.feed()
        assert not self.verifier.violations()

    def assert_one_graph(self):
        batch = InferenceEngine().build_graph(list(self.fed))
        canonical = batch.to_records()
        assert self.streaming.graph.to_records() == canonical
        assert _distributed(self.fed).merged_graph().to_records() == canonical
        clock = self.verifier.clock
        for prefix in self.guards + self.churned:
            live = self.verifier.consistency(prefix)
            reference = ConsistentSnapshotter(self.view, self.internal).check(
                batch, self.fed, prefix=prefix, at=clock
            )
            assert (live.consistent, sorted(live.missing_routers)) == (
                reference.consistent,
                sorted(reference.missing_routers),
            ), prefix
        # Not vacuous: this capture holds a skew cycle.
        with pytest.raises(HbgError, match="cycle"):
            batch.topological_order()


@pytest.mark.parametrize("world_seed", [1, 6])
def test_world_seeds_with_a_skew_cycle_stream_to_the_batch_graph(world_seed):
    """`build_scaled_network(32)` with its random graph seeded 1 or 6
    logs sends within the skew tolerance after a receive they did not
    cause.  Streaming and batch used to veto different edges of the
    resulting cycle, and two guard prefixes got different §5 verdicts."""
    _World(32, 24, world_seed, sim_seed=0, lag_ms=50.0).assert_one_graph()


def test_rr_repair_seed_7_in_order_stream_equals_batch():
    """Simulator seed 7 of the in-order rr_repair recipe: the third
    sabotage/repair cycle closes a skew cycle, and the batch build
    used to drop the true ``bgp-rib-before-send`` edge to keep a
    +49.8 ms ``send-before-recv`` guess."""
    world = _World(20, 24, world_seed=0, sim_seed=7, lag_ms=0.0)
    for _round in range(3):
        world.sabotage_and_repair()
    world.assert_one_graph()
