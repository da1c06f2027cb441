"""The prefix is the unit of §5 caching and invalidation.

:class:`ConsistentSnapshotter` keeps the §5 facts (FIB history, cut
front, unmatched sends) and the memos of the walks over them per
prefix, fed by one hook, :meth:`ConsistentSnapshotter.observe`.  These
tests pin what that buys and what it must not cost:

* invalidation is *local* — re-linking an event of prefix P re-walks P
  and serves Q from its memos (read off the public
  ``snapshot.closure_cache_hits`` / ``_misses`` counters);
* invalidation is *sound* — a straggler FIB update behind a queried
  cutoff flips the cached verdict (the Fig. 1c resolution path), and
  after every FIB delta of a seeded lagged churn run the incremental
  verdict equals a from-scratch batch ``check``, in two arrival orders;
* the batch ``check`` never touches the maintained state;
* ``reasons`` phrases the recorded problems exactly as before;
* the per-delta call count inside ``repro/snapshot`` + ``repro/verify``
  stays inside a budget, so neither per-event bookkeeping nor eager
  formatting can creep back unnoticed.
"""

import cProfile
import os
import pstats
import random

import pytest

import repro.snapshot
import repro.verify
from repro import obs
from repro.capture.io_events import (
    IOEvent,
    IOKind,
    RouteAction,
    reset_event_ids,
)
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.scenarios.generators import (
    build_scaled_network,
    churn_workload,
    external_prefixes,
)
from repro.snapshot.base import VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier, incremental_engine

P = Prefix.parse("10.0.0.0/8")
Q = Prefix.parse("192.168.0.0/16")
INTERNAL = ("R1", "R2")


def _event(router, kind, t, prefix, peer=None):
    return IOEvent.create(
        router,
        kind,
        t,
        protocol="bgp",
        prefix=prefix,
        action=RouteAction.ANNOUNCE,
        peer=peer,
    )


def _chain(prefix, t):
    """R2 installs ``prefix`` and advertises it to R1, which installs
    it: the shortest history whose §5 closure crosses a router."""
    return {
        "r2_fib": _event("R2", IOKind.FIB_UPDATE, t, prefix),
        "send": _event("R2", IOKind.ROUTE_SEND, t + 0.01, prefix, peer="R1"),
        "recv": _event("R1", IOKind.ROUTE_RECEIVE, t + 0.02, prefix, peer="R2"),
        "rib": _event("R1", IOKind.RIB_UPDATE, t + 0.03, prefix),
        "r1_fib": _event("R1", IOKind.FIB_UPDATE, t + 0.04, prefix),
    }


def _attached():
    engine = incremental_engine()
    streaming = engine.streaming()
    verifier = IncrementalVerifier(INTERNAL, engine=engine).attach(streaming)
    return verifier, streaming


@pytest.fixture
def registry():
    registry, _tracer = obs.enable()
    try:
        yield registry
    finally:
        obs.disable()


def _cache_counts(registry):
    return (
        registry.counter("snapshot.closure_cache_hits").value,
        registry.counter("snapshot.closure_cache_misses").value,
    )


def _checked(registry, verifier, prefix, at):
    """(report, memo hits, memo misses) of one ``consistency`` call."""
    hits, misses = _cache_counts(registry)
    report = verifier.consistency(prefix, at=at)
    after_hits, after_misses = _cache_counts(registry)
    return report, after_hits - hits, after_misses - misses


def _verdict(report):
    return report.consistent, sorted(report.missing_routers)


class TestInvalidationIsLocal:
    def test_relinking_one_prefix_leaves_the_other_prefixes_memos(
        self, registry
    ):
        reset_event_ids()
        verifier, streaming = _attached()
        p, q = _chain(P, 1.0), _chain(Q, 1.0)
        for event in q.values():
            streaming.observe(event)
        for name, event in p.items():
            if name != "send":  # R2's send is the straggler
                streaming.observe(event)
        at = 1.5

        report, _hits, misses = _checked(registry, verifier, P, at)
        assert not report.consistent and report.missing_routers == {"R2"}
        assert misses == 0, "the delta's own check already walked P"
        report, _hits, misses = _checked(registry, verifier, Q, at)
        assert report.consistent and misses == 0

        # The straggler re-links P's receive: P's memos go, Q's stay.
        streaming.observe(p["send"])
        report, hits, misses = _checked(registry, verifier, Q, at)
        assert report.consistent
        assert misses == 0 and hits > 0
        report, _hits, misses = _checked(registry, verifier, P, at)
        assert report.consistent, report.reasons
        assert misses > 0

        # And P is warm again afterwards.
        _report, hits, misses = _checked(registry, verifier, P, at)
        assert misses == 0 and hits > 0


class TestSharedUpstream:
    def test_every_cached_closure_carries_its_shared_upstream_verdict(self):
        """R1 and R2 both learn P from R3, whose own route came from R4
        — and R4's log never arrives.  Once R3's FIB update is walked,
        the walks from R1 and R2 meet it again; their cached verdicts
        must include what it found, or they hide it as soon as R3's
        entry in the cut front is superseded."""
        reset_event_ids()
        internal = ("R1", "R2", "R3", "R4")
        engine = incremental_engine()
        streaming = engine.streaming()
        verifier = IncrementalVerifier(internal, engine=engine).attach(
            streaming
        )
        fed = [
            _event("R3", IOKind.ROUTE_RECEIVE, 0.96, P, peer="R4"),
            _event("R3", IOKind.RIB_UPDATE, 0.98, P),
            _event("R3", IOKind.FIB_UPDATE, 1.0, P),
        ]
        for router in ("R1", "R2"):
            fed += [
                _event("R3", IOKind.ROUTE_SEND, 1.01, P, peer=router),
                _event(router, IOKind.ROUTE_RECEIVE, 1.02, P, peer="R3"),
                _event(router, IOKind.RIB_UPDATE, 1.03, P),
                _event(router, IOKind.FIB_UPDATE, 1.04, P),
            ]
        # R3 replaces its entry: no advertisement behind this one.
        fed.append(
            IOEvent.create(
                "R3",
                IOKind.FIB_UPDATE,
                3.5,
                protocol="bgp",
                prefix=P,
                action=RouteAction.WITHDRAW,
            )
        )
        for event in fed:
            streaming.observe(event)
        live = verifier.consistency(P, at=4.0)
        batch = ConsistentSnapshotter(None, internal).check(
            streaming.graph, fed, prefix=P, at=4.0
        )
        assert _verdict(batch) == (False, ["R4"])
        assert _verdict(live) == _verdict(batch)


class TestStragglerFibUpdate:
    """Fig. 1c: the sender's FIB update is what the verifier lacks."""

    def _without_senders_fib(self):
        reset_event_ids()
        verifier, streaming = _attached()
        p = _chain(P, 1.0)
        for name in ("send", "recv", "rib", "r1_fib"):
            streaming.observe(p[name])
        return verifier, streaming, p

    def test_arrival_behind_a_queried_cutoff_flips_the_cached_verdict(
        self, registry
    ):
        verifier, streaming, p = self._without_senders_fib()
        report, _hits, misses = _checked(registry, verifier, P, 1.5)
        assert not report.consistent and report.missing_routers == {"R2"}
        assert misses == 0, "served from the memo the delta's check left"

        streaming.observe(p["r2_fib"])
        report, _hits, misses = _checked(registry, verifier, P, 1.5)
        assert report.consistent, report.reasons
        batch = ConsistentSnapshotter(None, INTERNAL).check(
            streaming.graph, streaming.graph.events(), prefix=P, at=1.5
        )
        assert batch.consistent

    def test_arrival_past_every_cutoff_drops_nothing(self, registry):
        verifier, streaming, _p = self._without_senders_fib()
        late = IOEvent.create(
            "R2",
            IOKind.FIB_UPDATE,
            5.0,
            protocol="static",
            prefix=P,
            action=RouteAction.ANNOUNCE,
        )
        streaming.observe(late)
        report, hits, misses = _checked(registry, verifier, P, 5.5)
        assert not report.consistent and report.missing_routers == {"R2"}
        assert misses == 0 and hits > 0


def _lagged_world(lag_seed, straggler_lag):
    """Route reflectors n=8 under churn, as the verifier receives it."""
    reset_event_ids()
    net, specs = build_scaled_network(8, seed=0)
    net.start()
    prefixes = external_prefixes(4)
    churn_workload(net, specs, prefixes, 40, start=5.0)
    net.run(85)
    internal = sorted(net.topology.internal_routers())
    rng = random.Random(lag_seed)
    lags = {router: rng.uniform(0.0, 0.05) for router in internal}
    lags[rng.choice(internal)] = straggler_lag
    view = VerifierView(net.collector, lags=lags)
    events = sorted(
        net.collector.all_events(),
        key=lambda e: (view.arrival_time(e), e.event_id),
    )
    return internal, view, events, prefixes


class TestEqualsBatchAfterEveryDelta:
    @pytest.mark.parametrize(
        "lag_seed, straggler_lag", [(0, 0.05), (7, 0.6)]
    )
    def test_lagged_churn_in_two_arrival_orders(self, lag_seed, straggler_lag):
        internal, view, events, prefixes = _lagged_world(
            lag_seed, straggler_lag
        )
        engine = incremental_engine()
        streaming = engine.streaming()
        verifier = IncrementalVerifier(
            internal, view=view, engine=engine
        ).attach(streaming)
        fed = []
        deltas = deferred = 0
        for event in events:
            streaming.observe(event)
            fed.append(event)
            if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
                continue
            deltas += 1
            live = verifier.consistency(event.prefix)
            batch = ConsistentSnapshotter(view, internal).check(
                streaming.graph, fed, prefix=event.prefix, at=verifier.clock
            )
            assert _verdict(live) == _verdict(batch), (deltas, event)
            deferred += not live.consistent
        assert deltas > 150 and 0 < deferred < deltas
        # The graph the per-delta reference read is the batch graph.
        graph = InferenceEngine().build_graph(fed)
        assert graph.to_records() == streaming.graph.to_records()
        for prefix in prefixes:
            assert _verdict(verifier.consistency(prefix)) == _verdict(
                ConsistentSnapshotter(view, internal).check(
                    graph, fed, prefix=prefix, at=verifier.clock
                )
            )


class TestBatchCheckLeavesTheLiveStateAlone:
    def test_check_on_a_live_instance_changes_neither(self, registry):
        internal, view, events, prefixes = _lagged_world(0, 0.6)
        engine = incremental_engine()
        streaming = engine.streaming()
        verifier = IncrementalVerifier(
            internal, view=view, engine=engine
        ).attach(streaming)
        # Stop mid-churn, while some cuts are still deferred.
        fed = events[: len(events) * 2 // 3]
        for event in fed:
            streaming.observe(event)
        snapshotter = verifier.snapshotter
        at = verifier.clock
        before = {p: _verdict(verifier.consistency(p, at=at)) for p in prefixes}
        assert not all(consistent for consistent, _missing in before.values())
        resident = snapshotter.account_bytes(audit=True)

        for prefix in (None, *prefixes):
            on_live = snapshotter.check(streaming.graph, fed, prefix=prefix, at=at)
            fresh = ConsistentSnapshotter(view, internal).check(
                streaming.graph, fed, prefix=prefix, at=at
            )
            assert _verdict(on_live) == _verdict(fresh)
            assert on_live.reasons == fresh.reasons

        assert snapshotter.account_bytes(audit=True) == resident
        for prefix in prefixes:
            report, _hits, misses = _checked(registry, verifier, prefix, at)
            assert _verdict(report) == before[prefix]
            assert misses == 0, "the batch check dropped live memos"


class TestReasonsAreAView:
    """The three problem kinds, phrased exactly as the eager strings
    the walk used to append."""

    def _graph(self, names):
        reset_event_ids()
        p = _chain(P, 1.0)
        streaming = InferenceEngine().streaming()
        for name in names:
            streaming.observe(p[name])
        return streaming.graph

    def _reasons(self, names, at):
        graph = self._graph(names)
        report = ConsistentSnapshotter(None, INTERNAL).check(
            graph, graph.events(), prefix=P, at=at
        )
        assert not report.consistent
        assert report.first_reason() == report.reasons[0]
        return report.reasons

    def test_unmatched_send_in_flight_then_lagging(self):
        assert self._reasons(("r2_fib", "send"), at=1.05) == [
            "R2 sent announce for 10.0.0.0/8 to R1 at 1.010s "
            "but R1's receive may still be in flight"
        ]
        assert self._reasons(("r2_fib", "send"), at=2.0) == [
            "R2 sent announce for 10.0.0.0/8 to R1 at 1.010s "
            "but R1's receive has not reached the verifier"
        ]

    def test_receive_without_its_send(self):
        assert self._reasons(("recv", "rib", "r1_fib"), at=1.5) == [
            "R1's HBG contains a route for 10.0.0.0/8 via R2 that has "
            "not been announced in the HBG received from R2"
        ]

    def test_sender_without_its_fib_update(self):
        assert self._reasons(("send", "recv", "rib", "r1_fib"), at=1.5) == [
            "R2 announced 10.0.0.0/8 but its own FIB update has not "
            "reached the verifier"
        ]

    def test_consistent_report_has_no_reason(self):
        graph = self._graph(("r2_fib", "send", "recv", "rib", "r1_fib"))
        report = ConsistentSnapshotter(None, INTERNAL).check(
            graph, graph.events(), prefix=P, at=1.5
        )
        assert report.consistent
        assert report.reasons == [] and report.first_reason() is None


def test_snapshot_and_verify_calls_per_delta_stay_within_budget():
    """Interpreter calls inside ``repro/snapshot/`` + ``repro/verify/``
    per FIB delta, counted by cProfile on a fixed seeded capture — a
    count, so it repeats exactly on a noisy box.  The capture (route
    reflectors n=8, 40 churn events, per-router lag plus one 0.6 s
    straggler so re-links, late FIB updates and deferred cuts all
    occur; no policies, telemetry off: 1,033 events, 182 deltas) costs
    68.2 calls per delta with the prefix as the unit of invalidation;
    the budget is ~1.3x that.  The per-event dependency index it
    replaced cost 59.8 inside these two packages on so small a
    capture — what it paid was outside them, 347 ``Prefix.__str__``
    calls for reasons nobody read among them — so the second half of
    the guard is that nothing phrases a reason here at all."""
    internal, view, events, _prefixes = _lagged_world(0, 0.6)
    engine = incremental_engine()
    streaming = engine.streaming()
    verifier = IncrementalVerifier(internal, view=view, engine=engine).attach(
        streaming
    )
    profile = cProfile.Profile()
    profile.enable()
    for event in events:
        streaming.observe(event)
    profile.disable()
    assert verifier.deltas_applied > 150
    packages = tuple(
        os.path.dirname(package.__file__) + os.sep
        for package in (repro.snapshot, repro.verify)
    )
    calls = phrased = 0
    for (filename, _line, name), (
        _primitive,
        total_calls,
        _tt,
        _ct,
        _callers,
    ) in pstats.Stats(profile).stats.items():
        if filename.startswith(packages):
            calls += total_calls
        if name == "__str__" and filename.endswith("addr.py"):
            phrased += total_calls
    assert phrased == 0
    assert calls / verifier.deltas_applied <= 88.0, (
        calls / verifier.deltas_applied
    )
