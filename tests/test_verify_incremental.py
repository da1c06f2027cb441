"""Adversarial tests for the incremental atom-based verifier.

Every scenario here is chosen to break a naive "re-check only the
delta's prefix" implementation:

* overlapping /8 vs /24 prefixes, where longest-prefix-match makes a
  delta on one prefix change trace outcomes for addresses probed on
  behalf of the other;
* withdraw-then-readvertise churn on one (router, prefix), where the
  cut front must track the latest delta and the forwarding table must
  not resurrect stale entries;
* the Fig. 1c straggler feed through the incremental path: arriving
  in per-router-lag order, the verifier must defer (inconsistent,
  naming R2) rather than alarm on the phantom loop;
* the 0→1 table transition, where a router's *first* FIB entry flips
  the trace heuristic for every address — the one delta that is
  deliberately not atom-local;
* the cache-coherence hazard: maintained §5 memos served across a
  rollback replay (event-id reuse) are stale unless ``invalidate()``
  runs — and :class:`RepairEngine` runs it for registered
  snapshotters.

Each step is compared against the batch pipeline recomputed from
scratch — the same contract the ``verify-incremental-equivalence``
fuzz oracle checks on random workloads.
"""

from repro.capture.io_events import (
    IOEvent,
    IOKind,
    RouteAction,
    reset_event_ids,
)
from repro.hbr.graph import EdgeEvidence, HappensBeforeGraph
from repro.hbr.inference import InferenceEngine
from repro.net.addr import Prefix
from repro.net.config import ConfigChange, local_pref_map
from repro.repair.provenance import ProvenanceResult
from repro.repair.rollback import RepairEngine
from repro.scenarios.fig1 import Fig1Scenario
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
)
from repro.scenarios.paper_net import P, paper_policy
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry, VerifierView
from repro.snapshot.consistent import ConsistentSnapshotter
from repro.verify.incremental import IncrementalVerifier, incremental_engine
from repro.verify.policy import BlackholeFreedomPolicy, LoopFreedomPolicy
from repro.verify.verifier import DataPlaneVerifier

P8 = Prefix.parse("10.0.0.0/8")
P24 = Prefix.parse("10.1.0.0/24")
Q16 = Prefix.parse("192.168.0.0/16")


def _fib(router, prefix, t, next_hop=None, action=RouteAction.ANNOUNCE):
    attrs = {}
    if next_hop is not None:
        attrs["next_hop_router"] = next_hop
    return IOEvent.create(
        router,
        IOKind.FIB_UPDATE,
        t,
        protocol="bgp",
        prefix=prefix,
        action=action,
        attrs=attrs,
    )


def _verifier(topology, policies, internal=("R1", "R2", "R3"), view=None):
    engine = incremental_engine()
    streaming = engine.streaming()
    verifier = IncrementalVerifier(
        internal,
        topology=topology,
        policies=policies,
        view=view,
        engine=engine,
    ).attach(streaming)
    return verifier, streaming


def _assert_matches_batch(verifier, fed, internal, topology, policies, prefix):
    """Recompute the batch pipeline from scratch and compare."""
    graph = InferenceEngine().build_graph(fed)
    batch_report = ConsistentSnapshotter(None, internal).check(
        graph, fed, prefix=prefix, at=verifier.clock
    )
    inc_report = verifier.last_report(prefix)
    assert inc_report.consistent == batch_report.consistent
    assert inc_report.missing_routers == batch_report.missing_routers
    snapshot = DataPlaneSnapshot.from_fib_events(fed)
    batch_violations = [
        v for policy in policies for v in policy.check(snapshot, topology)
    ]
    assert verifier.violations() == batch_violations
    return batch_violations


class TestOverlappingPrefixes:
    """A /24 inside a /8: LPM couples the two prefixes' verdicts."""

    def test_loop_on_more_specific_only(self, paper_network):
        topology = paper_network.topology
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(topology, policies)
        fed = []

        def step(event):
            streaming.observe(event)
            fed.append(event)
            return _assert_matches_batch(
                verifier, fed, ("R1", "R2", "R3"), topology, policies,
                event.prefix,
            )

        # Clean /8 everywhere: R2, R3 forward to R1, R1 delivers.
        assert step(_fib("R1", P8, 1.0)) == []
        assert step(_fib("R2", P8, 1.1, next_hop="R1")) == []
        assert step(_fib("R3", P8, 1.2, next_hop="R1")) == []
        assert verifier.atoms.atom_count() == 3  # below, /8, above

        # A /24 loop strictly inside the /8: R1 <-> R2 for 10.1.0.0,
        # while the /8 probe address 10.0.0.0 stays clean.
        step(_fib("R1", P24, 2.0, next_hop="R2"))
        found = step(_fib("R2", P24, 2.1, next_hop="R1"))
        loops = [v for v in found if v.policy == "loop-freedom"]
        assert loops, "expected the /24 forwarding loop"
        assert all(v.prefix == Prefix(P24.first_address(), 32) for v in loops)
        # The /8's own probe address never alarms.
        assert not any(
            v.prefix == Prefix(P8.first_address(), 32) for v in found
        )
        # The /24 split the /8's atom range.
        assert len(verifier.atoms.atoms_within(P8)) == 3

        # Withdrawing R2's /24 does NOT clear the loop: R2 now matches
        # 10.1.0.0 through its /8 entry, which still points at R1 —
        # exactly the cross-prefix coupling a per-prefix-only
        # invalidation would miss (the batch comparison pins it).
        found = step(_fib("R2", P24, 3.0, action=RouteAction.WITHDRAW))
        assert any(v.policy == "loop-freedom" for v in found)

        # Only withdrawing R1's /24 too restores loop freedom.
        found = step(_fib("R1", P24, 3.1, action=RouteAction.WITHDRAW))
        assert found == []


class TestWithdrawReadvertiseChurn:
    def test_cut_front_tracks_latest_delta(self, paper_network):
        topology = paper_network.topology
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(topology, policies)
        fed = []
        sequence = [
            _fib("R1", P8, 1.0),
            _fib("R1", P8, 1.5, action=RouteAction.WITHDRAW),
            _fib("R1", P8, 2.0, next_hop="R2"),
            _fib("R2", P8, 2.1),
            _fib("R1", P8, 2.5, action=RouteAction.WITHDRAW),
            _fib("R1", P8, 3.0),
        ]
        for event in sequence:
            streaming.observe(event)
            fed.append(event)
            _assert_matches_batch(
                verifier, fed, ("R1", "R2", "R3"), topology, policies, P8
            )
        # Churn on one (router, prefix) never grows the atom table.
        assert verifier.atoms.atom_count() == 3
        # The final announce wins: R1 delivers directly again.
        entry = verifier.snapshot.entry("R1", P8)
        assert entry is not None
        assert entry.next_hop_router is None
        assert entry.source_event_id == sequence[-1].event_id

    def test_generated_churn_with_straggler(self):
        """A generated workload, fed in arrival order with one lagging
        router, lands on the batch pipeline's exact final state."""
        net, specs = build_random_network(5, uplinks=2, seed=3)
        net.start()
        churn_workload(
            net, specs, external_prefixes(3), events=6, start=2.0, seed=3
        )
        net.run(60)
        internal = net.topology.internal_routers()
        view = VerifierView(net.collector, lags={internal[0]: 0.3})
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(
            net.topology, policies, internal=internal, view=view
        )
        fed = sorted(
            net.collector.all_events(),
            key=lambda e: (view.arrival_time(e), e.event_id),
        )
        withdrawals = 0
        for event in fed:
            streaming.observe(event)
            if (
                event.kind is IOKind.FIB_UPDATE
                and event.action is RouteAction.WITHDRAW
            ):
                withdrawals += 1
        assert withdrawals > 0, "workload produced no withdraw churn"
        assert verifier.deltas_applied > 0
        for prefix in sorted(
            verifier.snapshot.all_prefixes() | set(external_prefixes(3))
        ):
            verifier.consistency(prefix)
            _assert_matches_batch(
                verifier, fed, internal, net.topology, policies, prefix
            )


class TestFig1cIncremental:
    def test_straggler_defers_instead_of_phantom_loop(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        view = VerifierView(net.collector, lags={"R2": 0.5})
        internal = net.topology.internal_routers()
        policies = (LoopFreedomPolicy(prefixes=[P]),)
        verifier, streaming = _verifier(
            net.topology, policies, internal=internal, view=view
        )
        arrival_order = sorted(
            net.collector.all_events(),
            key=lambda e: (view.arrival_time(e), e.event_id),
        )
        deferred_on_r2 = False
        phantom = False
        for event in arrival_order:
            streaming.observe(event)
            if event.kind is not IOKind.FIB_UPDATE or event.prefix is None:
                continue
            report = verifier.consistency(P)
            if not report.consistent and "R2" in report.missing_routers:
                deferred_on_r2 = True
            if report.consistent and any(
                v.policy == "loop-freedom" for v in verifier.violations()
            ):
                phantom = True
        # The Fig. 1c window exists (R2's log lags, the cut is refused
        # naming R2) ...
        assert deferred_on_r2
        # ... and no consistent cut ever exhibited the phantom loop.
        assert not phantom
        # Once every log has drained, the verdict closes clean.
        final = verifier.consistency(P)
        assert final.consistent
        assert verifier.violations() == []


class TestFirstEntryGlobalRecheck:
    def test_unrelated_prefix_flips_trace_heuristic(self, paper_network):
        """R2's first-ever FIB entry turns R2 from "external, assume
        delivered" into "internal, may blackhole" for EVERY address —
        a delta whose policy impact escapes its own atoms."""
        topology = paper_network.topology
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(topology, policies)
        fed = []

        event = _fib("R1", P8, 1.0, next_hop="R2")
        streaming.observe(event)
        fed.append(event)
        # R2 has no table yet: the hop into it counts as delivered.
        assert verifier.violations() == []
        _assert_matches_batch(
            verifier, fed, ("R1", "R2", "R3"), topology, policies, P8
        )

        # R2's first entry is for a DISJOINT prefix — its atoms do not
        # overlap the /8 — yet the blackhole for 10.0.0.0 must appear.
        event = _fib("R2", Q16, 2.0)
        streaming.observe(event)
        fed.append(event)
        found = _assert_matches_batch(
            verifier, fed, ("R1", "R2", "R3"), topology, policies, Q16
        )
        blackholes = [v for v in found if v.policy == "blackhole-freedom"]
        assert blackholes, "expected the 0->1 transition blackhole"
        assert blackholes[0].router == "R1"
        assert blackholes[0].prefix == Prefix(P8.first_address(), 32)


class TestWhatIf:
    """``what_if`` answers for a pending write and leaves no trace —
    the Fig. 3 guard's question (tests/test_pipeline_guard.py has the
    differential against the batch reference)."""

    def _entry(self, router, prefix, next_hop):
        return SnapshotEntry(router, prefix, next_hop, None, "bgp", False, 0, 9.0)

    def _observable(self, verifier):
        snapshot = verifier.snapshot
        return (
            {r: snapshot.entries_of(r) for r in snapshot.routers()},
            {r: snapshot.has_router(r) for r in ("R1", "R2", "R3")},
            verifier.violations(),
            [dict(cache) for cache in verifier._policy_hits],
            {
                (r, a): snapshot.trace(r, a)
                for r in ("R1", "R2", "R3")
                for a in snapshot.first_addresses()
            },
            verifier.deltas_applied,
            verifier.atoms.atom_count(),
        )

    def test_first_ever_write_leaves_has_router_false(self, paper_network):
        """The trap: ``install`` creates R2's table, ``remove`` never
        drops it — and a table turns every hop into R2 from delivered
        into blackhole.  A what-if must put that back too."""
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(paper_network.topology, policies)
        streaming.observe(_fib("R1", P8, 1.0, next_hop="R2"))
        assert verifier.violations() == []
        before = self._observable(verifier)

        # R2's first entry, for a disjoint prefix: the global
        # exception — 10.0.0.0 now blackholes at R2, off the /16's atoms.
        introduced = verifier.what_if("R2", Q16, self._entry("R2", Q16, None))
        assert [(v.policy, v.router) for v in introduced] == [
            ("blackhole-freedom", "R1")
        ]
        assert introduced[0].prefix == Prefix(P8.first_address(), 32)
        assert not verifier.snapshot.has_router("R2")
        assert self._observable(verifier) == before

        # And the same question about the /8 itself: R2 -> R1 loops.
        introduced = verifier.what_if("R2", P8, self._entry("R2", P8, "R1"))
        assert {v.policy for v in introduced} == {"loop-freedom"}
        assert not verifier.snapshot.has_router("R2")
        assert self._observable(verifier) == before

        # A withdraw on a router with no table is a no-op what-if.
        assert verifier.what_if("R2", P8, None) == []
        assert self._observable(verifier) == before

        # The real delta afterwards still lands as if nothing was asked.
        event = _fib("R2", Q16, 2.0)
        streaming.observe(event)
        assert [v.policy for v in verifier.violations()] == [
            "blackhole-freedom"
        ]

    def test_withdraw_and_replace_are_restored(self, paper_network):
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(paper_network.topology, policies)
        for t, (router, prefix, next_hop) in enumerate(
            [
                ("R1", P8, None),
                ("R2", P8, "R1"),
                ("R3", P8, "R2"),
                ("R3", P24, "R1"),
                # A standing violation the what-ifs must not be blamed
                # for, and must put back: R2 has nothing for the /16.
                ("R1", Q16, "R2"),
            ],
            1,
        ):
            streaming.observe(_fib(router, prefix, float(t), next_hop=next_hop))
        standing = verifier.violations()
        assert [v.policy for v in standing] == ["blackhole-freedom"]
        before = self._observable(verifier)

        # R3's /8 traffic goes through R2: withdrawn there, it
        # blackholes (a source without a route of its own is not one).
        introduced = verifier.what_if("R2", P8, None)
        assert [(v.policy, v.router, v.path) for v in introduced] == [
            ("blackhole-freedom", "R3", ("R3", "R2"))
        ]
        assert self._observable(verifier) == before

        # Withdrawing the last holder of a prefix shrinks the probe
        # set itself (the standing violation's address goes away) ...
        assert verifier.what_if("R1", Q16, None) == []
        assert self._observable(verifier) == before
        # ... and a fix is not an introduction.
        assert verifier.what_if("R1", Q16, self._entry("R1", Q16, None)) == []
        assert verifier.violations() == standing
        assert self._observable(verifier) == before

        # Replacing an entry with a looping one, then back.
        introduced = verifier.what_if("R1", P8, self._entry("R1", P8, "R3"))
        assert {v.policy for v in introduced} == {"loop-freedom"}
        assert self._observable(verifier) == before


class TestPerSourceVerdicts:
    """A delta re-judges only the sources whose trace it dropped; the
    three ways such a cache can go stale, each against the batch path
    after every delta."""

    def _stepper(self, verifier, streaming, topology, policies):
        fed = []

        def step(event):
            streaming.observe(event)
            fed.append(event)
            found = _assert_matches_batch(
                verifier, fed, ("R1", "R2", "R3"), topology, policies,
                event.prefix,
            )
            # The ledger's per-delta slice is the same list, narrowed.
            assert verifier._violations_within(P8) == [
                v for v in found if P8.contains_address(v.prefix.address)
            ]
            return found

        return step

    def test_first_policy_to_retrace_does_not_hide_stale_sources(
        self, paper_network
    ):
        """Loop-freedom re-traces first and refills the shared memo;
        blackhole-freedom must still re-judge those sources."""
        topology = paper_network.topology
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(topology, policies)
        step = self._stepper(verifier, streaming, topology, policies)
        step(_fib("R1", P8, 1.0))
        step(_fib("R2", P8, 1.1, next_hop="R1"))
        assert step(_fib("R3", P8, 1.2, next_hop="R2")) == []
        # R1 keeps its (now empty) table: every path ends in its hole.
        found = step(_fib("R1", P8, 2.0, action=RouteAction.WITHDRAW))
        assert [(v.policy, v.router) for v in found] == [
            ("blackhole-freedom", "R2"),
            ("blackhole-freedom", "R3"),
        ]
        assert step(_fib("R1", P8, 3.0)) == []

    def test_what_if_then_a_delta_under_the_same_path(self, paper_network):
        """A what-if at R2 leaves R2's and R3's traces un-memoised (both
        paths visit R2) behind verdicts that are still right; a later
        delta at R1 changes both sources' outcome."""
        topology = paper_network.topology
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(topology, policies)
        step = self._stepper(verifier, streaming, topology, policies)
        step(_fib("R1", P8, 1.0))
        step(_fib("R2", P8, 1.1, next_hop="R1"))
        step(_fib("R3", P8, 1.2, next_hop="R2"))
        looping = SnapshotEntry("R2", P8, "R3", None, "bgp", False, 0, 1.5)
        introduced = verifier.what_if("R2", P8, looping)
        assert {(v.policy, v.router) for v in introduced} == {
            ("loop-freedom", "R2"),
            ("loop-freedom", "R3"),
        }
        assert verifier.violations() == []
        found = step(_fib("R1", P8, 2.0, next_hop="R3"))
        assert {(v.policy, v.router) for v in found} == {
            ("loop-freedom", "R1"),
            ("loop-freedom", "R2"),
            ("loop-freedom", "R3"),
        }

    def test_preferred_exit_follows_the_uplink_not_just_the_fib(
        self, paper_network
    ):
        """The preferred uplink goes down with no FIB change at R1,
        which already exits via the fallback: its verdict flips all
        the same, on the next delta for the prefix."""
        topology = paper_network.topology
        policies = (paper_policy(),)
        verifier, streaming = _verifier(topology, policies)
        step = self._stepper(verifier, streaming, topology, policies)
        step(_fib("R2", P, 1.0, next_hop="Ext2"))
        step(_fib("R3", P, 1.1, next_hop="R2"))
        found = step(_fib("R1", P, 1.2, next_hop="Ext1"))
        assert [v.router for v in found] == ["R1"]
        topology.link_between("R2", "Ext2").up = False
        # R3 moves to the fallback; R1's FIB does not change, but it
        # now complies and R2 does not.
        found = step(_fib("R3", P, 2.0, next_hop="R1"))
        assert [v.router for v in found] == ["R2"]


class TestDeltaCostIsLocal:
    """The per-delta re-probe reads the snapshot's maintained state.

    Counting guard, in the spirit of the tripping-adjacency test in
    tests/test_hbr_inference.py: a delta may redo the longest match
    only at its own router, once per probed address under its prefix,
    and may never iterate a trie."""

    def _warm(self, paper_network):
        policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
        verifier, streaming = _verifier(paper_network.topology, policies)
        clock = iter(range(1, 10_000))
        for router, next_hop in (("R1", None), ("R2", "R1"), ("R3", "R1")):
            for prefix in (P8, P24, Q16):
                streaming.observe(
                    _fib(router, prefix, float(next(clock)), next_hop=next_hop)
                )
        return verifier, streaming, clock

    def test_one_delta_matches_only_under_its_prefix(
        self, paper_network, monkeypatch
    ):
        from repro.net.addr import PrefixTrie

        verifier, _streaming, clock = self._warm(paper_network)
        calls = {"longest_match": 0, "items": 0}
        for name in calls:
            original = getattr(PrefixTrie, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PrefixTrie, name, counted)

        # The /8 covers two probed addresses (its own and the /24's),
        # the /24 one; both policies share the refilled cells.
        for prefix, inside in ((P8, 2), (P24, 1), (Q16, 1)):
            calls["longest_match"] = 0
            verifier.apply(
                _fib("R2", prefix, float(next(clock)), next_hop="R3")
            )
            assert calls["longest_match"] <= inside, prefix
        assert calls["items"] == 0

    def test_one_delta_retraces_exactly_the_paths_through_its_router(
        self, paper_network, monkeypatch
    ):
        """A delta at (router, prefix) re-walks a source's trace to an
        address under the prefix iff the source's previous path visits
        the router: the other traces read none of the changed rows."""
        verifier, _streaming, clock = self._warm(paper_network)
        snapshot = verifier.snapshot
        probed = snapshot.first_addresses()
        walked = []
        original = DataPlaneSnapshot.trace

        def spied(self, source, address, *args):
            if source not in self.traced_sources(address):
                walked.append((address, source))
            return original(self, source, address, *args)

        monkeypatch.setattr(DataPlaneSnapshot, "trace", spied)
        # R2's /8 moves to R3 (R2's /8 path grows to R2->R3->R1), then
        # R3's /8 moves to R2 (now both /8 paths visit R3, the /24's
        # only R3's own), then R1's /16 changes under every source.
        for router, prefix, next_hop in (
            ("R2", P8, "R3"),
            ("R3", P8, "R2"),
            ("R1", Q16, None),
        ):
            paths = {
                (address, source): snapshot.trace(source, address)[0]
                for address in probed
                for source in ("R1", "R2", "R3")
            }
            expected = sorted(
                key
                for key, path in paths.items()
                if prefix.contains_address(key[0]) and router in path
            )
            walked.clear()
            verifier.apply(
                _fib(router, prefix, float(next(clock)), next_hop=next_hop)
            )
            assert sorted(walked) == expected, (router, prefix)
        assert expected == [(Q16.first_address(), r) for r in ("R1", "R2", "R3")]

    def test_memo_is_bounded_by_addresses_not_deltas(self, paper_network):
        verifier, streaming, clock = self._warm(paper_network)
        snapshot = verifier.snapshot
        routers = ("R1", "R2", "R3")
        probed = len({p.first_address() for p in (P8, P24, Q16)})
        for step in range(1000):
            router = routers[step % 3]
            prefix = (P8, P24, Q16)[(step // 3) % 3]
            action = (
                RouteAction.WITHDRAW if step % 2 else RouteAction.ANNOUNCE
            )
            streaming.observe(
                _fib(
                    router,
                    prefix,
                    float(next(clock)),
                    next_hop=routers[(step + 1) % 3],
                    action=action,
                )
            )
            assert len(snapshot._traces) <= len(snapshot._rows) == probed
            cells = sum(len(row) for row in snapshot._rows.values())
            traces = sum(len(known) for known in snapshot._traces.values())
            assert cells <= probed * len(routers)
            assert traces <= probed * len(routers)
        assert verifier.deltas_applied == 1009


class TestRollbackInvalidation:
    """Event-id reuse across a replay poisons persistent memos."""

    def _first_run(self):
        reset_event_ids()
        recv = IOEvent.create(
            "R1",
            IOKind.ROUTE_RECEIVE,
            1.0,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
            peer="R2",
        )
        fib = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            1.01,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
        )
        graph = HappensBeforeGraph()
        graph.add_event(recv)
        graph.add_event(fib)
        graph.add_edge(
            recv.event_id, fib.event_id, EdgeEvidence(technique="rule")
        )
        return graph, fib

    def _replay_run(self):
        """Same event ids as :meth:`_first_run`, different history:
        this time R2's send (and its own FIB update) are present."""
        reset_event_ids()
        recv = IOEvent.create(
            "R1",
            IOKind.ROUTE_RECEIVE,
            1.0,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
            peer="R2",
        )
        fib = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            1.01,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
        )
        send = IOEvent.create(
            "R2",
            IOKind.ROUTE_SEND,
            0.99,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
            peer="R1",
        )
        fib_r2 = IOEvent.create(
            "R2",
            IOKind.FIB_UPDATE,
            0.98,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
        )
        graph = HappensBeforeGraph()
        for event in (recv, fib, send, fib_r2):
            graph.add_event(event)
        graph.add_edge(
            send.event_id, recv.event_id, EdgeEvidence(technique="rule")
        )
        graph.add_edge(
            recv.event_id, fib.event_id, EdgeEvidence(technique="rule")
        )
        return graph, fib, fib_r2

    def test_stale_without_invalidate_fresh_with(self):
        snapshotter = ConsistentSnapshotter(None, ("R1", "R2"))
        graph1, fib1 = self._first_run()
        snapshotter.observe(fib1, (), graph1)
        first = snapshotter.check_incremental(graph1, P8, at=1.05)
        assert not first.consistent
        assert first.missing_routers == {"R2"}

        graph2, fib2, fib_r2 = self._replay_run()
        # Ground truth: a fresh batch check calls the replay consistent.
        fresh = ConsistentSnapshotter(None, ("R1", "R2")).check(
            graph2, graph2.events(), prefix=P8, at=1.05
        )
        assert fresh.consistent

        # The hazard: without invalidation the maintained memos serve
        # the first run's cached verdict for the reused id.
        snapshotter.observe(fib2, (), graph2)
        snapshotter.observe(fib_r2, (), graph2)
        stale = snapshotter.check_incremental(graph2, P8, at=1.05)
        assert not stale.consistent, (
            "memo invalidation made id reuse safe? update this test and "
            "the INCREMENTAL_VERIFY.md hazard note"
        )

        # The fix: invalidate() between runs restores correctness.
        snapshotter.invalidate()
        snapshotter.observe(fib2, (), graph2)
        snapshotter.observe(fib_r2, (), graph2)
        after = snapshotter.check_incremental(graph2, P8, at=1.05)
        assert after.consistent

    def test_repair_engine_invalidates_registered_snapshotters(self):
        change = ConfigChange(
            "R1",
            "set_route_map",
            key="r1-uplink-lp",
            value=local_pref_map("r1-uplink-lp", 5),
            description="bad change",
        )
        change.previous = local_pref_map("r1-uplink-lp", 100)
        cause = IOEvent.create(
            "R1",
            IOKind.CONFIG_CHANGE,
            1.0,
            attrs={"change_id": change.change_id},
        )
        target = IOEvent.create(
            "R1",
            IOKind.FIB_UPDATE,
            2.0,
            protocol="bgp",
            prefix=P8,
            action=RouteAction.ANNOUNCE,
        )
        provenance = ProvenanceResult(
            target=target,
            root_causes=[cause],
            chains={cause.event_id: [cause, target]},
            ancestry={cause.event_id},
            min_confidence=0.0,
        )

        class _FakeConfigs:
            def change(self, change_id):
                return change if change_id == change.change_id else None

        class _FakeSim:
            now = 2.5

        class _FakeNetwork:
            configs = _FakeConfigs()
            sim = _FakeSim()

            def __init__(self):
                self.applied = []

            def apply_config_change(self, applied_change):
                self.applied.append(applied_change)

        class _Spy:
            calls = 0

            def invalidate(self):
                self.calls += 1

        spy = _Spy()
        network = _FakeNetwork()
        engine = RepairEngine(
            network, DataPlaneVerifier(None, []), snapshotters=[spy]
        )
        report = engine.repair(provenance, settle=0)
        assert any(action.succeeded for action in report.actions)
        assert network.applied, "inverse change was not applied"
        assert spy.calls == 1, "registered snapshotter was not invalidated"

        # No successful revert -> caches stay warm (no invalidation).
        hardware = IOEvent.create(
            "R1", IOKind.HARDWARE_STATUS, 1.0, attrs={"link": "R1|R2"}
        )
        unrepairable = ProvenanceResult(
            target=target,
            root_causes=[hardware],
            chains={hardware.event_id: [hardware, target]},
            ancestry={hardware.event_id},
            min_confidence=0.0,
        )
        engine.repair(unrepairable, settle=0)
        assert spy.calls == 1


class TestWiring:
    def test_invalidate_resets_derived_state(self, paper_network):
        policies = (LoopFreedomPolicy(),)
        verifier, streaming = _verifier(paper_network.topology, policies)
        streaming.observe(_fib("R1", P8, 1.0, next_hop="R2"))
        streaming.observe(_fib("R2", P8, 1.1, next_hop="R1"))
        assert verifier.violations()
        assert verifier.snapshot.routers()
        verifier.invalidate()
        assert verifier.violations() == []
        assert verifier.snapshot.routers() == []
        assert verifier.last_report(P8) is None
