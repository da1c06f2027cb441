"""Tests for snapshot reconstruction, verifier views, naive snapshots."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.net.addr import Prefix
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry, VerifierView
from repro.snapshot.naive import NaiveSnapshotter
from repro.scenarios.fig1 import Fig1Scenario
from repro.scenarios.paper_net import P
from repro.verify.policy import Policy


def _fib_event(router="R1", t=1.0, nh="R2", action=RouteAction.ANNOUNCE, prefix=P):
    return IOEvent.create(
        router,
        IOKind.FIB_UPDATE,
        t,
        protocol="ibgp",
        prefix=prefix,
        action=action,
        attrs={"next_hop_router": nh, "out_interface": "eth0", "discard": False},
    )


class TestSnapshotEntry:
    def test_from_event(self):
        entry = SnapshotEntry.from_event(_fib_event())
        assert entry.router == "R1"
        assert entry.next_hop_router == "R2"
        assert not entry.discard

    def test_rejects_non_fib_event(self):
        bad = IOEvent.create("R1", IOKind.RIB_UPDATE, 1.0, prefix=P)
        with pytest.raises(ValueError):
            SnapshotEntry.from_event(bad)

    def test_rejects_missing_prefix(self):
        bad = IOEvent.create("R1", IOKind.FIB_UPDATE, 1.0)
        with pytest.raises(ValueError):
            SnapshotEntry.from_event(bad)


class TestDataPlaneSnapshot:
    def test_replay_keeps_latest(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [_fib_event(t=1.0, nh="R2"), _fib_event(t=2.0, nh="R3")]
        )
        assert snapshot.entry("R1", P).next_hop_router == "R3"

    def test_replay_honors_withdraw(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [
                _fib_event(t=1.0),
                _fib_event(t=2.0, action=RouteAction.WITHDRAW),
            ]
        )
        assert snapshot.entry("R1", P) is None

    def test_replay_order_independent_of_input_order(self):
        events = [_fib_event(t=2.0, nh="R3"), _fib_event(t=1.0, nh="R2")]
        snapshot = DataPlaneSnapshot.from_fib_events(events)
        assert snapshot.entry("R1", P).next_hop_router == "R3"

    def test_lookup_lpm(self):
        wide = _fib_event(prefix=Prefix.parse("203.0.0.0/16"), nh="R9")
        narrow = _fib_event(nh="R2")
        snapshot = DataPlaneSnapshot.from_fib_events([wide, narrow])
        assert snapshot.lookup("R1", P.first_address()).next_hop_router == "R2"

    def test_trace_delivered_via_local(self):
        snapshot = DataPlaneSnapshot()
        snapshot.install(
            SnapshotEntry("R1", P, None, "eth0", "connected", False, 0, 1.0)
        )
        path, outcome = snapshot.trace("R1", P.first_address())
        assert outcome == "delivered" and path == ["R1"]

    def test_trace_loop(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [_fib_event(router="R1", nh="R2"), _fib_event(router="R2", nh="R1")]
        )
        path, outcome = snapshot.trace("R1", P.first_address())
        assert outcome == "loop"
        assert path == ["R1", "R2", "R1"]

    def test_trace_blackhole(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [_fib_event(router="R1", nh="R2"), _fib_event(router="R2", nh=None)]
        )
        # R2 has an entry pointing nowhere? next_hop_router None means
        # local delivery, so instead: R2 has NO entry.
        snapshot2 = DataPlaneSnapshot.from_fib_events(
            [_fib_event(router="R1", nh="R2")]
        )
        snapshot2.install(
            SnapshotEntry("R2", Prefix.parse("10.0.0.0/8"), None, None,
                          "connected", False, 0, 1.0)
        )
        path, outcome = snapshot2.trace("R1", P.first_address())
        assert outcome == "blackhole"
        assert path == ["R1", "R2"]

    def test_trace_into_tableless_router_is_delivered(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [_fib_event(router="R1", nh="Ext1")]
        )
        path, outcome = snapshot.trace("R1", P.first_address())
        assert outcome == "delivered" and path == ["R1", "Ext1"]

    def test_trace_discard(self):
        snapshot = DataPlaneSnapshot()
        snapshot.install(
            SnapshotEntry("R1", P, None, None, "static", True, 0, 1.0)
        )
        _path, outcome = snapshot.trace("R1", P.first_address())
        assert outcome == "discard"

    def test_from_live_network_matches_reality(self, fast_delays):
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        snapshot = DataPlaneSnapshot.from_live_network(net)
        for router in ("R1", "R2", "R3"):
            live = net.runtime(router).fib.get(P)
            recon = snapshot.entry(router, P)
            assert (live is None) == (recon is None)
            if live is not None:
                assert recon.next_hop_router == live.next_hop_router

    def test_from_live_network_cost_per_entry(self):
        """The oracle snapshot holds exactly the live FIBs of the
        internal routers, and copying them costs a bounded number of
        interpreter calls per entry (cProfile: 20.8 on this converged
        n=24 mesh of 1,514 entries since FIBs became one hash table per
        prefix length, 89.6 with the bit-per-level trie).  The budget is
        ~1.25x the measured value."""
        import cProfile
        import pstats

        from repro.scenarios.generators import (
            build_random_network,
            external_prefixes,
        )

        net, specs = build_random_network(24, seed=0)
        net.start()
        for spec in specs:
            for prefix in external_prefixes(4, base="198.51.0.0"):
                net.announce_prefix(spec.external, prefix, at=1.0)
        net.run(30.0)
        profile = cProfile.Profile()
        profile.enable()
        snapshot = DataPlaneSnapshot.from_live_network(net)
        profile.disable()
        live = {
            router: table
            for router, table in net.forwarding_state().items()
            if not net.runtime(router).router.external
        }
        assert snapshot.routers() == sorted(live)
        entries = 0
        for router, table in live.items():
            copied = snapshot.entries_of(router)
            assert [e.prefix for e in copied] == list(table)
            for entry in copied:
                fib = table[entry.prefix]
                assert (
                    entry.next_hop_router,
                    entry.out_interface,
                    entry.protocol,
                    entry.discard,
                ) == (
                    fib.next_hop_router,
                    fib.out_interface,
                    fib.protocol,
                    fib.discard,
                )
            entries += len(copied)
        assert entries > 1000
        calls = pstats.Stats(profile).total_calls / entries
        assert calls <= 26.0, calls

    def test_reconstruction_matches_oracle_after_convergence(self, fast_delays):
        """With zero lag and a quiescent network, replaying the log
        reproduces the live FIBs exactly."""
        scenario = Fig1Scenario(seed=0, delays=fast_delays)
        net = scenario.run_fig1b()
        view = VerifierView(net.collector)
        reconstructed = NaiveSnapshotter(view).snapshot(net.sim.now)
        oracle = DataPlaneSnapshot.from_live_network(net)
        for router in oracle.routers():
            for entry in oracle.entries_of(router):
                recon = reconstructed.entry(router, entry.prefix)
                assert recon is not None
                assert recon.next_hop_router == entry.next_hop_router

    def test_all_prefixes(self):
        snapshot = DataPlaneSnapshot.from_fib_events(
            [_fib_event(), _fib_event(router="R2", prefix=Prefix.parse("10.0.0.0/8"))]
        )
        assert snapshot.all_prefixes() == {P, Prefix.parse("10.0.0.0/8")}


# -- the maintained state vs a rebuild -----------------------------------------

#: /8 ⊃ /16 ⊃ /24 on one first address, a /16 elsewhere under the /8,
#: and an unrelated prefix.
_NESTED = [
    Prefix.parse(text)
    for text in (
        "10.0.0.0/8",
        "10.0.0.0/16",
        "10.0.0.0/24",
        "10.1.0.0/16",
        "192.168.0.0/16",
    )
]
_ROUTERS = ["R1", "R2", "R3", "R4"]
_PROBED = sorted({prefix.first_address() for prefix in _NESTED})



def _entry(router, prefix, next_hop, discard=False):
    return SnapshotEntry(router, prefix, next_hop, None, "bgp", discard, 0, 1.0)


_install = st.tuples(
    st.just("install"),
    st.sampled_from(_ROUTERS),
    st.sampled_from(_NESTED),
    st.sampled_from(_ROUTERS + [None, "Ext"]),
    st.booleans(),
)
_remove = st.tuples(
    st.just("remove"), st.sampled_from(_ROUTERS), st.sampled_from(_NESTED)
)
_trace = st.tuples(
    st.just("trace"),
    st.sampled_from(_ROUTERS),
    st.sampled_from(_PROBED),
    st.sampled_from([64, 2]),
)
_read = st.tuples(st.just("prefixes"))
#: A what-if install (next hop given) or withdraw (``"withdraw"``),
#: traced from inside so the memos fill with hypothetical answers.
_whatif = st.tuples(
    st.just("whatif"),
    st.sampled_from(_ROUTERS),
    st.sampled_from(_NESTED),
    st.sampled_from(_ROUTERS + [None, "Ext", "withdraw"]),
    st.sampled_from(_PROBED),
)


def _check_against_rebuild(ops):
    """Apply ``ops`` to one long-lived snapshot; after every step its
    traces, prefixes and default probe list must equal those of a
    snapshot built from nothing but the surviving entries."""
    live = DataPlaneSnapshot()
    surviving = {}
    tabled = []  # routers holding a table, possibly emptied since
    for op in ops:
        if op[0] == "install":
            _, router, prefix, next_hop, discard = op
            entry = _entry(router, prefix, next_hop, discard)
            live.install(entry)
            surviving[(router, prefix)] = entry
            if router not in tabled:
                tabled.append(router)
        elif op[0] == "remove":
            live.remove(op[1], op[2])
            surviving.pop((op[1], op[2]), None)
        elif op[0] == "trace":
            path, _outcome = live.trace(op[1], op[2], max_hops=op[3])
            path.append("scribbled-by-caller")
        elif op[0] == "whatif":
            # Restored on exit: ``surviving`` and ``tabled`` stand.
            _, router, prefix, next_hop, address = op
            pending = (
                None
                if next_hop == "withdraw"
                else _entry(router, prefix, next_hop)
            )
            with live.hypothetically(router, prefix, pending):
                assert live.entry(router, prefix) == pending
                for source in _ROUTERS:
                    live.trace(source, address)
            assert live.has_router(router) == (router in tabled)
            assert live.entry(router, prefix) is surviving.get(
                (router, prefix)
            )
        else:
            live.all_prefixes().clear()
            live.first_addresses().clear()
        held = {prefix for _, prefix in surviving}
        assert live.all_prefixes() == held
        assert Policy().addresses_of_interest(live) == sorted(
            {prefix.first_address() for prefix in held}
        )
        # A reference per hop bound, so no reference trace is ever
        # answered from a walk made under the other bound.
        for hops in (64, 2):
            rebuilt = _rebuild(tabled, surviving)
            for source in _ROUTERS:
                for address in _PROBED:
                    assert live.trace(source, address, hops) == rebuilt.trace(
                        source, address, hops
                    ), (op, source, address, hops)


def _rebuild(tabled, surviving):
    rebuilt = DataPlaneSnapshot()
    for router in tabled:
        # remove() keeps an emptied table, and a table is what turns a
        # hop's "delivered" into "blackhole".
        rebuilt.install(_entry(router, _NESTED[0], None))
        rebuilt.remove(router, _NESTED[0])
    for entry in surviving.values():
        rebuilt.install(entry)
    return rebuilt


class TestMaintainedState:
    """Refcounts, next-hop rows and shared traces against a rebuild."""

    @given(
        st.lists(
            st.one_of(_install, _install, _remove, _trace, _read, _whatif),
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_interleavings(self, ops):
        _check_against_rebuild(ops)

    def test_the_cases_a_memo_gets_wrong(self):
        p8, p16, p24, other16, _ = _NESTED
        a = p8.first_address()
        _check_against_rebuild(
            [
                # R1 -> R2 -> R4; R4 has no table yet, so: delivered.
                ("install", "R1", p8, "R2", False),
                ("install", "R2", p8, "R4", False),
                ("trace", "R1", a, 64),
                ("trace", "R1", a, 2),
                # Replace-install: still one holder of the /8 ...
                ("install", "R1", p8, "R2", False),
                ("remove", "R1", p8),
                ("prefixes",),
                ("install", "R1", p8, "R2", False),
                # ... and removing what was never there decrements nothing.
                ("remove", "R3", p8),
                ("remove", "R2", p24),
                ("remove", "R2", p8),
                ("install", "R2", p8, "R4", False),
                ("trace", "R1", a, 64),
                # A what-if on table-less R4 must not leave a table
                # behind: R2 -> R4 goes back to delivered.
                ("whatif", "R4", other16, None, a),
                ("whatif", "R4", p8, "withdraw", a),
                ("trace", "R1", a, 64),
                # R4's first entry, for another prefix, turns the hop
                # into R4 from delivered into blackhole.
                ("install", "R4", other16, None, False),
                ("trace", "R1", a, 64),
                # A more specific route changes the match of an address
                # memoised under the /8; withdrawing it changes it back.
                ("install", "R1", p24, "R3", False),
                ("install", "R3", p16, "R1", False),
                ("trace", "R3", a, 64),
                ("remove", "R1", p24),
                ("trace", "R3", a, 2),
                # What-ifs leave nothing behind: not a shadowing more
                # specific, not a withdrawn or re-pointed /8 on the path.
                ("whatif", "R1", p24, "R3", a),
                ("whatif", "R2", p8, "withdraw", a),
                ("whatif", "R2", p8, "R1", a),
            ]
        )

    def test_what_if_on_a_tableless_router_creates_no_table(self):
        snapshot = DataPlaneSnapshot()
        p8 = _NESTED[0]
        address = p8.first_address()
        snapshot.install(_entry("R1", p8, "R2"))
        assert snapshot.trace("R1", address) == (["R1", "R2"], "delivered")
        other = _NESTED[4]
        with snapshot.hypothetically("R2", other, _entry("R2", other, None)):
            assert snapshot.has_router("R2")
            assert snapshot.trace("R1", address) == (["R1", "R2"], "blackhole")
        assert not snapshot.has_router("R2")
        assert snapshot.routers() == ["R1"]
        assert snapshot.all_prefixes() == {p8}
        assert snapshot.trace("R1", address) == (["R1", "R2"], "delivered")
        with snapshot.hypothetically("R2", p8, None):
            assert not snapshot.has_router("R2")
        assert not snapshot.has_router("R2")

    def test_hop_bound_is_part_of_the_memo_key(self):
        snapshot = DataPlaneSnapshot()
        p8 = _NESTED[0]
        for router, next_hop in (("R1", "R2"), ("R2", "R3"), ("R3", None)):
            snapshot.install(_entry(router, p8, next_hop))
        address = p8.first_address()
        assert snapshot.trace("R1", address) == (["R1", "R2", "R3"], "delivered")
        assert snapshot.trace("R1", address, max_hops=2) == (
            ["R1", "R2", "R3"],
            "loop",
        )
        assert snapshot.trace("R1", address)[1] == "delivered"

    def test_first_table_flips_delivered_to_blackhole(self):
        snapshot = DataPlaneSnapshot()
        p8, other16 = _NESTED[0], _NESTED[3]
        snapshot.install(_entry("R1", p8, "R2"))
        assert snapshot.trace("R1", p8.first_address()) == (
            ["R1", "R2"],
            "delivered",
        )
        snapshot.install(_entry("R2", other16, None))
        assert snapshot.trace("R1", p8.first_address()) == (
            ["R1", "R2"],
            "blackhole",
        )


class TestVerifierView:
    def test_lag_delays_visibility(self):
        from repro.capture.collector import Collector

        collector = Collector()
        event = _fib_event(router="R2", t=1.0)
        collector.ingest(event)
        view = VerifierView(collector, lags={"R2": 0.5})
        assert view.visible_events(1.2) == []
        assert view.visible_events(1.5) == [event]

    def test_default_lag(self):
        from repro.capture.collector import Collector

        collector = Collector()
        collector.ingest(_fib_event(t=1.0))
        view = VerifierView(collector, default_lag=1.0)
        assert view.visible_events(1.5) == []
        assert len(view.visible_events(2.0)) == 1

    def test_visible_ids(self):
        from repro.capture.collector import Collector

        collector = Collector()
        event = _fib_event(t=1.0)
        collector.ingest(event)
        view = VerifierView(collector)
        assert view.visible_ids(2.0) == {event.event_id}
