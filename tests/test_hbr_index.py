"""Tests for the inverted HBG-inference index (repro.hbr.index)."""

import random

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.index import (
    CHUNK,
    MAX_ID,
    EventIndex,
    SortedEventList,
    plan_for_rule,
)
from repro.hbr.rules import default_rules
from repro.net.addr import Prefix

P = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def _event(router="R1", kind=IOKind.FIB_UPDATE, t=1.0, prefix=P, peer=None):
    return IOEvent.create(
        router,
        kind,
        t,
        protocol="bgp",
        prefix=prefix,
        action=RouteAction.ANNOUNCE,
        peer=peer,
    )


def _keys(events):
    return [(e.timestamp, e.event_id) for e in events]


class TestSortedEventList:
    def test_in_order_appends(self):
        lst = SortedEventList()
        events = [_event(t=float(i)) for i in range(10)]
        for event in events:
            lst.add(event)
        assert list(lst) == events
        assert len(lst) == 10

    def test_out_of_order_inserts_stay_sorted(self):
        lst = SortedEventList()
        events = [_event(t=float(i)) for i in range(200)]
        shuffled = events[:]
        random.Random(3).shuffle(shuffled)
        for event in shuffled:
            lst.add(event)
        assert _keys(lst) == sorted(_keys(events))

    def test_equal_timestamps_order_by_event_id(self):
        lst = SortedEventList()
        events = [_event(t=5.0) for _ in range(20)]
        for event in reversed(events):
            lst.add(event)
        assert list(lst) == events  # event ids are allocation-ordered

    def test_chunk_splits_preserve_iteration_and_ranges(self):
        lst = SortedEventList()
        events = [_event(t=float(i)) for i in range(3000)]
        assert len(events) > 2 * CHUNK  # shuffled inserts must split
        shuffled = events[:]
        random.Random(7).shuffle(shuffled)
        for event in shuffled:
            lst.add(event)
        assert _keys(lst) == _keys(events)
        window = list(
            lst.irange((100.0, 0), (200.0, MAX_ID))
        )
        assert _keys(window) == _keys(events[100:201])

    def test_irange_is_the_brute_force_filter(self):
        """Slice reads over parallel key/event chunks: every range
        answer equals filtering the whole list by key, wherever the
        range starts or ends relative to a chunk."""
        rng = random.Random(11)
        # Three events per timestamp, so ties are broken by event id.
        events = [_event(t=float(i // 3)) for i in range(3000)]
        lst = SortedEventList()
        shuffled = events[:]
        rng.shuffle(shuffled)
        for event in shuffled:
            lst.add(event)
        keys = _keys(events)
        assert keys == sorted(keys)

        def brute(lo, hi):
            return [e for e, key in zip(events, keys) if lo <= key <= hi]

        # Every key as an inclusive upper bound, so some range ends on
        # the last event of a chunk, some just inside, some just past
        # (the slice is the filter because ``events`` is key-sorted;
        # the random queries below run the filter itself).
        for stop, hi in enumerate(keys):
            assert lst.irange(keys[0], hi) == events[: stop + 1]
            assert lst.irange(hi, hi) == [events[stop]]
        for start, lo in enumerate(keys[::7]):
            assert lst.irange(lo, keys[-1]) == events[start * 7 :]
        for _ in range(300):
            lo_t, hi_t = rng.uniform(-5, 1005), rng.uniform(-5, 1005)
            low_id = rng.choice([0, rng.choice(events).event_id])
            high_id = rng.choice([MAX_ID, rng.choice(events).event_id, 0])
            lo, hi = (lo_t, low_id), (hi_t, high_id)
            assert lst.irange(lo, hi) == brute(lo, hi), (lo, hi)
            # Bounds that are real keys, in either order (lo > hi is
            # an empty range, not an error).
            a, b = rng.choice(keys), rng.choice(keys)
            assert lst.irange(a, b) == brute(a, b), (a, b)
            assert lst.irange(a, (b[0], MAX_ID)) == brute(a, (b[0], MAX_ID))
        got = lst.irange(keys[10], keys[20])
        got.clear()  # a fresh list: the caller may mutate it
        assert lst.irange(keys[10], keys[20]) == events[10:21]
        assert lst.irange((2000.0, 0), (3000.0, MAX_ID)) == []
        assert SortedEventList().irange((0.0, 0), (9.0, MAX_ID)) == []

    def test_irange_bounds_are_inclusive(self):
        lst = SortedEventList()
        events = [_event(t=float(i)) for i in range(5)]
        for event in events:
            lst.add(event)
        lo = (events[1].timestamp, events[1].event_id)
        hi = (events[3].timestamp, events[3].event_id)
        assert list(lst.irange(lo, hi)) == events[1:4]
        assert list(lst.irange((9.0, 0), (1.0, 0))) == []  # empty range


class TestEventIndex:
    def test_window_spans_all_events(self):
        index = EventIndex()
        events = [
            _event(router=f"R{i % 3}", t=float(i)) for i in range(12)
        ]
        for event in events:
            index.add(event)
        assert len(index) == 12
        assert list(index.window((0.0, 0), (99.0, MAX_ID))) == events

    def test_wide_tiers_are_filed_on_first_use(self):
        """``window`` and router-free plans see events added before
        *and* after the first wide query (the tiers behind them are
        filed lazily), interleaved with bucket queries."""
        from repro.hbr.rules import EventPattern, HbrRule

        free = plan_for_rule(
            HbrRule(
                name="router-free",
                antecedent=EventPattern(kinds=(IOKind.RIB_UPDATE,)),
                consequent=EventPattern(kinds=(IOKind.FIB_UPDATE,)),
            )
        )
        assert free.router_from == "any"
        index = EventIndex()
        early = [
            _event(router=f"R{i % 2}", kind=IOKind.RIB_UPDATE, t=float(i))
            for i in range(4)
        ]
        for event in early:
            index.add(event)
        cons = _event(router="R9", kind=IOKind.FIB_UPDATE, t=9.0)
        bounds = ((0.0, 0), (99.0, MAX_ID))
        assert index.candidates(free, cons, *bounds) == early
        late = _event(router="R3", kind=IOKind.RIB_UPDATE, t=1.5)
        fib = _event(router="R3", kind=IOKind.FIB_UPDATE, t=0.5)
        index.add(late)
        index.add(fib)
        assert len(index) == 6
        assert index.candidates(free, cons, *bounds) == (
            early[:2] + [late] + early[2:]
        )
        assert index.window(*bounds) == (
            [early[0], fib, early[1], late] + early[2:]
        )

    def test_same_router_plan_reads_only_that_router(self):
        rules = {r.name: r for r in default_rules()}
        plan = plan_for_rule(rules["rib-before-fib"])
        assert plan.router_from == "same"
        assert plan.prefix_narrowed
        index = EventIndex()
        here = [
            _event(router="R1", kind=IOKind.RIB_UPDATE, t=float(i))
            for i in range(3)
        ]
        elsewhere = [
            _event(router="R2", kind=IOKind.RIB_UPDATE, t=float(i))
            for i in range(3)
        ]
        other_prefix = _event(
            router="R1", kind=IOKind.RIB_UPDATE, t=1.5, prefix=P2
        )
        for event in here + elsewhere + [other_prefix]:
            index.add(event)
        cons = _event(router="R1", kind=IOKind.FIB_UPDATE, t=2.5)
        got = index.candidates(plan, cons, (0.0, 0), (9.0, MAX_ID))
        assert got == here

    def test_peer_plan_without_peer_yields_nothing(self):
        rules = {r.name: r for r in default_rules()}
        plan = plan_for_rule(rules["send-before-recv"])
        assert plan.router_from == "peer"
        index = EventIndex()
        index.add(_event(router="R2", kind=IOKind.ROUTE_SEND, t=1.0))
        cons = _event(
            router="R1", kind=IOKind.ROUTE_RECEIVE, t=2.0, peer=None
        )
        assert index.candidates(plan, cons, (0.0, 0), (9.0, MAX_ID)) == []

    def test_peer_plan_reads_the_peer_router_bucket(self):
        rules = {r.name: r for r in default_rules()}
        plan = plan_for_rule(rules["send-before-recv"])
        index = EventIndex()
        send = _event(
            router="R2", kind=IOKind.ROUTE_SEND, t=1.0, peer="R1"
        )
        decoy = _event(
            router="R3", kind=IOKind.ROUTE_SEND, t=1.0, peer="R1"
        )
        index.add(send)
        index.add(decoy)
        cons = _event(
            router="R1", kind=IOKind.ROUTE_RECEIVE, t=2.0, peer="R2"
        )
        got = index.candidates(plan, cons, (0.0, 0), (9.0, MAX_ID))
        assert got == [send]

    def test_prefixless_consequent_on_prefix_plan_yields_nothing(self):
        rules = {r.name: r for r in default_rules()}
        plan = plan_for_rule(rules["rib-before-fib"])
        index = EventIndex()
        index.add(_event(router="R1", kind=IOKind.RIB_UPDATE, t=1.0))
        cons = _event(
            router="R1", kind=IOKind.FIB_UPDATE, t=2.0, prefix=None
        )
        assert index.candidates(plan, cons, (0.0, 0), (9.0, MAX_ID)) == []

    def test_multi_kind_plans_merge_in_key_order(self):
        from repro.hbr.rules import EventPattern, HbrRule, same_router

        rule = HbrRule(
            name="multi-kind",
            antecedent=EventPattern(
                kinds=(IOKind.RIB_UPDATE, IOKind.HARDWARE_STATUS)
            ),
            consequent=EventPattern(kinds=(IOKind.FIB_UPDATE,)),
            relations=(same_router,),
            window=99.0,
        )
        plan = plan_for_rule(rule)
        assert plan.router_from == "same"
        index = EventIndex()
        interleaved = [
            _event(
                router="R1",
                kind=(
                    IOKind.RIB_UPDATE
                    if i % 2
                    else IOKind.HARDWARE_STATUS
                ),
                t=float(i),
            )
            for i in range(6)
        ]
        for event in interleaved:
            index.add(event)
        index.add(_event(router="R2", kind=IOKind.RIB_UPDATE, t=2.5))
        cons = _event(router="R1", kind=IOKind.FIB_UPDATE, t=9.0)
        got = index.candidates(plan, cons, (0.0, 0), (99.0, MAX_ID))
        # Two per-kind buckets merged back into (timestamp, id) order.
        assert got == interleaved


class TestRulePlans:
    def test_every_default_rule_gets_a_plan(self):
        for rule in default_rules():
            plan = plan_for_rule(rule)
            assert plan.router_from in ("same", "peer", "any")
            assert plan.kinds == tuple(rule.antecedent.kinds)

    def test_custom_relation_plans_conservatively(self):
        rule = default_rules()[0]
        custom = type(rule)(
            name="custom",
            antecedent=rule.antecedent,
            consequent=rule.consequent,
            relations=(lambda a, b: True,),
            window=rule.window,
        )
        plan = plan_for_rule(custom)
        assert plan.router_from == "any"
        assert not plan.prefix_narrowed
