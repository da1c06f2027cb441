"""Tests for HBR rules and patterns."""

import pytest

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.hbr.rules import (
    EventPattern,
    HbrRule,
    default_rules,
    different_router,
    eigrp_style_rules,
    peer_symmetric,
    same_lsa,
    same_prefix,
    same_router,
)
from repro.net.addr import Prefix

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


def _event(router="R1", kind=IOKind.RIB_UPDATE, protocol="bgp", prefix=P,
           action=RouteAction.ANNOUNCE, peer=None, t=1.0, attrs=None):
    return IOEvent.create(
        router, kind, t, protocol=protocol, prefix=prefix, action=action,
        peer=peer, attrs=attrs,
    )


class TestEventPattern:
    def test_kind_filter(self):
        pattern = EventPattern(kinds=(IOKind.RIB_UPDATE,))
        assert pattern.matches(_event())
        assert not pattern.matches(_event(kind=IOKind.FIB_UPDATE))

    def test_protocol_filter(self):
        pattern = EventPattern(protocols=("ospf",))
        assert not pattern.matches(_event(protocol="bgp"))
        assert pattern.matches(_event(protocol="ospf"))

    def test_action_filter(self):
        pattern = EventPattern(actions=(RouteAction.WITHDRAW,))
        assert not pattern.matches(_event())
        assert pattern.matches(_event(action=RouteAction.WITHDRAW))

    def test_requires_prefix(self):
        with_prefix = EventPattern(requires_prefix=True)
        without = EventPattern(requires_prefix=False)
        assert with_prefix.matches(_event())
        assert not with_prefix.matches(_event(prefix=None))
        assert without.matches(_event(prefix=None))
        assert not without.matches(_event())

    def test_empty_pattern_matches_everything(self):
        assert EventPattern().matches(_event())


class TestRelations:
    def test_same_router(self):
        assert same_router(_event(), _event())
        assert not same_router(_event(), _event(router="R2"))

    def test_different_router(self):
        assert different_router(_event(), _event(router="R2"))

    def test_same_prefix_requires_both(self):
        assert same_prefix(_event(), _event())
        assert not same_prefix(_event(prefix=None), _event())
        assert not same_prefix(_event(), _event(prefix=Q))

    def test_peer_symmetric(self):
        send = _event(router="R1", kind=IOKind.ROUTE_SEND, peer="R2")
        recv = _event(router="R2", kind=IOKind.ROUTE_RECEIVE, peer="R1")
        assert peer_symmetric(send, recv)
        wrong = _event(router="R3", kind=IOKind.ROUTE_RECEIVE, peer="R1")
        assert not peer_symmetric(send, wrong)

    def test_same_lsa(self):
        a = _event(attrs={"lsa_origin": "R1", "lsa_seq": 3})
        b = _event(router="R2", attrs={"lsa_origin": "R1", "lsa_seq": 3})
        c = _event(router="R2", attrs={"lsa_origin": "R1", "lsa_seq": 4})
        assert same_lsa(a, b)
        assert not same_lsa(a, c)
        assert not same_lsa(_event(), b)


class TestRuleMatching:
    def test_recv_before_rib_pair(self):
        rules = {r.name: r for r in default_rules()}
        rule = rules["recv-before-rib"]
        recv = _event(kind=IOKind.ROUTE_RECEIVE, peer="R2", t=1.0)
        rib = _event(kind=IOKind.RIB_UPDATE, t=1.1)
        assert rule.pair_matches(recv, rib)

    def test_recv_before_rib_rejects_cross_router(self):
        rules = {r.name: r for r in default_rules()}
        rule = rules["recv-before-rib"]
        recv = _event(kind=IOKind.ROUTE_RECEIVE, peer="R2", router="R9")
        rib = _event(kind=IOKind.RIB_UPDATE)
        assert not rule.pair_matches(recv, rib)

    def test_send_before_recv_requires_matching_action(self):
        rules = {r.name: r for r in default_rules()}
        rule = rules["send-before-recv"]
        send = _event(
            kind=IOKind.ROUTE_SEND, router="R1", peer="R2",
            action=RouteAction.WITHDRAW,
        )
        recv_match = _event(
            kind=IOKind.ROUTE_RECEIVE, router="R2", peer="R1",
            action=RouteAction.WITHDRAW,
        )
        recv_mismatch = _event(
            kind=IOKind.ROUTE_RECEIVE, router="R2", peer="R1",
            action=RouteAction.ANNOUNCE,
        )
        assert rule.pair_matches(send, recv_match)
        assert not rule.pair_matches(send, recv_mismatch)

    def test_config_rule_window_covers_25s_lag(self):
        rules = {r.name: r for r in default_rules()}
        assert rules["config-before-rib"].window >= 25.0

    def test_bgp_rib_before_send_vs_eigrp(self):
        """The paper's §4.1 contrast between BGP and EIGRP orderings."""
        bgp_rules = {r.name: r for r in default_rules()}
        assert "bgp-rib-before-send" in bgp_rules
        eigrp = {r.name: r for r in eigrp_style_rules()}
        rule = eigrp["eigrp-fib-before-send"]
        fib = _event(kind=IOKind.FIB_UPDATE, protocol="eigrp")
        send = _event(kind=IOKind.ROUTE_SEND, protocol="eigrp", peer="R2")
        assert rule.pair_matches(fib, send)

    def test_default_rules_cover_all_output_kinds(self):
        consequent_kinds = set()
        for rule in default_rules():
            consequent_kinds.update(rule.consequent.kinds)
        assert IOKind.RIB_UPDATE in consequent_kinds
        assert IOKind.FIB_UPDATE in consequent_kinds
        assert IOKind.ROUTE_SEND in consequent_kinds
        assert IOKind.ROUTE_RECEIVE in consequent_kinds


# -- the compiled predicates are the declared semantics ----------------------


def _pattern_reference(pattern, event):
    """EventPattern, read straight off its field definitions: an empty
    tuple leaves the field free; requires_prefix True/False/None."""
    return (
        (not pattern.kinds or event.kind in pattern.kinds)
        and (not pattern.protocols or event.protocol in pattern.protocols)
        and (not pattern.actions or event.action in pattern.actions)
        and pattern.requires_prefix in (None, event.prefix is not None)
    )


def _antecedes_reference(rule, ante, cons):
    """Antecedent pattern, then every relation *function* in order."""
    return _pattern_reference(rule.antecedent, ante) and all(
        relation(ante, cons) for relation in rule.relations
    )


def _logged_earlier(a, c):
    return a.timestamp < c.timestamp


COMPILED_RULES = default_rules() + eigrp_style_rules() + (
    HbrRule(
        name="custom-relation",
        antecedent=EventPattern(kinds=(IOKind.RIB_UPDATE, IOKind.FIB_UPDATE)),
        consequent=EventPattern(kinds=(IOKind.ROUTE_SEND,)),
        relations=(same_router, _logged_earlier, same_prefix),
    ),
    HbrRule(
        name="kind-free",
        antecedent=EventPattern(protocols=("bgp", None)),
        consequent=EventPattern(actions=(RouteAction.WITHDRAW, None)),
        relations=(different_router,),
    ),
    HbrRule(
        name="prefix-less",
        antecedent=EventPattern(requires_prefix=False),
        consequent=EventPattern(
            kinds=(IOKind.RIB_UPDATE,), requires_prefix=True
        ),
        relations=(same_router,),
    ),
    HbrRule(
        name="no-constraint",
        antecedent=EventPattern(),
        consequent=EventPattern(),
    ),
)

LSA = {"lsa_origin": "R7", "lsa_seq": 3}


def _grid(placements, kinds, protocols, timestamp):
    """Every combination of the fields a pattern or relation reads.
    The prefix axis holds two equal-but-distinct Prefix objects (the
    compiled same_prefix tries identity before equality), another
    prefix, and none."""
    prefixes = (P, Prefix.parse(str(P)), Q, None)
    return [
        _event(
            router=router, peer=peer, kind=kind, protocol=protocol,
            prefix=prefix, action=action, attrs=attrs, t=timestamp,
        )
        for router, peer in placements
        for kind in kinds
        for protocol in protocols
        for action in (RouteAction.ANNOUNCE, RouteAction.WITHDRAW, None)
        for prefix in prefixes
        for attrs in (None, LSA)
    ]


PROTOCOLS = ("bgp", "ospf", "eigrp", "ibgp", "connected", "static", None)
#: Consequents sit on R1 and were sent to / heard from R2; antecedents
#: come from the same router, the symmetric peer, a third router, and
#: the peer router talking to somebody else.
ANTECEDENTS = _grid(
    (("R1", "R2"), ("R2", "R1"), ("R3", "R1"), ("R2", "R3"), ("R1", None)),
    tuple(IOKind),
    PROTOCOLS,
    timestamp=1.0,
)
#: A relation reads only these fields of the consequent.
RELATED_CONSEQUENTS = _grid(
    (("R1", "R2"), ("R1", None)), (IOKind.RIB_UPDATE,), ("bgp",), 0.5
) + _grid((("R1", "R2"),), (IOKind.RIB_UPDATE,), ("bgp",), 2.0)
ALL_CONSEQUENTS = _grid((("R1", "R2"),), tuple(IOKind), PROTOCOLS, 2.0)


class TestCompiledPredicates:
    @pytest.mark.parametrize("rule", COMPILED_RULES, ids=lambda r: r.name)
    def test_antecedes_is_pattern_plus_relations(self, rule):
        matched = 0
        for cons in RELATED_CONSEQUENTS:
            for ante in ANTECEDENTS:
                want = _antecedes_reference(rule, ante, cons)
                assert bool(rule.antecedes(ante, cons)) is want, (ante, cons)
                matched += want
        # Non-vacuous: the grid holds pairs on both sides of every rule.
        assert 0 < matched
        if rule.name != "no-constraint":
            assert matched < len(RELATED_CONSEQUENTS) * len(ANTECEDENTS)

    @pytest.mark.parametrize("rule", COMPILED_RULES, ids=lambda r: r.name)
    def test_patterns_and_pair_matches_delegate(self, rule):
        for pattern in (rule.antecedent, rule.consequent):
            for event in ANTECEDENTS:
                assert pattern.matches(event) is _pattern_reference(
                    pattern, event
                ), event
        # pair_matches = consequent pattern + antecedes, for antecedents
        # on both sides of the predicate.
        some = [a for a in ANTECEDENTS if rule.antecedes(a, ALL_CONSEQUENTS[0])]
        probes = ANTECEDENTS[::97] + some[:5]
        for cons in ALL_CONSEQUENTS:
            accepts = _pattern_reference(rule.consequent, cons)
            for ante in probes:
                assert rule.pair_matches(ante, cons) is (
                    accepts and _antecedes_reference(rule, ante, cons)
                ), (ante, cons)

    def test_compiled_fields_stay_out_of_equality_and_repr(self):
        first, second = default_rules()[0], default_rules()[0]
        assert first == second and hash(first) == hash(second)
        assert first.antecedent == second.antecedent
        assert "antecedes" not in repr(first)
        assert "matches" not in repr(first.antecedent)
