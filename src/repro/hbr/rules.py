"""Declarative HBR rules (§4.1 / §4.2 "Rule matching").

    "Given an I/O that matches the right-hand-side of a rule, we can
    search the (timestamp- and prefix-filtered) stream of I/Os for an
    I/O that matches the left-hand-side of the rule."

A rule has two :class:`EventPattern` sides plus a *relation* between
the matched pair (same router, peer-symmetric, matching action, ...).
The default rule set encodes the generic HBRs that "apply to all
common distributed routing protocols" plus the BGP- and OSPF-specific
ones, including the paper's example contrast: with BGP the RIB entry
precedes the advertisement, whereas an EIGRP-style protocol
advertises only after the FIB install.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.capture.io_events import IOEvent, IOKind, RouteAction

#: Extra pair predicate: (antecedent, consequent) -> bool.
PairPredicate = Callable[[IOEvent, IOEvent], bool]


def _compile(params: str, terms: Sequence[str], scope: Dict[str, object]):
    """``lambda <params>: <term> and <term> ...`` as one flat function.

    Patterns and rules are matched once per *candidate*, the hottest
    loop of inference, so each compiles its declared fields into a
    single expression here instead of interpreting them per call.
    """
    return eval(f"lambda {params}: {' and '.join(terms) or 'True'}", scope)


@dataclass(frozen=True)
class EventPattern:
    """A predicate over single events, built from field constraints.

    An empty tuple leaves that field unconstrained; ``requires_prefix``
    demands a prefix (True), its absence (False) or neither (None).
    """

    kinds: Tuple[IOKind, ...] = ()
    protocols: Tuple[Optional[str], ...] = ()
    actions: Tuple[Optional[RouteAction], ...] = ()
    requires_prefix: Optional[bool] = None
    #: ``matches(event) -> bool``, compiled from the fields above.
    matches: Callable[[IOEvent], bool] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        scope: Dict[str, object] = {}
        object.__setattr__(
            self, "matches", _compile("e", self._terms("e", scope), scope)
        )

    def _terms(self, var: str, scope: Dict[str, object]) -> List[str]:
        """Source terms testing the event named ``var``; the tuples
        they read are bound into ``scope``.  Membership is on the
        tuple, so kinds compare by identity and are never hashed."""
        terms = []
        for attribute, allowed in (
            ("kind", self.kinds),
            ("protocol", self.protocols),
            ("action", self.actions),
        ):
            if allowed:
                scope[f"{var}_{attribute}s"] = allowed
                terms.append(f"{var}.{attribute} in {var}_{attribute}s")
        if self.requires_prefix is not None:
            negate = "not " if self.requires_prefix else ""
            terms.append(f"{var}.prefix is {negate}None")
        return terms


def same_router(a: IOEvent, b: IOEvent) -> bool:
    return a.router == b.router

def different_router(a: IOEvent, b: IOEvent) -> bool:
    return a.router != b.router


def same_prefix(a: IOEvent, b: IOEvent) -> bool:
    return a.prefix is not None and a.prefix == b.prefix


def peer_symmetric(a: IOEvent, b: IOEvent) -> bool:
    """a is a send to b.router, b is a receive from a.router."""
    return a.peer == b.router and b.peer == a.router


def same_action(a: IOEvent, b: IOEvent) -> bool:
    return a.action == b.action


def same_lsa(a: IOEvent, b: IOEvent) -> bool:
    """Both events refer to the same LSA instance (origin, seq)."""
    origin = a.attr("lsa_origin")
    return (
        origin is not None
        and origin == b.attr("lsa_origin")
        and a.attr("lsa_seq") == b.attr("lsa_seq")
    )


#: The stock relations as source over ``a`` (antecedent) and ``c``
#: (consequent): a rule inlines the ones it recognises by identity.
#: ``same_prefix`` tries identity first — events of one route usually
#: share the Prefix object — before the Python-level ``Prefix.__eq__``.
_INLINE: Dict[PairPredicate, str] = {
    same_router: "a.router == c.router",
    different_router: "a.router != c.router",
    same_prefix: (
        "a.prefix is not None"
        " and (a.prefix is c.prefix or a.prefix == c.prefix)"
    ),
    peer_symmetric: "a.peer == c.router and c.peer == a.router",
    same_action: "a.action == c.action",
}


@dataclass(frozen=True)
class HbrRule:
    """One happens-before rule: antecedent → consequent.

    ``window`` bounds how far back (in seconds) the antecedent may
    have occurred; ``pick`` selects among multiple candidates:
    ``latest`` (default — the most recent plausible cause) or ``all``.
    """

    name: str
    antecedent: EventPattern
    consequent: EventPattern
    relations: Tuple[PairPredicate, ...] = ()
    window: float = 5.0
    pick: str = "latest"
    base_confidence: float = 1.0
    #: ``antecedes(ante, cons)``: ``ante`` matches the antecedent
    #: pattern and every relation holds for the pair — one flat
    #: function (stock relations inlined, custom ones called), for
    #: callers that already matched ``cons`` against the consequent.
    antecedes: PairPredicate = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scope: Dict[str, object] = {}
        terms = self.antecedent._terms("a", scope)
        for position, relation in enumerate(self.relations):
            inline = _INLINE.get(relation)
            if inline is None:
                scope[f"relation_{position}"] = relation
                inline = f"relation_{position}(a, c)"
            terms.append(inline)
        object.__setattr__(
            self, "antecedes", _compile("a, c", terms, scope)
        )

    def pair_matches(self, ante: IOEvent, cons: IOEvent) -> bool:
        return bool(
            self.consequent.matches(cons) and self.antecedes(ante, cons)
        )


#: Window generous enough to span the ~25 s config→reconfiguration lag
#: the paper measured ("surprisingly far apart (25s)", §7).
CONFIG_WINDOW = 60.0


def default_rules() -> Tuple[HbrRule, ...]:
    """The built-in rule set covering §4.1's generic + specific HBRs."""
    return _DEFAULT_RULES


def _build_default_rules() -> Tuple[HbrRule, ...]:
    route_recv = EventPattern(kinds=(IOKind.ROUTE_RECEIVE,))
    route_send = EventPattern(kinds=(IOKind.ROUTE_SEND,))
    rib_update = EventPattern(kinds=(IOKind.RIB_UPDATE,))
    fib_update = EventPattern(kinds=(IOKind.FIB_UPDATE,))
    config_change = EventPattern(kinds=(IOKind.CONFIG_CHANGE,))
    hw_status = EventPattern(kinds=(IOKind.HARDWARE_STATUS,))

    bgp_recv = EventPattern(kinds=(IOKind.ROUTE_RECEIVE,), protocols=("bgp",))
    bgp_send = EventPattern(kinds=(IOKind.ROUTE_SEND,), protocols=("bgp",))
    bgp_rib = EventPattern(kinds=(IOKind.RIB_UPDATE,), protocols=("bgp",))
    ospf_recv = EventPattern(kinds=(IOKind.ROUTE_RECEIVE,), protocols=("ospf",))
    ospf_send = EventPattern(kinds=(IOKind.ROUTE_SEND,), protocols=("ospf",))
    ospf_rib = EventPattern(kinds=(IOKind.RIB_UPDATE,), protocols=("ospf",))
    eigrp_recv = EventPattern(kinds=(IOKind.ROUTE_RECEIVE,), protocols=("eigrp",))
    eigrp_send = EventPattern(kinds=(IOKind.ROUTE_SEND,), protocols=("eigrp",))
    eigrp_rib = EventPattern(kinds=(IOKind.RIB_UPDATE,), protocols=("eigrp",))
    eigrp_fib = EventPattern(kinds=(IOKind.FIB_UPDATE,), protocols=("eigrp",))

    return (
        # Generic: [R receive C advertisement for P] -> [R install P in C RIB]
        HbrRule(
            name="recv-before-rib",
            antecedent=bgp_recv,
            consequent=bgp_rib,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
        # Generic: [R install P in C RIB] -> [R install P in FIB]
        HbrRule(
            name="rib-before-fib",
            antecedent=rib_update,
            consequent=fib_update,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
        # Generic: [R' send C advertisement for P] -> [R receive it]
        HbrRule(
            name="send-before-recv",
            antecedent=EventPattern(
                kinds=(IOKind.ROUTE_SEND,), protocols=("bgp",)
            ),
            consequent=EventPattern(
                kinds=(IOKind.ROUTE_RECEIVE,), protocols=("bgp",)
            ),
            relations=(different_router, same_prefix, peer_symmetric, same_action),
            window=2.0,
        ),
        # BGP-specific: [R install P in BGP RIB] -> [R send BGP ad for P]
        # (contrast with EIGRP, where the FIB install precedes the send)
        HbrRule(
            name="bgp-rib-before-send",
            antecedent=bgp_rib,
            consequent=bgp_send,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
        # Config: [R config change] -> [R update P in C RIB] for any
        # protocol (BGP soft reconfiguration ~25 s; OSPF cost changes;
        # DV originations).
        HbrRule(
            name="config-before-rib",
            antecedent=config_change,
            consequent=rib_update,
            relations=(same_router,),
            window=CONFIG_WINDOW,
        ),
        # Hardware: [R link status] -> [R RIB change] (session drop)
        HbrRule(
            name="hw-before-rib",
            antecedent=hw_status,
            consequent=rib_update,
            relations=(same_router,),
            window=2.0,
        ),
        # Hardware: [R link status] -> [R FIB change] (connected route)
        HbrRule(
            name="hw-before-fib",
            antecedent=hw_status,
            consequent=EventPattern(
                kinds=(IOKind.FIB_UPDATE,), protocols=("connected",)
            ),
            relations=(same_router,),
            window=2.0,
        ),
        # OSPF: [R receive LSA] -> [R update P in OSPF RIB] (SPF).
        # SPF runs are debounced: *every* LSA received since the last
        # run contributes to the result, so all candidates are linked.
        HbrRule(
            name="ospf-recv-before-rib",
            antecedent=ospf_recv,
            consequent=ospf_rib,
            relations=(same_router,),
            window=0.25,
            pick="all",
            base_confidence=0.9,
        ),
        # OSPF flooding: [R receive LSA] -> [R re-send same LSA]
        HbrRule(
            name="ospf-recv-before-flood",
            antecedent=ospf_recv,
            consequent=ospf_send,
            relations=(same_router, same_lsa),
            window=2.0,
        ),
        # OSPF: [R' send LSA] -> [R receive LSA]
        HbrRule(
            name="ospf-send-before-recv",
            antecedent=ospf_send,
            consequent=ospf_recv,
            relations=(different_router, peer_symmetric, same_lsa),
            window=2.0,
        ),
        # Hardware: [R link status] -> [R send LSA / withdrawal]
        HbrRule(
            name="hw-before-send",
            antecedent=hw_status,
            consequent=route_send,
            relations=(same_router,),
            window=2.0,
        ),
        # Config: [R config change] -> [R send advertisement]
        # Covers originations triggered directly by config (e.g. a new
        # ``network`` statement) that do not pass through a prior
        # captured RIB event.
        HbrRule(
            name="config-before-send",
            antecedent=config_change,
            consequent=bgp_send,
            relations=(same_router,),
            window=CONFIG_WINDOW,
            base_confidence=0.8,
        ),
        # Config: [R config change] -> [R FIB update] (statics)
        HbrRule(
            name="config-before-fib",
            antecedent=config_change,
            consequent=EventPattern(
                kinds=(IOKind.FIB_UPDATE,), protocols=("static",)
            ),
            relations=(same_router,),
            window=CONFIG_WINDOW,
        ),
        # EIGRP-style DV: [R receive update] -> [R update P in DV RIB]
        HbrRule(
            name="eigrp-recv-before-rib",
            antecedent=eigrp_recv,
            consequent=eigrp_rib,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
        # EIGRP-specific (the §4.1 contrast with BGP): the FIB install
        # happens before the advertisement is sent.
        HbrRule(
            name="eigrp-fib-before-send",
            antecedent=eigrp_fib,
            consequent=eigrp_send,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
        # EIGRP: [R' send update] -> [R receive update]
        HbrRule(
            name="eigrp-send-before-recv",
            antecedent=eigrp_send,
            consequent=eigrp_recv,
            relations=(different_router, same_prefix, peer_symmetric, same_action),
            window=2.0,
        ),
        # Recursive resolution: [R update N in IGP RIB] -> [R update P
        # in FIB] where P's BGP next hop resolves through N.  This is
        # the documented exception to the prefix filter (§4.2 notes
        # prefixes only *filter* candidates): the affected FIB prefix
        # differs from the IGP prefix that moved it.  Kept at reduced
        # confidence since the resolution linkage is not observable.
        HbrRule(
            name="igp-resolution-before-fib",
            antecedent=ospf_rib,
            consequent=EventPattern(
                kinds=(IOKind.FIB_UPDATE,), protocols=("ibgp", "ebgp")
            ),
            relations=(same_router,),
            window=0.2,
            pick="all",
            base_confidence=0.6,
        ),
        # Redistribution: [R update P in IGP RIB] -> [R update P in
        # BGP RIB] (§4.1's "route redistribution ... mechanisms").
        HbrRule(
            name="redistribute-rib-to-rib",
            antecedent=EventPattern(
                kinds=(IOKind.RIB_UPDATE,), protocols=("ospf", "eigrp")
            ),
            consequent=bgp_rib,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
    )


#: Built once: the rules are immutable, so engines share them and
#: compile nothing.  It also fixes where the compiled predicates sit in
#: memory before any timed work allocates.  A profile labels each one
#: ``<string>:1:<lambda>`` and ``pstats`` keeps the last by address, so
#: the bench's call count repeats exactly only while that order does.
_DEFAULT_RULES = _build_default_rules()


def eigrp_style_rules() -> Tuple[HbrRule, ...]:
    """The EIGRP-flavoured ordering of §4.1 for an hypothetical
    protocol tagged ``eigrp``: FIB install precedes the send."""
    eigrp_fib = EventPattern(kinds=(IOKind.FIB_UPDATE,), protocols=("eigrp",))
    eigrp_send = EventPattern(kinds=(IOKind.ROUTE_SEND,), protocols=("eigrp",))
    return (
        HbrRule(
            name="eigrp-fib-before-send",
            antecedent=eigrp_fib,
            consequent=eigrp_send,
            relations=(same_router, same_prefix),
            window=2.0,
        ),
    )
