"""Operator policies and their data-plane checks.

Each policy examines a reconstructed snapshot (and, where relevant,
the physical topology for link status) and reports
:class:`Violation` records.  Policies are pure functions of their
inputs — no simulator access — so they work identically on naive
snapshots, consistent snapshots, and hypothetical post-update states
(the pipeline's verify-before-install path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Prefix
from repro.net.topology import Topology
from repro.snapshot.base import DataPlaneSnapshot


@dataclass(frozen=True)
class Violation:
    """One detected policy violation."""

    policy: str
    detail: str
    prefix: Optional[Prefix] = None
    router: Optional[str] = None
    path: Tuple[str, ...] = ()

    def key(self) -> Tuple:
        """Identity for before/after diffing in the pipeline.

        Deliberately excludes the path: a flow that was already
        violating and merely re-routes (still violating) is the same
        violation, not a new one — only (policy, prefix, source)
        identifies it.
        """
        return (self.policy, str(self.prefix), self.router)

    def __str__(self) -> str:
        where = f" at {self.router}" if self.router else ""
        target = f" for {self.prefix}" if self.prefix else ""
        return f"[{self.policy}]{target}{where}: {self.detail}"


class Policy:
    """Base class; subclasses implement :meth:`judge`, the one decider
    per (address, source).

    :meth:`check` judges every address in :meth:`probe_addresses` from
    every source in :meth:`probe_sources`; :meth:`check_addresses`
    restricts both, which is how the incremental verifier re-judges
    only the (address, source) pairs a FIB delta can affect.  The
    contract the differential oracle pins down:
    ``check(s, t) == check_addresses(s, t, probe_addresses(s))``, and
    checking addresses one at a time, or one address's sources a
    subset at a time merged back into :meth:`probe_sources` order,
    gives the same violations.
    """

    name = "policy"
    #: Explicit sources; None: every internal router with a table.
    sources: Optional[List[str]] = None

    def check(
        self, snapshot: DataPlaneSnapshot, topology: Topology
    ) -> List[Violation]:
        return self.check_addresses(
            snapshot, topology, self.probe_addresses(snapshot)
        )

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
        sources: Optional[Sequence[str]] = None,
    ) -> List[Violation]:
        """Violations by address, then by source (default:
        :meth:`probe_sources`)."""
        if sources is None:
            sources = self.probe_sources(snapshot, topology)
        context = self.verdict_context(topology)
        violations: List[Violation] = []
        for address in addresses:
            for source in sources:
                found = self.judge(snapshot, address, source, context)
                if found is not None:
                    violations.append(found)
        return violations

    def judge(
        self,
        snapshot: DataPlaneSnapshot,
        address: int,
        source: str,
        context: object,
    ) -> Optional[Violation]:
        """The violation of traffic from ``source`` to ``address``, if
        any; its ``router`` is ``source``."""
        raise NotImplementedError

    def verdict_context(self, topology: Topology) -> object:
        """What :meth:`judge` reads besides the snapshot (compared by
        ``==``: the incremental verifier re-judges every source when it
        changes).  Default: nothing."""
        return None

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        """The addresses this policy probes on ``snapshot``, ascending
        (the incremental verifier narrows the list by bisection)."""
        return self.addresses_of_interest(snapshot)

    def addresses_of_interest(self, snapshot: DataPlaneSnapshot) -> List[int]:
        """Default probe set: first address of every snapshot prefix."""
        return snapshot.first_addresses()

    def probe_sources(
        self, snapshot: DataPlaneSnapshot, topology: Topology
    ) -> List[str]:
        """The sources this policy traces from, in verdict order."""
        if self.sources is not None:
            return self.sources
        nodes = topology.routers
        return [
            r for r in snapshot.routers() if r in nodes and not nodes[r].external
        ]


class _ScopedPolicy(Policy):
    """Probes the first address of each of ``prefixes`` if given, else
    of every snapshot prefix."""

    def __init__(self, prefixes: Optional[Sequence[Prefix]] = None):
        self.prefixes = sorted(prefixes) if prefixes else None
        self._probed = self.prefixes and [p.first_address() for p in self.prefixes]

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        if self._probed is not None:
            return list(self._probed)
        return self.addresses_of_interest(snapshot)


class LoopFreedomPolicy(_ScopedPolicy):
    """Packets must never revisit a router (always-property)."""

    name = "loop-freedom"

    def judge(self, snapshot, address, source, context):
        path, outcome = snapshot.trace(source, address)
        if outcome != "loop":
            return None
        return Violation(
            policy=self.name,
            detail=f"forwarding loop {'->'.join(path)}",
            prefix=Prefix(address, 32),
            router=source,
            path=tuple(path),
        )


class BlackholeFreedomPolicy(_ScopedPolicy):
    """A router must not forward to a next hop that drops the packet.

    Only *forwarding inconsistencies* count: a path of length > 1
    ending in ``blackhole`` means some router handed the packet to a
    neighbor with no route.  A source with no FIB entry at all is not
    a violation (it may legitimately have no route).
    """

    name = "blackhole-freedom"

    def judge(self, snapshot, address, source, context):
        path, outcome = snapshot.trace(source, address)
        if outcome != "blackhole" or len(path) == 1:
            return None
        return Violation(
            policy=self.name,
            detail=f"traffic black-holed along {'->'.join(path)}",
            prefix=Prefix(address, 32),
            router=source,
            path=tuple(path),
        )


class _PrefixPolicy(Policy):
    """Probes ``prefix``'s first address only (others judge clean)."""

    prefix: Prefix

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        return [self.prefix.first_address()]

    def _trace(self, snapshot, address, source):
        """``snapshot.trace(source, address)`` if ``address`` is the
        probed one, else None."""
        if address != self.prefix.first_address():
            return None
        return snapshot.trace(source, address)

    def _violation(self, source: str, path: List[str], detail: str) -> Violation:
        return Violation(
            policy=self.name,
            detail=detail,
            prefix=self.prefix,
            router=source,
            path=tuple(path),
        )


class ReachabilityPolicy(_PrefixPolicy):
    """Given sources must be able to deliver traffic for ``prefix``."""

    name = "reachability"

    def __init__(self, prefix: Prefix, sources: Sequence[str]):
        self.prefix = prefix
        self.sources = list(sources)

    def judge(self, snapshot, address, source, context):
        traced = self._trace(snapshot, address, source)
        if traced is None or traced[1] == "delivered":
            return None
        path, outcome = traced
        return self._violation(
            source,
            path,
            f"{source} cannot reach {self.prefix} "
            f"({outcome} along {'->'.join(path)})",
        )


class WaypointPolicy(_PrefixPolicy):
    """Delivered traffic for ``prefix`` must traverse ``waypoint``
    (e.g. "traffic should never bypass a firewall", §5)."""

    name = "waypoint"

    def __init__(
        self,
        prefix: Prefix,
        waypoint: str,
        sources: Optional[Sequence[str]] = None,
    ):
        self.prefix = prefix
        self.waypoint = waypoint
        self.sources = list(sources) if sources else None

    def judge(self, snapshot, address, source, context):
        if source == self.waypoint:
            return None
        traced = self._trace(snapshot, address, source)
        if traced is None or traced[1] != "delivered" or self.waypoint in traced[0]:
            return None
        path = traced[0]
        return self._violation(
            source,
            path,
            f"traffic from {source} bypasses waypoint "
            f"{self.waypoint} ({'->'.join(path)})",
        )


class PreferredExitPolicy(_PrefixPolicy):
    """The §2 policy: use the preferred exit while its uplink is up.

        "R2 is the preferred exit point when its uplink is up;
        otherwise, R1 should be used."

    ``uplink_of`` maps each exit router to its external uplink peer;
    the uplink's link status is read from the live topology (a
    hardware fact, not data-plane state) as the verdict context.
    """

    name = "preferred-exit"

    def __init__(
        self,
        prefix: Prefix,
        preferred_exit: str,
        fallback_exit: str,
        uplink_of: Dict[str, str],
        sources: Optional[Sequence[str]] = None,
    ):
        self.prefix = prefix
        self.preferred_exit = preferred_exit
        self.fallback_exit = fallback_exit
        self.uplink_of = dict(uplink_of)
        self.sources = list(sources) if sources else None

    def _uplink_up(self, topology: Topology, exit_router: str) -> bool:
        peer = self.uplink_of.get(exit_router)
        if peer is None:
            return False
        link = topology.link_between(exit_router, peer)
        return link is not None and link.up

    def required_exit(self, topology: Topology) -> Optional[str]:
        if self._uplink_up(topology, self.preferred_exit):
            return self.preferred_exit
        if self._uplink_up(topology, self.fallback_exit):
            return self.fallback_exit
        return None

    def verdict_context(self, topology: Topology) -> Optional[str]:
        return self.required_exit(topology)

    def judge(self, snapshot, address, source, context):
        if context is None:
            return None  # no uplink available; nothing to enforce
        traced = self._trace(snapshot, address, source)
        if traced is None or traced[1] != "delivered":
            return None  # not this policy's concern (blackhole policy's)
        path = traced[0]
        required_uplink = self.uplink_of[context]
        if required_uplink in path:
            return None
        return self._violation(
            source,
            path,
            f"traffic from {source} exits via {'->'.join(path)} "
            f"instead of {context} (uplink {required_uplink})",
        )
