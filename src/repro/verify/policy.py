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
    """Base class; subclasses implement :meth:`check_addresses`.

    :meth:`check` probes every address in :meth:`probe_addresses`;
    :meth:`check_addresses` restricts the probe set, which is how the
    incremental verifier re-checks only the addresses a FIB delta can
    affect.  The contract the differential oracle pins down:
    ``check(s, t) == check_addresses(s, t, probe_addresses(s))``, and
    checking addresses one at a time concatenates to the same result.
    """

    name = "policy"

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
    ) -> List[Violation]:
        raise NotImplementedError

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        """The addresses this policy probes on ``snapshot``, ascending
        (the incremental verifier narrows the list by bisection)."""
        return self.addresses_of_interest(snapshot)

    def addresses_of_interest(self, snapshot: DataPlaneSnapshot) -> List[int]:
        """Default probe set: first address of every snapshot prefix."""
        return snapshot.first_addresses()

    def _internal_sources(
        self, snapshot: DataPlaneSnapshot, topology: Topology
    ) -> List[str]:
        internal = set(topology.internal_routers())
        return [r for r in snapshot.routers() if r in internal]


class LoopFreedomPolicy(Policy):
    """Packets must never revisit a router (always-property)."""

    name = "loop-freedom"

    def __init__(self, prefixes: Optional[Sequence[Prefix]] = None):
        self.prefixes = sorted(prefixes) if prefixes else None

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        if self.prefixes is not None:
            return [p.first_address() for p in self.prefixes]
        return self.addresses_of_interest(snapshot)

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
    ) -> List[Violation]:
        violations: List[Violation] = []
        sources = self._internal_sources(snapshot, topology)
        for address in addresses:
            prefix = Prefix(address, 32)
            for source in sources:
                path, outcome = snapshot.trace(source, address)
                if outcome == "loop":
                    violations.append(
                        Violation(
                            policy=self.name,
                            detail=f"forwarding loop {'->'.join(path)}",
                            prefix=prefix,
                            router=source,
                            path=tuple(path),
                        )
                    )
        return violations


class BlackholeFreedomPolicy(Policy):
    """A router must not forward to a next hop that drops the packet.

    Only *forwarding inconsistencies* count: a path of length > 1
    ending in ``blackhole`` means some router handed the packet to a
    neighbor with no route.  A source with no FIB entry at all is not
    a violation (it may legitimately have no route).
    """

    name = "blackhole-freedom"

    def __init__(self, prefixes: Optional[Sequence[Prefix]] = None):
        self.prefixes = sorted(prefixes) if prefixes else None

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        if self.prefixes is not None:
            return [p.first_address() for p in self.prefixes]
        return self.addresses_of_interest(snapshot)

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
    ) -> List[Violation]:
        violations: List[Violation] = []
        sources = self._internal_sources(snapshot, topology)
        for address in addresses:
            prefix = Prefix(address, 32)
            for source in sources:
                path, outcome = snapshot.trace(source, address)
                if outcome == "blackhole" and len(path) > 1:
                    violations.append(
                        Violation(
                            policy=self.name,
                            detail=f"traffic black-holed along {'->'.join(path)}",
                            prefix=prefix,
                            router=source,
                            path=tuple(path),
                        )
                    )
        return violations


class ReachabilityPolicy(Policy):
    """Given sources must be able to deliver traffic for ``prefix``."""

    name = "reachability"

    def __init__(self, prefix: Prefix, sources: Sequence[str]):
        self.prefix = prefix
        self.sources = list(sources)

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        return [self.prefix.first_address()]

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
    ) -> List[Violation]:
        violations: List[Violation] = []
        address = self.prefix.first_address()
        if address not in addresses:
            return violations
        for source in self.sources:
            path, outcome = snapshot.trace(source, address)
            if outcome != "delivered":
                violations.append(
                    Violation(
                        policy=self.name,
                        detail=(
                            f"{source} cannot reach {self.prefix} "
                            f"({outcome} along {'->'.join(path)})"
                        ),
                        prefix=self.prefix,
                        router=source,
                        path=tuple(path),
                    )
                )
        return violations


class WaypointPolicy(Policy):
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

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        return [self.prefix.first_address()]

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
    ) -> List[Violation]:
        violations: List[Violation] = []
        address = self.prefix.first_address()
        if address not in addresses:
            return violations
        sources = self.sources or self._internal_sources(snapshot, topology)
        for source in sources:
            if source == self.waypoint:
                continue
            path, outcome = snapshot.trace(source, address)
            if outcome == "delivered" and self.waypoint not in path:
                violations.append(
                    Violation(
                        policy=self.name,
                        detail=(
                            f"traffic from {source} bypasses waypoint "
                            f"{self.waypoint} ({'->'.join(path)})"
                        ),
                        prefix=self.prefix,
                        router=source,
                        path=tuple(path),
                    )
                )
        return violations


class PreferredExitPolicy(Policy):
    """The §2 policy: use the preferred exit while its uplink is up.

        "R2 is the preferred exit point when its uplink is up;
        otherwise, R1 should be used."

    ``uplink_of`` maps each exit router to its external uplink peer;
    the uplink's link status is read from the live topology (a
    hardware fact, not data-plane state).
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

    def probe_addresses(self, snapshot: DataPlaneSnapshot) -> List[int]:
        return [self.prefix.first_address()]

    def check_addresses(
        self,
        snapshot: DataPlaneSnapshot,
        topology: Topology,
        addresses: Sequence[int],
    ) -> List[Violation]:
        required = self.required_exit(topology)
        if required is None:
            return []  # no uplink available; nothing to enforce
        required_uplink = self.uplink_of[required]
        violations: List[Violation] = []
        address = self.prefix.first_address()
        if address not in addresses:
            return violations
        sources = self.sources or self._internal_sources(snapshot, topology)
        for source in sources:
            path, outcome = snapshot.trace(source, address)
            if outcome != "delivered":
                continue  # not this policy's concern (blackhole policy's)
            if required_uplink not in path:
                violations.append(
                    Violation(
                        policy=self.name,
                        detail=(
                            f"traffic from {source} exits via "
                            f"{'->'.join(path)} instead of {required} "
                            f"(uplink {required_uplink})"
                        ),
                        prefix=self.prefix,
                        router=source,
                        path=tuple(path),
                    )
                )
        return violations
