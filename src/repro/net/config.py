"""Vendor-neutral router configuration model.

The paper's repair mechanism (§6) reverts *configuration changes* — a
root-cause leaf in the happens-before graph is typically a config
change (Fig. 4) — so configuration here is first-class and versioned:

* :class:`RouterConfig` — everything a router needs to run its
  protocol instances (BGP neighbors, route-maps, OSPF interfaces,
  static routes, redistribution).
* :class:`ConfigChange` — a reversible delta, carrying both the new
  and the previous value, so rollback is a pure data operation.
* :class:`ConfigStore` — a per-router version history supporting
  revert-to-version, which is exactly the "version system for
  configurations" §7 says makes rollback easy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.addr import Prefix


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration."""


# -- route-maps -----------------------------------------------------------


@dataclass(frozen=True)
class RouteMapClause:
    """One match/set clause of a route-map.

    ``match_prefix`` of None matches every prefix.  Only the actions
    needed by the paper's scenarios (and typical enterprise policies)
    are modelled: set local-pref, set MED, prepend AS path, permit or
    deny.
    """

    permit: bool = True
    match_prefix: Optional[Prefix] = None
    match_exact: bool = False
    set_local_pref: Optional[int] = None
    set_med: Optional[int] = None
    prepend_asns: Tuple[int, ...] = ()

    def matches(self, prefix: Prefix) -> bool:
        if self.match_prefix is None:
            return True
        if self.match_exact:
            return self.match_prefix == prefix
        return self.match_prefix.contains(prefix)


@dataclass(frozen=True)
class RouteMap:
    """An ordered sequence of clauses; first matching clause wins.

    A route that matches no clause is denied, matching IOS semantics
    (implicit deny at the end of every route-map).
    """

    name: str
    clauses: Tuple[RouteMapClause, ...] = ()

    def first_match(self, prefix: Prefix) -> Optional[RouteMapClause]:
        for clause in self.clauses:
            if clause.matches(prefix):
                return clause
        return None


def permit_all_map(name: str = "permit-all") -> RouteMap:
    """A route-map that permits everything unchanged."""
    return RouteMap(name, (RouteMapClause(permit=True),))


def local_pref_map(name: str, local_pref: int) -> RouteMap:
    """A route-map that permits everything and sets one local-pref.

    This is the paper's policy mechanism: "operators configure a
    local preference (LP) of 30 on R2 and 20 on R1" (§2).
    """
    return RouteMap(name, (RouteMapClause(permit=True, set_local_pref=local_pref),))


# -- per-protocol configuration -------------------------------------------


@dataclass(frozen=True)
class BgpNeighborConfig:
    """Configuration of one BGP session from this router's side."""

    peer: str
    remote_asn: int
    import_map: Optional[str] = None
    export_map: Optional[str] = None
    next_hop_self: bool = False
    add_path: bool = False
    soft_reconfiguration: bool = True
    #: RFC 4456: treat this iBGP peer as a route-reflector client
    #: (this router acts as the reflector on the session).
    route_reflector_client: bool = False

    def is_external(self, local_asn: int) -> bool:
        return self.remote_asn != local_asn


@dataclass(frozen=True)
class OspfInterfaceConfig:
    """OSPF participation of one interface."""

    interface: str
    cost: int = 10
    area: int = 0
    passive: bool = False

    def __post_init__(self) -> None:
        if self.cost < 1:
            raise ConfigError(f"OSPF cost must be positive, got {self.cost}")


@dataclass(frozen=True)
class StaticRouteConfig:
    """A static route: prefix via next-hop address (or discard)."""

    prefix: Prefix
    next_hop: Optional[int] = None
    discard: bool = False

    def __post_init__(self) -> None:
        if self.next_hop is None and not self.discard:
            raise ConfigError(f"static route {self.prefix} needs next_hop or discard")


@dataclass(frozen=True)
class RedistributionConfig:
    """Redistribute routes from ``source`` protocol into ``target``."""

    source: str
    target: str
    route_map: Optional[str] = None


# -- router configuration --------------------------------------------------


#: Default administrative distances, Cisco-flavoured.
DEFAULT_ADMIN_DISTANCE: Dict[str, int] = {
    "connected": 0,
    "static": 1,
    "ebgp": 20,
    "eigrp": 90,
    "ospf": 110,
    "ibgp": 200,
}


@dataclass
class RouterConfig:
    """The complete configuration of one router.

    Mutation happens only through :meth:`apply`, which takes a
    :class:`ConfigChange` and returns the updated config — keeping
    every change reversible and observable (a config change is a
    control-plane *input* in the paper's I/O taxonomy, §4.1).
    """

    router: str
    asn: int = 65000
    router_id: int = 0
    bgp_neighbors: Dict[str, BgpNeighborConfig] = field(default_factory=dict)
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    ospf_interfaces: Dict[str, OspfInterfaceConfig] = field(default_factory=dict)
    static_routes: List[StaticRouteConfig] = field(default_factory=list)
    redistributions: List[RedistributionConfig] = field(default_factory=list)
    originated_prefixes: List[Prefix] = field(default_factory=list)
    #: Run the EIGRP-style distance-vector protocol on this router.
    dv_enabled: bool = False
    #: Prefixes this router originates into the DV protocol.
    dv_originated: List[Prefix] = field(default_factory=list)
    admin_distance: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_ADMIN_DISTANCE)
    )

    def add_bgp_neighbor(self, neighbor: BgpNeighborConfig) -> None:
        if neighbor.peer in self.bgp_neighbors:
            raise ConfigError(f"{self.router}: duplicate BGP neighbor {neighbor.peer}")
        self.bgp_neighbors[neighbor.peer] = neighbor

    def add_route_map(self, route_map: RouteMap) -> None:
        self.route_maps[route_map.name] = route_map

    def route_map(self, name: Optional[str]) -> Optional[RouteMap]:
        if name is None:
            return None
        try:
            return self.route_maps[name]
        except KeyError:
            raise ConfigError(f"{self.router}: unknown route-map {name!r}") from None

    def import_map_for(self, peer: str) -> Optional[RouteMap]:
        neighbor = self.bgp_neighbors.get(peer)
        if neighbor is None:
            return None
        return self.route_map(neighbor.import_map)

    def export_map_for(self, peer: str) -> Optional[RouteMap]:
        neighbor = self.bgp_neighbors.get(peer)
        if neighbor is None:
            return None
        return self.route_map(neighbor.export_map)

    def snapshot(self) -> "RouterConfig":
        """A deep-enough copy for versioning (frozen leaves shared)."""
        return RouterConfig(
            router=self.router,
            asn=self.asn,
            router_id=self.router_id,
            bgp_neighbors=dict(self.bgp_neighbors),
            route_maps=dict(self.route_maps),
            ospf_interfaces=dict(self.ospf_interfaces),
            static_routes=list(self.static_routes),
            redistributions=list(self.redistributions),
            originated_prefixes=list(self.originated_prefixes),
            dv_enabled=self.dv_enabled,
            dv_originated=list(self.dv_originated),
            admin_distance=dict(self.admin_distance),
        )

    def apply(self, change: "ConfigChange") -> None:
        """Apply ``change`` in place. Raises ConfigError on mismatch."""
        change.apply_to(self)


# -- config changes ---------------------------------------------------------

_change_ids = itertools.count(1)


@dataclass
class ConfigChange:
    """A reversible configuration delta.

    ``kind`` selects the mutation; ``key``/``value`` parameterise it;
    ``previous`` is filled in at apply time so :meth:`inverted` can
    produce the exact rollback.  Supported kinds:

    - ``set_route_map``: replace/insert a route-map (key = map name,
      value = RouteMap).  This covers the paper's "set LP to 10" change.
    - ``set_neighbor``: replace/insert a BGP neighbor config.
    - ``remove_neighbor``: delete a BGP neighbor.
    - ``set_static``: replace the full static route list.
    - ``set_originated``: replace the originated prefix list.
    - ``set_ospf_cost``: change one OSPF interface cost.
    """

    router: str
    kind: str
    key: Optional[str] = None
    value: Any = None
    previous: Any = None
    change_id: int = field(default_factory=lambda: next(_change_ids))
    description: str = ""

    _KINDS = (
        "set_route_map",
        "set_neighbor",
        "remove_neighbor",
        "set_static",
        "set_originated",
        "set_dv_originated",
        "set_ospf_cost",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown config change kind {self.kind!r}")

    def apply_to(self, config: RouterConfig) -> None:
        if config.router != self.router:
            raise ConfigError(
                f"change for {self.router} applied to {config.router}"
            )
        if self.kind == "set_route_map":
            if self.key is None or not isinstance(self.value, RouteMap):
                raise ConfigError("set_route_map needs key and RouteMap value")
            self.previous = config.route_maps.get(self.key)
            config.route_maps[self.key] = self.value
        elif self.kind == "set_neighbor":
            if self.key is None or not isinstance(self.value, BgpNeighborConfig):
                raise ConfigError("set_neighbor needs key and BgpNeighborConfig")
            self.previous = config.bgp_neighbors.get(self.key)
            config.bgp_neighbors[self.key] = self.value
        elif self.kind == "remove_neighbor":
            if self.key is None:
                raise ConfigError("remove_neighbor needs key")
            self.previous = config.bgp_neighbors.pop(self.key, None)
        elif self.kind == "set_static":
            self.previous = list(config.static_routes)
            config.static_routes = list(self.value or [])
        elif self.kind == "set_originated":
            self.previous = list(config.originated_prefixes)
            config.originated_prefixes = list(self.value or [])
        elif self.kind == "set_dv_originated":
            self.previous = list(config.dv_originated)
            config.dv_originated = list(self.value or [])
        elif self.kind == "set_ospf_cost":
            if self.key is None:
                raise ConfigError("set_ospf_cost needs interface key")
            current = config.ospf_interfaces.get(self.key)
            if current is None:
                raise ConfigError(f"no OSPF config on interface {self.key}")
            self.previous = current
            config.ospf_interfaces[self.key] = replace(current, cost=int(self.value))

    def inverted(self) -> "ConfigChange":
        """The change that undoes this one (valid after apply)."""
        if self.kind == "set_route_map":
            if self.previous is None:
                # The map did not exist before: rollback re-installs a
                # permit-all placeholder is wrong; instead we restore by
                # replacing with a deny-nothing map is also wrong.  The
                # faithful inverse is deletion, modelled as replacing
                # with the previous value; absence is encoded as a
                # permit-all map only when the caller never referenced
                # the map before.  We keep it simple and explicit:
                raise ConfigError(
                    f"cannot invert creation of route-map {self.key!r} "
                    "(no previous value)"
                )
            return ConfigChange(
                self.router,
                "set_route_map",
                key=self.key,
                value=self.previous,
                description=f"revert change #{self.change_id}",
            )
        if self.kind == "set_neighbor":
            if self.previous is None:
                return ConfigChange(
                    self.router,
                    "remove_neighbor",
                    key=self.key,
                    description=f"revert change #{self.change_id}",
                )
            return ConfigChange(
                self.router,
                "set_neighbor",
                key=self.key,
                value=self.previous,
                description=f"revert change #{self.change_id}",
            )
        if self.kind == "remove_neighbor":
            if self.previous is None:
                raise ConfigError("nothing to restore: neighbor did not exist")
            return ConfigChange(
                self.router,
                "set_neighbor",
                key=self.key,
                value=self.previous,
                description=f"revert change #{self.change_id}",
            )
        if self.kind in ("set_static", "set_originated", "set_dv_originated"):
            return ConfigChange(
                self.router,
                self.kind,
                value=list(self.previous or []),
                description=f"revert change #{self.change_id}",
            )
        if self.kind == "set_ospf_cost":
            previous = self.previous
            if previous is None:
                raise ConfigError("nothing to restore: no previous OSPF cost")
            return ConfigChange(
                self.router,
                "set_ospf_cost",
                key=self.key,
                value=previous.cost,
                description=f"revert change #{self.change_id}",
            )
        raise ConfigError(f"cannot invert kind {self.kind!r}")

    def __str__(self) -> str:
        label = self.description or f"{self.kind}({self.key})"
        return f"ConfigChange#{self.change_id}[{self.router}: {label}]"


# -- versioned store ---------------------------------------------------------


class ConfigStore:
    """Versioned configuration for every router in the network.

    Every applied :class:`ConfigChange` creates a new version; the
    store can revert a single change (by inverse) or roll a router
    back to any prior version.  §7: "this information, coupled with a
    version system for configurations, is enough to allow easy manual
    rollback, and creates the premises for automated rollback."
    """

    def __init__(self, configs: Iterable[RouterConfig]):
        self._current: Dict[str, RouterConfig] = {}
        self._history: Dict[str, List[Tuple[Optional[ConfigChange], RouterConfig]]] = {}
        #: change id -> every change :meth:`apply` recorded, reverts included.
        self._changes: Dict[int, ConfigChange] = {}
        for config in configs:
            if config.router in self._current:
                raise ConfigError(f"duplicate config for {config.router}")
            self._current[config.router] = config
            self._history[config.router] = [(None, config.snapshot())]

    def routers(self) -> List[str]:
        return sorted(self._current)

    def get(self, router: str) -> RouterConfig:
        try:
            return self._current[router]
        except KeyError:
            raise ConfigError(f"no config for router {router!r}") from None

    def version_of(self, router: str) -> int:
        return len(self._history[router]) - 1

    def apply(self, change: ConfigChange) -> RouterConfig:
        """Apply ``change`` and record the new version."""
        config = self.get(change.router)
        config.apply(change)
        self._history[change.router].append((change, config.snapshot()))
        self._changes[change.change_id] = change
        return config

    def revert_change(self, change: ConfigChange) -> ConfigChange:
        """Apply the inverse of ``change``; returns the inverse applied."""
        inverse = change.inverted()
        self.apply(inverse)
        return inverse

    def revert_to_version(self, router: str, version: int) -> RouterConfig:
        """Restore ``router`` to a historical version (new version made)."""
        history = self._history[router]
        if not 0 <= version < len(history):
            raise ConfigError(
                f"{router} has versions 0..{len(history) - 1}, asked for {version}"
            )
        _, snapshot = history[version]
        restored = snapshot.snapshot()
        self._current[router] = restored
        history.append((None, restored.snapshot()))
        return restored

    def history(self, router: str) -> Sequence[Tuple[Optional[ConfigChange], RouterConfig]]:
        return tuple(self._history[router])

    def changes(self, router: str) -> List[ConfigChange]:
        return [c for c, _ in self._history[router] if c is not None]

    def change(self, change_id: int) -> Optional[ConfigChange]:
        """The recorded change with this id, on whichever router."""
        return self._changes.get(change_id)
