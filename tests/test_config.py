"""Tests for repro.net.config: route-maps, changes, versioned store."""

import pytest

from repro.net.addr import Prefix
from repro.net.config import (
    BgpNeighborConfig,
    ConfigChange,
    ConfigError,
    ConfigStore,
    OspfInterfaceConfig,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    StaticRouteConfig,
    local_pref_map,
    permit_all_map,
)

P = Prefix.parse("203.0.113.0/24")


class TestRouteMaps:
    def test_permit_all(self):
        clause = permit_all_map().first_match(P)
        assert clause is not None and clause.permit

    def test_local_pref_map(self):
        clause = local_pref_map("lp", 30).first_match(P)
        assert clause.set_local_pref == 30

    def test_implicit_deny(self):
        route_map = RouteMap(
            "m", (RouteMapClause(match_prefix=Prefix.parse("10.0.0.0/8")),)
        )
        assert route_map.first_match(P) is None

    def test_first_match_wins(self):
        route_map = RouteMap(
            "m",
            (
                RouteMapClause(match_prefix=P, set_local_pref=50),
                RouteMapClause(set_local_pref=10),
            ),
        )
        assert route_map.first_match(P).set_local_pref == 50
        other = Prefix.parse("10.0.0.0/8")
        assert route_map.first_match(other).set_local_pref == 10

    def test_exact_match_clause(self):
        clause = RouteMapClause(match_prefix=P, match_exact=True)
        assert clause.matches(P)
        more_specific = Prefix.parse("203.0.113.0/25")
        assert not clause.matches(more_specific)

    def test_covering_match_clause(self):
        clause = RouteMapClause(match_prefix=Prefix.parse("203.0.0.0/16"))
        assert clause.matches(P)


class TestConfigPieces:
    def test_neighbor_external_detection(self):
        neighbor = BgpNeighborConfig(peer="X", remote_asn=65001)
        assert neighbor.is_external(65000)
        assert not neighbor.is_external(65001)

    def test_ospf_cost_must_be_positive(self):
        with pytest.raises(ConfigError):
            OspfInterfaceConfig(interface="eth0", cost=0)

    def test_static_route_needs_target(self):
        with pytest.raises(ConfigError):
            StaticRouteConfig(prefix=P)

    def test_static_discard_ok(self):
        route = StaticRouteConfig(prefix=P, discard=True)
        assert route.discard

    def test_duplicate_neighbor_rejected(self):
        config = RouterConfig(router="R1")
        config.add_bgp_neighbor(BgpNeighborConfig(peer="X", remote_asn=65001))
        with pytest.raises(ConfigError):
            config.add_bgp_neighbor(BgpNeighborConfig(peer="X", remote_asn=65001))

    def test_unknown_route_map_lookup(self):
        config = RouterConfig(router="R1")
        with pytest.raises(ConfigError):
            config.route_map("nope")

    def test_none_route_map_is_none(self):
        assert RouterConfig(router="R1").route_map(None) is None


class TestConfigChange:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ConfigChange("R1", "explode")

    def test_wrong_router_rejected(self):
        config = RouterConfig(router="R1")
        change = ConfigChange("R2", "set_originated", value=[])
        with pytest.raises(ConfigError):
            change.apply_to(config)

    def test_set_route_map_records_previous(self):
        config = RouterConfig(router="R1")
        config.add_route_map(local_pref_map("lp", 30))
        change = ConfigChange(
            "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
        )
        config.apply(change)
        assert change.previous.clauses[0].set_local_pref == 30
        assert config.route_maps["lp"].clauses[0].set_local_pref == 10

    def test_inverted_restores_route_map(self):
        config = RouterConfig(router="R1")
        config.add_route_map(local_pref_map("lp", 30))
        change = ConfigChange(
            "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
        )
        config.apply(change)
        config.apply(change.inverted())
        assert config.route_maps["lp"].clauses[0].set_local_pref == 30

    def test_invert_creation_fails(self):
        config = RouterConfig(router="R1")
        change = ConfigChange(
            "R1", "set_route_map", key="new", value=permit_all_map("new")
        )
        config.apply(change)
        with pytest.raises(ConfigError):
            change.inverted()

    def test_neighbor_roundtrip(self):
        config = RouterConfig(router="R1")
        original = BgpNeighborConfig(peer="X", remote_asn=65001)
        config.add_bgp_neighbor(original)
        change = ConfigChange("R1", "remove_neighbor", key="X")
        config.apply(change)
        assert "X" not in config.bgp_neighbors
        config.apply(change.inverted())
        assert config.bgp_neighbors["X"] == original

    def test_set_neighbor_invert_to_removal(self):
        config = RouterConfig(router="R1")
        change = ConfigChange(
            "R1",
            "set_neighbor",
            key="X",
            value=BgpNeighborConfig(peer="X", remote_asn=65001),
        )
        config.apply(change)
        inverse = change.inverted()
        assert inverse.kind == "remove_neighbor"
        config.apply(inverse)
        assert "X" not in config.bgp_neighbors

    def test_originated_roundtrip(self):
        config = RouterConfig(router="R1", originated_prefixes=[P])
        change = ConfigChange("R1", "set_originated", value=[])
        config.apply(change)
        assert config.originated_prefixes == []
        config.apply(change.inverted())
        assert config.originated_prefixes == [P]

    def test_static_roundtrip(self):
        original = [StaticRouteConfig(prefix=P, discard=True)]
        config = RouterConfig(router="R1", static_routes=list(original))
        change = ConfigChange("R1", "set_static", value=[])
        config.apply(change)
        assert config.static_routes == []
        config.apply(change.inverted())
        assert config.static_routes == original

    def test_ospf_cost_roundtrip(self):
        config = RouterConfig(router="R1")
        config.ospf_interfaces["eth0"] = OspfInterfaceConfig("eth0", cost=10)
        change = ConfigChange("R1", "set_ospf_cost", key="eth0", value=99)
        config.apply(change)
        assert config.ospf_interfaces["eth0"].cost == 99
        config.apply(change.inverted())
        assert config.ospf_interfaces["eth0"].cost == 10

    def test_ospf_cost_unknown_interface(self):
        config = RouterConfig(router="R1")
        change = ConfigChange("R1", "set_ospf_cost", key="eth9", value=5)
        with pytest.raises(ConfigError):
            config.apply(change)

    def test_change_ids_unique(self):
        a = ConfigChange("R1", "set_originated", value=[])
        b = ConfigChange("R1", "set_originated", value=[])
        assert a.change_id != b.change_id


class TestConfigStore:
    def _store(self):
        config = RouterConfig(router="R1")
        config.add_route_map(local_pref_map("lp", 30))
        return ConfigStore([config])

    def test_duplicate_config_rejected(self):
        with pytest.raises(ConfigError):
            ConfigStore([RouterConfig(router="R1"), RouterConfig(router="R1")])

    def test_unknown_router(self):
        with pytest.raises(ConfigError):
            self._store().get("R9")

    def test_apply_bumps_version(self):
        store = self._store()
        assert store.version_of("R1") == 0
        store.apply(
            ConfigChange(
                "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
            )
        )
        assert store.version_of("R1") == 1

    def test_revert_change(self):
        store = self._store()
        change = ConfigChange(
            "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
        )
        store.apply(change)
        store.revert_change(change)
        assert store.get("R1").route_maps["lp"].clauses[0].set_local_pref == 30

    def test_revert_to_version(self):
        store = self._store()
        store.apply(
            ConfigChange(
                "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
            )
        )
        store.apply(
            ConfigChange(
                "R1", "set_route_map", key="lp", value=local_pref_map("lp", 5)
            )
        )
        store.revert_to_version("R1", 0)
        assert store.get("R1").route_maps["lp"].clauses[0].set_local_pref == 30
        # The revert itself created a new version.
        assert store.version_of("R1") == 3

    def test_revert_to_bad_version(self):
        with pytest.raises(ConfigError):
            self._store().revert_to_version("R1", 5)

    def test_history_snapshots_are_isolated(self):
        store = self._store()
        store.apply(
            ConfigChange(
                "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
            )
        )
        _, v0 = store.history("R1")[0]
        assert v0.route_maps["lp"].clauses[0].set_local_pref == 30

    def test_changes_list(self):
        store = self._store()
        change = ConfigChange(
            "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
        )
        store.apply(change)
        assert store.changes("R1") == [change]

    def test_change_lookup_by_id_covers_every_router_and_reverts(self):
        other = RouterConfig(router="R2")
        other.add_route_map(local_pref_map("lp", 30))
        store = ConfigStore([self._store().get("R1"), other])
        first = ConfigChange(
            "R1", "set_route_map", key="lp", value=local_pref_map("lp", 10)
        )
        second = ConfigChange(
            "R2", "set_route_map", key="lp", value=local_pref_map("lp", 5)
        )
        store.apply(first)
        store.apply(second)
        inverse = store.revert_change(second)
        assert store.change(first.change_id) is first
        assert store.change(second.change_id) is second
        assert store.change(inverse.change_id) is inverse
        unknown = max(c.change_id for c in (first, second, inverse)) + 1000
        assert store.change(unknown) is None
