"""Tests for RIB layers (repro.protocols.rib) and route records."""

from repro.net.addr import Prefix
from repro.protocols.rib import BgpRib, OspfRib
from repro.protocols.routes import BgpRoute, ConnectedRoute, OspfRoute, Origin

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


def _route(prefix=P, **kwargs):
    defaults = dict(prefix=prefix, next_hop=1, from_peer="X")
    defaults.update(kwargs)
    return BgpRoute(**defaults)


class TestBgpRibAdjIn:
    def test_update_then_paths_for(self):
        rib = BgpRib()
        rib.update_in("X", _route())
        assert len(rib.paths_for(P)) == 1

    def test_update_replaces_same_path_id(self):
        rib = BgpRib()
        rib.update_in("X", _route(local_pref=10))
        rib.update_in("X", _route(local_pref=20))
        paths = rib.paths_for(P)
        assert len(paths) == 1 and paths[0].local_pref == 20

    def test_add_path_keeps_distinct_ids(self):
        rib = BgpRib(add_path=True)
        rib.update_in("X", _route(path_id=0))
        rib.update_in("X", _route(path_id=1, next_hop=2))
        assert len(rib.paths_for(P)) == 2

    def test_paths_accumulate_across_peers(self):
        rib = BgpRib()
        rib.update_in("X", _route())
        rib.update_in("Y", _route(from_peer="Y", next_hop=2))
        assert len(rib.paths_for(P)) == 2

    def test_withdraw_in(self):
        rib = BgpRib()
        rib.update_in("X", _route())
        assert rib.withdraw_in("X", P)
        assert rib.paths_for(P) == []

    def test_withdraw_missing_returns_false(self):
        assert not BgpRib().withdraw_in("X", P)

    def test_withdraw_specific_path_id(self):
        rib = BgpRib(add_path=True)
        rib.update_in("X", _route(path_id=0))
        rib.update_in("X", _route(path_id=1, next_hop=2))
        assert rib.withdraw_in("X", P, path_id=1)
        remaining = rib.paths_for(P)
        assert len(remaining) == 1 and remaining[0].path_id == 0

    def test_drop_peer_returns_prefixes(self):
        rib = BgpRib()
        rib.update_in("X", _route())
        rib.update_in("X", _route(prefix=Q))
        assert rib.drop_peer("X") == sorted([P, Q])
        assert rib.paths_for(P) == []

    def test_known_prefixes(self):
        rib = BgpRib()
        rib.update_in("X", _route())
        rib.set_best(_route(prefix=Q))
        assert rib.known_prefixes() == {P, Q}


class TestBgpRibLoc:
    def test_set_best_returns_old(self):
        rib = BgpRib()
        first = _route(local_pref=10)
        second = _route(local_pref=20)
        assert rib.set_best(first) is None
        assert rib.set_best(second) == first
        assert rib.best(P) == second

    def test_clear_best(self):
        rib = BgpRib()
        rib.set_best(_route())
        assert rib.clear_best(P) is not None
        assert rib.best(P) is None

    def test_loc_rib_copy(self):
        rib = BgpRib()
        rib.set_best(_route())
        loc = rib.loc_rib()
        loc.clear()
        assert rib.best(P) is not None


class TestBgpRibAdjOut:
    def test_record_and_read(self):
        rib = BgpRib()
        routes = (_route(),)
        rib.record_advertised("X", P, routes)
        assert rib.last_advertised("X", P) == routes

    def test_empty_tuple_clears(self):
        rib = BgpRib()
        rib.record_advertised("X", P, (_route(),))
        rib.record_advertised("X", P, ())
        assert rib.last_advertised("X", P) == ()

    def test_record_withdrawn(self):
        rib = BgpRib()
        rib.record_advertised("X", P, (_route(),))
        withdrawn = rib.record_withdrawn("X", P)
        assert len(withdrawn) == 1
        assert rib.last_advertised("X", P) == ()

    def test_advertised_prefixes(self):
        rib = BgpRib()
        rib.record_advertised("X", P, (_route(),))
        rib.record_advertised("X", Q, (_route(prefix=Q),))
        assert rib.advertised_prefixes("X") == sorted([P, Q])


class TestOspfRib:
    def _r(self, prefix=P, metric=10, hop="R2"):
        return OspfRoute(prefix=prefix, next_hop=0, next_hop_router=hop, metric=metric)

    def test_replace_all_diff(self):
        rib = OspfRib()
        added, removed, changed = rib.replace_all([self._r()])
        assert len(added) == 1 and not removed and not changed

    def test_replace_detects_removal(self):
        rib = OspfRib()
        rib.replace_all([self._r()])
        added, removed, changed = rib.replace_all([])
        assert not added and len(removed) == 1 and not changed

    def test_replace_detects_change(self):
        rib = OspfRib()
        rib.replace_all([self._r(metric=10)])
        added, removed, changed = rib.replace_all([self._r(metric=20)])
        assert not added and not removed and len(changed) == 1
        old, new = changed[0]
        assert old.metric == 10 and new.metric == 20

    def test_replace_keeps_lowest_metric_duplicate(self):
        rib = OspfRib()
        rib.replace_all([self._r(metric=20), self._r(metric=5, hop="R3")])
        assert rib.get(P).metric == 5

    def test_metric_to(self):
        rib = OspfRib()
        rib.replace_all([self._r(metric=7)])
        assert rib.metric_to(P.first_address()) == 7
        assert rib.metric_to(Q.first_address()) is None

    def test_metric_to_prefers_specific(self):
        rib = OspfRib()
        wide = OspfRoute(
            prefix=Prefix.parse("203.0.0.0/16"),
            next_hop=0,
            next_hop_router="R2",
            metric=50,
        )
        rib.replace_all([wide, self._r(metric=7)])
        assert rib.metric_to(P.first_address()) == 7


class TestRouteRecords:
    def test_bgp_rib_protocol_split(self):
        assert _route(ebgp_learned=True).rib_protocol == "ebgp"
        assert _route(ebgp_learned=False).rib_protocol == "ibgp"
        assert _route(locally_originated=True).rib_protocol == "ebgp"

    def test_neighbor_as_from_path(self):
        assert _route(as_path=(65001, 65002)).neighbor_as() == 65001

    def test_neighbor_as_fallback_to_peer(self):
        assert _route(as_path=(), peer_asn=65009).neighbor_as() == 65009

    def test_with_igp_metric(self):
        assert _route().with_igp_metric(42).igp_metric == 42

    def test_origin_ordering(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE

    def test_describe_mentions_essentials(self):
        text = _route(local_pref=30).describe()
        assert "lp=30" in text and str(P) in text

    def test_connected_route_str(self):
        route = ConnectedRoute(prefix=P, interface="eth0")
        assert "eth0" in str(route)
