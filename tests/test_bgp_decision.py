"""Tests for the BGP decision process and vendor profiles."""

import pytest

from repro.net.addr import Prefix
from repro.protocols.bgp_decision import (
    VendorProfile,
    best_path,
    compare_med_always,
    compare_med_same_as,
    compare_oldest,
    rank_paths,
)
from repro.protocols.routes import BgpRoute, Origin

P = Prefix.parse("203.0.113.0/24")


def _route(**kwargs):
    defaults = dict(prefix=P, next_hop=1)
    defaults.update(kwargs)
    return BgpRoute(**defaults)


@pytest.fixture
def cisco():
    return VendorProfile.cisco()


@pytest.fixture
def juniper():
    return VendorProfile.juniper()


class TestIndividualSteps:
    def test_local_pref_higher_wins(self, cisco):
        low = _route(local_pref=20)
        high = _route(local_pref=30)
        assert best_path([low, high], cisco) == high

    def test_weight_beats_local_pref_on_cisco(self, cisco):
        weighted = _route(weight=100, local_pref=10)
        preferred = _route(local_pref=200)
        assert best_path([weighted, preferred], cisco) == weighted

    def test_juniper_has_no_weight_step(self, juniper):
        weighted = _route(weight=100, local_pref=10)
        preferred = _route(local_pref=200)
        assert best_path([weighted, preferred], juniper) == preferred

    def test_locally_originated_beats_learned(self, cisco):
        local = _route(locally_originated=True)
        learned = _route(from_peer="X")
        assert best_path([learned, local], cisco) == local

    def test_shorter_as_path_wins(self, cisco):
        short = _route(as_path=(65001,))
        long = _route(as_path=(65001, 65002))
        assert best_path([long, short], cisco) == short

    def test_lower_origin_wins(self, cisco):
        igp = _route(origin=Origin.IGP, as_path=(65001,))
        incomplete = _route(origin=Origin.INCOMPLETE, as_path=(65002,))
        assert best_path([incomplete, igp], cisco) == igp

    def test_med_compared_within_same_neighbor_as(self):
        a = _route(as_path=(65001,), med=10)
        b = _route(as_path=(65001,), med=5)
        assert compare_med_same_as(a, b) > 0

    def test_med_ignored_across_different_as(self):
        a = _route(as_path=(65001,), med=10)
        b = _route(as_path=(65002,), med=5)
        assert compare_med_same_as(a, b) == 0
        assert compare_med_always(a, b) > 0

    def test_ebgp_beats_ibgp(self, cisco):
        ebgp = _route(ebgp_learned=True)
        ibgp = _route(ebgp_learned=False)
        assert best_path([ibgp, ebgp], cisco) == ebgp

    def test_lower_igp_metric_wins(self, cisco):
        near = _route(ebgp_learned=False, igp_metric=5)
        far = _route(ebgp_learned=False, igp_metric=50)
        assert best_path([far, near], cisco) == near

    def test_oldest_only_applies_to_ebgp_pairs(self):
        older = _route(ebgp_learned=True, received_at=1.0)
        newer = _route(ebgp_learned=True, received_at=2.0)
        assert compare_oldest(older, newer) < 0
        mixed = _route(ebgp_learned=False, received_at=0.5)
        assert compare_oldest(mixed, newer) == 0

    def test_router_id_tiebreak(self, cisco):
        low_id = _route(peer_router_id=1)
        high_id = _route(peer_router_id=9)
        assert best_path([high_id, low_id], cisco) == low_id

    def test_peer_address_final_tiebreak(self, cisco):
        a = _route(peer_address=10)
        b = _route(peer_address=20)
        assert best_path([b, a], cisco) == a


class TestVendorDifferences:
    def test_cisco_prefers_oldest_ebgp_route(self, cisco):
        """The arrival-order quirk: same attributes, different arrival."""
        older = _route(ebgp_learned=True, received_at=1.0, peer_router_id=9)
        newer = _route(ebgp_learned=True, received_at=2.0, peer_router_id=1)
        assert best_path([older, newer], cisco) == older

    def test_juniper_ignores_arrival_order(self, juniper):
        older = _route(ebgp_learned=True, received_at=1.0, peer_router_id=9)
        newer = _route(ebgp_learned=True, received_at=2.0, peer_router_id=1)
        # Junos goes straight to router-id: the lower id wins.
        assert best_path([older, newer], juniper) == newer

    def test_vendors_can_disagree(self, cisco, juniper):
        older = _route(ebgp_learned=True, received_at=1.0, peer_router_id=9)
        newer = _route(ebgp_learned=True, received_at=2.0, peer_router_id=1)
        assert best_path([older, newer], cisco) != best_path(
            [older, newer], juniper
        )

    def test_for_vendor_lookup(self):
        assert VendorProfile.for_vendor("cisco").name == "cisco"
        assert VendorProfile.for_vendor("juniper").name == "juniper"
        with pytest.raises(ValueError):
            VendorProfile.for_vendor("vendorx")


class TestDeterminism:
    def test_deterministic_profile_drops_oldest(self, cisco):
        deterministic = cisco.deterministic()
        assert "oldest" not in deterministic.step_names

    def test_deterministic_profile_is_order_independent(self, cisco):
        deterministic = cisco.deterministic()
        a = _route(ebgp_learned=True, received_at=1.0, peer_router_id=9)
        b = _route(ebgp_learned=True, received_at=2.0, peer_router_id=1)
        assert best_path([a, b], deterministic) == best_path(
            [b, a], deterministic
        )

    def test_cisco_is_order_dependent_without_addpath(self, cisco):
        """Arrival order changes received_at, and with it the winner —
        the §8 nondeterminism Add-Path exists to remove."""
        first_arrival = _route(ebgp_learned=True, received_at=1.0, peer_router_id=9)
        second_arrival = _route(ebgp_learned=True, received_at=2.0, peer_router_id=9)
        # Identical except arrival: whichever arrived first wins.
        assert best_path([first_arrival, second_arrival], cisco) == first_arrival

    def test_without_removes_step(self, cisco):
        stripped = cisco.without("med")
        assert "med" not in stripped.step_names
        with pytest.raises(ValueError):
            cisco.without("not-a-step")

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            VendorProfile("bad", ("no-such-step",))


class TestRankAndExplain:
    def test_rank_paths_best_first(self, cisco):
        best = _route(local_pref=300)
        middle = _route(local_pref=200)
        worst = _route(local_pref=100)
        ranked = rank_paths([worst, best, middle], cisco)
        assert ranked == [best, middle, worst]

    def test_explain_names_deciding_step(self, cisco):
        a = _route(local_pref=300)
        b = _route(local_pref=100)
        result, step = cisco.explain(a, b)
        assert result < 0 and step == "local_pref"

    def test_explain_identical_routes(self, cisco):
        a = _route()
        result, step = cisco.explain(a, a)
        assert result == 0 and step is None

    def test_best_path_empty(self, cisco):
        assert best_path([], cisco) is None

    def test_best_path_single(self, cisco):
        only = _route()
        assert best_path([only], cisco) == only
