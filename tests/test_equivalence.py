"""Tests for grouping prefixes into forwarding equivalence classes (§6)."""

import pytest

from repro.net.addr import Prefix
from repro.scenarios.generators import planted_ec_snapshot
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry
from repro.verify.headerspace import (
    class_of,
    compression_ratio,
    compute_equivalence_classes,
)

P = Prefix.parse("203.0.113.0/24")
Q = Prefix.parse("198.51.100.0/24")


def _snapshot(rows):
    """rows: list of (router, prefix, next_hop)."""
    snapshot = DataPlaneSnapshot()
    for router, prefix, nh in rows:
        snapshot.install(
            SnapshotEntry(router, prefix, nh, "eth0", "ibgp", False, 0, 1.0)
        )
    return snapshot


class TestGrouping:
    def test_identical_prefixes_grouped(self):
        snapshot = _snapshot(
            [("R1", P, "R2"), ("R2", P, "Ext2"),
             ("R1", Q, "R2"), ("R2", Q, "Ext2")]
        )
        classes = compute_equivalence_classes(snapshot)
        assert len(classes) == 1
        assert set(classes[0].covering_prefixes()) == {P, Q}

    def test_divergent_prefixes_split(self):
        snapshot = _snapshot(
            [("R1", P, "R2"), ("R1", Q, "R3")]
        )
        classes = compute_equivalence_classes(snapshot)
        assert len(classes) == 2

    def test_shadowed_covering_prefix_split(self):
        """A /16 at the start of a /8 forwards its own addresses
        elsewhere: the /8 and the /16 are two classes, not one."""
        wide = Prefix.parse("10.0.0.0/8")
        narrow = Prefix.parse("10.0.0.0/16")
        snapshot = _snapshot([("R1", wide, "R2"), ("R1", narrow, "R3")])
        classes = compute_equivalence_classes(snapshot)
        assert len(classes) == 2
        via = {
            cls.behavior[0][1][0]: set(cls.covering_prefixes())
            for cls in classes
        }
        assert via["R3"] == {narrow}
        assert narrow not in via["R2"]
        assert Prefix.parse("10.128.0.0/9") in via["R2"]

    def test_group_of(self):
        snapshot = _snapshot([("R1", P, "R2"), ("R1", Q, "R3")])
        classes = compute_equivalence_classes(snapshot)
        found = class_of(classes, P.first_address())
        assert found is not None and found.contains(P.last_address())
        assert class_of(classes, Prefix.parse("10.0.0.0/8").first_address()) is None

    def test_representative_is_member(self):
        snapshot = _snapshot([("R1", P, "R2"), ("R1", Q, "R2")])
        classes = compute_equivalence_classes(snapshot)
        for cls in classes:
            assert cls.contains(cls.representative)
            assert any(
                prefix.contains_address(cls.representative)
                for prefix in cls.covering_prefixes()
            )

    def test_planted_group_count_recovered(self):
        for planted in (2, 5, 12):
            snapshot, _ = planted_ec_snapshot(
                num_prefixes=120, num_classes=planted, num_routers=6, seed=3
            )
            classes = compute_equivalence_classes(snapshot)
            assert len(classes) == planted

    def test_compression_matches_paper_claim_shape(self):
        """§6: many prefixes, few classes — compression far above 1."""
        snapshot, _ = planted_ec_snapshot(
            num_prefixes=1000, num_classes=10, num_routers=8, seed=0
        )
        classes = compute_equivalence_classes(snapshot)
        prefixes = len(snapshot.all_prefixes())
        assert compression_ratio(classes, prefixes) == pytest.approx(100.0)

    def test_router_subset_coarsens(self):
        snapshot = _snapshot(
            [("R1", P, "R2"), ("R2", P, "Ext2"),
             ("R1", Q, "R2"), ("R2", Q, "R9")]
        )
        all_classes = compute_equivalence_classes(snapshot)
        r1_classes = compute_equivalence_classes(snapshot, routers=["R1"])
        assert len(all_classes) == 2
        assert len(r1_classes) == 1

    def test_empty_snapshot(self):
        assert compute_equivalence_classes(DataPlaneSnapshot()) == []
        assert compression_ratio([], 0) == 0.0
