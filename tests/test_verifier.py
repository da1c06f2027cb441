"""Tests for the centralized verifier and its incremental mode."""

import pytest

from repro.net.addr import Prefix
from repro.net.topology import paper_topology
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry
from repro.verify.policy import LoopFreedomPolicy, PreferredExitPolicy
from repro.verify.verifier import DataPlaneVerifier

P = Prefix.parse("203.0.113.0/24")


def _entry(router, nh, discard=False, prefix=P):
    return SnapshotEntry(router, prefix, nh, "eth0", "ibgp", discard, 0, 1.0)


def _snapshot(entries):
    snapshot = DataPlaneSnapshot()
    for router, nh in entries:
        snapshot.install(_entry(router, nh))
    return snapshot


@pytest.fixture
def topo():
    return paper_topology()


@pytest.fixture
def exit_policy():
    return PreferredExitPolicy(
        prefix=P,
        preferred_exit="R2",
        fallback_exit="R1",
        uplink_of={"R2": "Ext2", "R1": "Ext1"},
    )


GOOD = [("R1", "R2"), ("R2", "Ext2"), ("R3", "R2")]
BAD_EXIT = [("R1", "Ext1"), ("R2", "R1"), ("R3", "R1")]


class TestVerify:
    def test_ok_result(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy, LoopFreedomPolicy()])
        result = verifier.verify(_snapshot(GOOD))
        assert result.ok
        assert result.policies_checked == 2
        assert result.wall_seconds >= 0

    def test_violations_reported(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        result = verifier.verify(_snapshot(BAD_EXIT))
        assert not result.ok
        assert result.by_policy()["preferred-exit"]

    def test_equivalence_class_mode_counts(self, topo, exit_policy):
        verifier = DataPlaneVerifier(
            topo, [exit_policy], use_equivalence_classes=True
        )
        result = verifier.verify(_snapshot(GOOD))
        assert result.equivalence_classes == 1

    def test_probe_count_is_what_each_policy_probed(self, topo, exit_policy):
        """Scoped and single-prefix policies probe fewer addresses than
        the snapshot holds prefixes; ``probe_count`` used to add the
        default probe set (all three prefixes here) for each of them."""
        snapshot = _snapshot(GOOD)
        for other in ("10.0.0.0/8", "192.168.0.0/16"):
            snapshot.install(_entry("R1", "R2", prefix=Prefix.parse(other)))
        scoped = LoopFreedomPolicy(prefixes=[P, Prefix.parse("10.0.0.0/8")])
        verifier = DataPlaneVerifier(
            topo, [exit_policy, scoped, LoopFreedomPolicy()]
        )
        assert verifier.verify(snapshot).probe_count == 1 + 2 + 3

    def test_str(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        assert "OK" in str(verifier.verify(_snapshot(GOOD)))


class TestIncremental:
    def test_hypothetical_copy_does_not_mutate(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        snapshot = _snapshot(GOOD)
        clone = verifier.with_hypothetical_entry(
            snapshot, _entry("R1", "Ext1"), "R1", P
        )
        assert snapshot.entry("R1", P).next_hop_router == "R2"
        assert clone.entry("R1", P).next_hop_router == "Ext1"

    def test_hypothetical_removal(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        clone = verifier.with_hypothetical_entry(_snapshot(GOOD), None, "R1", P)
        assert clone.entry("R1", P) is None

    def test_bad_update_introduces_violation(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        introduced, _result = verifier.new_violations_from(
            _snapshot(GOOD), _entry("R1", "Ext1"), "R1", P
        )
        assert introduced
        assert introduced[0].policy == "preferred-exit"

    def test_convergence_step_not_blamed(self, topo, exit_policy):
        """An update that *fixes* things introduces no violations even
        if other violations remain."""
        verifier = DataPlaneVerifier(topo, [exit_policy])
        broken = _snapshot(BAD_EXIT)
        # R3 flips back toward R2: strictly an improvement.
        introduced, _ = verifier.new_violations_from(
            broken, _entry("R3", "R2"), "R3", P
        )
        assert introduced == []

    def test_neutral_update_not_blamed(self, topo, exit_policy):
        verifier = DataPlaneVerifier(topo, [exit_policy])
        introduced, _ = verifier.new_violations_from(
            _snapshot(GOOD), _entry("R3", "R2"), "R3", P
        )
        assert introduced == []

    def test_loop_introduction_detected(self, topo):
        verifier = DataPlaneVerifier(topo, [LoopFreedomPolicy(prefixes=[P])])
        snapshot = _snapshot([("R1", "R2"), ("R2", "Ext2"), ("R3", "R2")])
        introduced, _ = verifier.new_violations_from(
            snapshot, _entry("R2", "R1"), "R2", P
        )
        assert introduced and introduced[0].policy == "loop-freedom"
