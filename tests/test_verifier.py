"""Tests for the centralized verifier and the per-delta what-if."""

import pytest

from repro.capture.io_events import IOEvent, IOKind, RouteAction
from repro.net.addr import Prefix
from repro.net.topology import paper_topology
from repro.snapshot.base import DataPlaneSnapshot, SnapshotEntry
from repro.verify.incremental import IncrementalVerifier
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)
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


def _incremental(topo, policies, entries):
    """An :class:`IncrementalVerifier` fed ``entries`` as FIB deltas —
    the state the Fig. 3 guard asks its what-ifs of."""
    verifier = IncrementalVerifier(
        ("R1", "R2", "R3"), topology=topo, policies=policies
    )
    streaming = verifier.engine.streaming()
    verifier.attach(streaming)
    for t, (router, nh) in enumerate(entries, 1):
        streaming.observe(
            IOEvent.create(
                router,
                IOKind.FIB_UPDATE,
                float(t),
                protocol="ibgp",
                prefix=P,
                action=RouteAction.ANNOUNCE,
                attrs={"next_hop_router": nh},
            )
        )
    return verifier


class TestIncremental:
    def test_hypothetical_copy_does_not_mutate(self, topo, exit_policy):
        verifier = _incremental(topo, [exit_policy], GOOD)
        held = verifier.snapshot.entry("R1", P)
        assert verifier.what_if("R1", P, _entry("R1", "Ext1"))
        assert verifier.snapshot.entry("R1", P) is held
        assert held.next_hop_router == "R2"
        assert verifier.violations() == []

    def test_hypothetical_removal(self, topo, exit_policy):
        policies = [exit_policy, BlackholeFreedomPolicy(prefixes=[P])]
        verifier = _incremental(topo, policies, GOOD)
        held = verifier.snapshot.entry("R2", P)
        introduced = verifier.what_if("R2", P, None)
        # R1 and R3 exit through R2; without its entry they blackhole.
        assert {v.router for v in introduced} == {"R1", "R3"}
        assert verifier.snapshot.entry("R2", P) is held
        assert verifier.violations() == []

    def test_bad_update_introduces_violation(self, topo, exit_policy):
        verifier = _incremental(topo, [exit_policy], GOOD)
        introduced = verifier.what_if("R1", P, _entry("R1", "Ext1"))
        assert introduced
        assert introduced[0].policy == "preferred-exit"

    def test_convergence_step_not_blamed(self, topo, exit_policy):
        """An update that *fixes* things introduces no violations even
        if other violations remain."""
        verifier = _incremental(topo, [exit_policy], BAD_EXIT)
        assert verifier.violations()
        # R3 flips back toward R2: strictly an improvement.
        assert verifier.what_if("R3", P, _entry("R3", "R2")) == []

    def test_neutral_update_not_blamed(self, topo, exit_policy):
        verifier = _incremental(topo, [exit_policy], GOOD)
        assert verifier.what_if("R3", P, _entry("R3", "R2")) == []

    def test_loop_introduction_detected(self, topo):
        verifier = _incremental(
            topo,
            [LoopFreedomPolicy(prefixes=[P])],
            [("R1", "R2"), ("R2", "Ext2"), ("R3", "R2")],
        )
        introduced = verifier.what_if("R2", P, _entry("R2", "R1"))
        assert introduced and introduced[0].policy == "loop-freedom"
