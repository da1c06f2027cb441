"""Root-cause rollback (§6, "Reverting the root cause event").

    "We would therefore automatically revert it and report the
    configuration change as problematic to the operator.  If the
    change was intended, the operator can simply adapt the policy
    accordingly."

:class:`RepairEngine` connects provenance results to the versioned
configuration store: for each actionable root cause that is a config
change, it applies the inverse change through the live network (so
the revert propagates like any other control-plane input), waits for
re-convergence, and re-verifies.  §8's correctness preconditions —
HBR precision and deterministic control-plane execution — are
surfaced in the report rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.capture.io_events import IOEvent, IOKind
from repro.net.config import ConfigChange
from repro.repair.provenance import ProvenanceResult
from repro.snapshot.base import DataPlaneSnapshot
from repro.verify.verifier import DataPlaneVerifier, VerificationResult


@dataclass
class RepairAction:
    """One revert applied (or attempted)."""

    root_cause: IOEvent
    change_reverted: Optional[ConfigChange]
    inverse_applied: Optional[ConfigChange]
    succeeded: bool
    note: str = ""

    def __str__(self) -> str:
        status = "ok" if self.succeeded else "FAILED"
        return f"RepairAction[{status}] {self.root_cause.describe()} ({self.note})"


@dataclass
class RepairReport:
    """Outcome of one repair attempt."""

    actions: List[RepairAction]
    #: Verification result after re-convergence (None if no action).
    post_verification: Optional[VerificationResult]
    converge_seconds: float = 0.0
    #: Environmental causes that could not be repaired (§8 limitation).
    unrepairable: List[IOEvent] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        return (
            any(a.succeeded for a in self.actions)
            and self.post_verification is not None
            and self.post_verification.ok
        )

    def describe(self) -> str:
        lines = ["repair report:"]
        for action in self.actions:
            lines.append(f"  {action}")
        for event in self.unrepairable:
            lines.append(f"  unrepairable: {event.describe()}")
        if self.post_verification is not None:
            lines.append(f"  post-verify: {self.post_verification}")
        return "\n".join(lines)


class RepairEngine:
    """Applies root-cause reverts to a live network and re-verifies.

    ``snapshotters`` registers cache-holding verification components —
    :class:`~repro.snapshot.consistent.ConsistentSnapshotter` instances
    fed incrementally and :class:`~repro.verify.incremental.IncrementalVerifier`
    wrappers — whose ``invalidate()`` is called after any revert is
    applied.  A revert re-converges the network and later replays
    re-use event ids, so every memo keyed by event id or
    (router, prefix) may silently describe a different event; failing
    to invalidate serves stale closures (the cache-coherence hazard
    docs/INCREMENTAL_VERIFY.md documents and
    tests/test_verify_incremental.py reproduces).
    """

    def __init__(
        self,
        network,
        verifier: DataPlaneVerifier,
        snapshotters: Sequence = (),
    ):
        self.network = network
        self.verifier = verifier
        self.snapshotters = list(snapshotters)

    def repair(
        self,
        provenance: ProvenanceResult,
        settle: float = 60.0,
        only_change_ids: Optional[set] = None,
    ) -> RepairReport:
        """Revert every actionable config root cause, then re-verify.

        Hardware root causes (a link that died) are reported as
        unrepairable — software cannot splice fibre — as are
        environmental causes, matching §8: "when a route is withdrawn
        because a link goes down ... blocking the withdrawal would
        have no good effects".

        ``only_change_ids`` restricts reverts to that set — the
        pipeline uses it to avoid re-reverting changes it already
        handled (or reverting its own reverts).
        """
        actions: List[RepairAction] = []
        unrepairable = list(provenance.environmental_causes)
        for cause in provenance.actionable_causes:
            if cause.kind is IOKind.HARDWARE_STATUS:
                unrepairable.append(cause)
                continue
            change_id = cause.attr("change_id")
            if (
                only_change_ids is not None
                and change_id is not None
                and int(change_id) not in only_change_ids
            ):
                continue
            if change_id is None:
                actions.append(
                    RepairAction(
                        root_cause=cause,
                        change_reverted=None,
                        inverse_applied=None,
                        succeeded=False,
                        note="config event carries no change id",
                    )
                )
                continue
            change = self.network.configs.change(int(change_id))
            if change is None:
                actions.append(
                    RepairAction(
                        root_cause=cause,
                        change_reverted=None,
                        inverse_applied=None,
                        succeeded=False,
                        note=f"change #{change_id} not in config store",
                    )
                )
                continue
            try:
                inverse = change.inverted()
            except Exception as error:  # noqa: BLE001 - reported, not raised
                actions.append(
                    RepairAction(
                        root_cause=cause,
                        change_reverted=change,
                        inverse_applied=None,
                        succeeded=False,
                        note=f"cannot invert: {error}",
                    )
                )
                continue
            self.network.apply_config_change(inverse)
            actions.append(
                RepairAction(
                    root_cause=cause,
                    change_reverted=change,
                    inverse_applied=inverse,
                    succeeded=True,
                    note=f"reverted {change}",
                )
            )
        if any(a.succeeded for a in actions):
            # The revert invalidates every registered verification
            # cache *before* any re-verification or replay consumes
            # post-revert events.
            for snapshotter in self.snapshotters:
                snapshotter.invalidate()
        post: Optional[VerificationResult] = None
        converge_seconds = 0.0
        # settle == 0 means the caller is inside a running simulation
        # event (the pipeline guard): the revert will propagate as the
        # simulation continues, and re-verification is the caller's job.
        if any(a.succeeded for a in actions) and settle > 0:
            before = self.network.sim.now
            self.network.run(settle)
            converge_seconds = self.network.sim.now - before
            snapshot = DataPlaneSnapshot.from_live_network(self.network)
            post = self.verifier.verify(snapshot)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("repair.reverts_applied_total").inc(
                sum(1 for a in actions if a.succeeded)
            )
            registry.counter("repair.reverts_failed_total").inc(
                sum(1 for a in actions if not a.succeeded)
            )
            registry.counter("repair.unrepairable_total").inc(
                len(unrepairable)
            )
            if converge_seconds:
                registry.histogram("repair.converge_sim_seconds").observe(
                    converge_seconds
                )
        verdicts = obs.get_verdicts()
        if verdicts.enabled:
            reverted = sum(1 for a in actions if a.succeeded)
            root_refs = tuple(
                sorted(
                    {a.root_cause.event_id for a in actions if a.succeeded}
                    | {provenance.target.event_id}
                )
            )
            verdicts.record(
                kind="rollback",
                at=self.network.sim.now,
                ok=post.ok if post is not None else bool(reverted),
                event_id=provenance.target.event_id,
                event_time=provenance.target.timestamp,
                detail="; ".join(a.note for a in actions if a.succeeded)
                or "no revert applied",
                violations=len(post.violations) if post is not None else 0,
                refs=root_refs,
                reverted=reverted,
                failed=sum(1 for a in actions if not a.succeeded),
                unrepairable=len(unrepairable),
            )
        return RepairReport(
            actions=actions,
            post_verification=post,
            converge_seconds=converge_seconds,
            unrepairable=unrepairable,
        )
