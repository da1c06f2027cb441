"""The centralized data-plane verifier.

Checks a list of policies against a snapshot, probing every address
each policy names.  This is the batch reference; the per-delta path
(and the Fig. 3 guard's what-if) is
:class:`repro.verify.incremental.IncrementalVerifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.net.topology import Topology
from repro.snapshot.base import DataPlaneSnapshot
from repro.verify.policy import Policy, Violation


@dataclass
class VerificationResult:
    """Violations plus cost instrumentation."""

    violations: List[Violation]
    policies_checked: int
    probe_count: int
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_policy(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.policy, []).append(violation)
        return grouped

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"VerificationResult[{status}, {self.policies_checked} policies, "
            f"{self.probe_count} probes, {self.wall_seconds * 1000:.2f}ms]"
        )


def _provenance_refs(
    snapshot: DataPlaneSnapshot, violations: Sequence[Violation]
) -> Tuple[int, ...]:
    """HBG event ids of the FIB entries behind ``violations``.

    Each violated flow's forwarding decisions live in snapshot
    entries, and every entry carries the ``source_event_id`` of the
    FIB_UPDATE it was reconstructed from — the refs a §6 provenance
    walk starts from.
    """
    refs: set = set()
    for violation in violations:
        for router in violation.path or (
            (violation.router,) if violation.router else ()
        ):
            if router is None or not snapshot.has_router(router):
                continue
            for entry in snapshot.entries_of(router):
                if violation.prefix is not None and (
                    entry.prefix.last_address()
                    < violation.prefix.first_address()
                    or violation.prefix.last_address()
                    < entry.prefix.first_address()
                ):
                    continue
                if entry.source_event_id:
                    refs.add(entry.source_event_id)
    return tuple(sorted(refs))


class DataPlaneVerifier:
    """Centralized verification over reconstructed snapshots."""

    def __init__(self, topology: Topology, policies: Sequence[Policy]):
        self.topology = topology
        self.policies = list(policies)

    def verify(self, snapshot: DataPlaneSnapshot) -> VerificationResult:
        # Unconditional real stopwatch: wall_seconds is part of the
        # result contract, not just a metric.
        watch = obs.Stopwatch()
        violations: List[Violation] = []
        probes = 0
        for policy in self.policies:
            addresses = policy.probe_addresses(snapshot)
            violations.extend(
                policy.check_addresses(snapshot, self.topology, addresses)
            )
            probes += len(addresses)
        elapsed = watch.elapsed()
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("verify.verifications_total").inc()
            registry.counter("verify.violations_found_total").inc(
                len(violations)
            )
            registry.histogram("verify.verify_seconds").observe(elapsed)
            registry.histogram("verify.probe_count").observe(probes)
        verdicts = obs.get_verdicts()
        if verdicts.enabled:
            verdicts.record(
                kind="snapshot",
                at=snapshot.taken_at if snapshot.taken_at is not None else 0.0,
                ok=not violations,
                detail="ok" if not violations else "violations",
                violations=len(violations),
                refs=_provenance_refs(snapshot, violations),
                violation_detail=[
                    {
                        "policy": v.policy,
                        "prefix": str(v.prefix) if v.prefix else None,
                        "router": v.router,
                    }
                    for v in violations
                ],
            )
        return VerificationResult(
            violations=violations,
            policies_checked=len(self.policies),
            probe_count=probes,
            wall_seconds=elapsed,
        )
