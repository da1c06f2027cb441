"""Repairing policy violations via the HBG (§6).

Two repair strategies "in increasing order of sophistication":

1. :mod:`repro.repair.blocking` — the strawman §2 warns about:
   block the problematic FIB updates.  Demonstrably dangerous (the
   Fig. 2b black hole) but included as the baseline.
2. :mod:`repro.repair.provenance` + :mod:`repro.repair.rollback` —
   trace a problematic FIB update backwards through the HBG to its
   leaf root cause(s) and revert the causing configuration change
   using the versioned config store.

Repair acts only on evidence: a change is reverted after a FIB write
it caused was seen to violate policy, never on a learned guess.
"""

from repro.repair.provenance import ProvenanceResult, ProvenanceTracer
from repro.repair.rollback import RepairAction, RepairEngine, RepairReport
from repro.repair.blocking import BlockingRepair

__all__ = [
    "BlockingRepair",
    "ProvenanceResult",
    "ProvenanceTracer",
    "RepairAction",
    "RepairEngine",
    "RepairReport",
]
