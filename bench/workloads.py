"""Workload rows and metric definitions (no ``repro`` import).

``BENCHMARK.json`` at the repository root carries the names, units,
directions and bounds the driver checks; ``test_bench.py`` asserts the
two stay in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Params:
    """One workload row: the same driver runs every row."""

    family: str  # "mesh": iBGP full mesh + OSPF; "rr": reflectors + statics
    n: int
    churn: int
    rounds: int
    lag_ms: float
    scoped: bool
    telemetry: bool


#: Sizes are the largest that keep one invocation (the set-ups, timed
#: passes, rounds, count pass, span pass, references) near 25 s on the
#: 2-core reference box — the driver's 92 runs must end within 3420 s.
#: See README.md "Sizes" for what was shrunk from the issue and why.
FULL: Dict[str, Params] = {
    "mesh_churn": Params("mesh", 24, 60, 5, 50.0, True, False),
    "rr_churn": Params("rr", 32, 24, 5, 50.0, True, False),
    "rr_watch": Params("rr", 32, 24, 5, 50.0, True, True),
    "rr_repair": Params("rr", 20, 24, 8, 0.0, False, False),
}

#: ``--smoke``: the same four rows at toy size, one pass, one round.
SMOKE: Dict[str, Params] = {
    "mesh_churn": Params("mesh", 6, 10, 1, 50.0, True, False),
    "rr_churn": Params("rr", 8, 10, 1, 50.0, True, False),
    "rr_watch": Params("rr", 8, 10, 1, 50.0, True, True),
    "rr_repair": Params("rr", 8, 4, 1, 0.0, False, False),
}

WHY: Dict[str, str] = {
    "mesh_churn": (
        "Dense full-mesh HBG fed out of order: hbr index queries and "
        "forward re-link dominate, so an hbr change shows here and "
        "barely on the rr rows."
    ),
    "rr_churn": (
        "Sparse route-reflector graph, every delta probed from all n "
        "sources: verify policy re-probe and the snapshot closure walk "
        "dominate; telemetry off."
    ),
    "rr_watch": (
        "Same input and loop as rr_churn plus what repro watch turns "
        "on (registry, verdict ledger, monitor): only obs differs, so "
        "an obs change shows here alone."
    ),
    "rr_repair": (
        "In-order feed, unscoped policies re-deriving probe sets per "
        "delta, eight sabotage-trace-rollback cycles: provenance, "
        "repair and probe_set cost show here."
    ),
}

#: name -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "verdict_p50_us": ("us", "lower"),
    "verdict_p99_us": ("us", "lower"),
    "repair_cycle_ms": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "calls_per_event": ("calls/event", "lower"),
}

#: The packages the loop enters; ``<layer>.profile_share`` rows.
LAYERS = (
    "protocols",
    "net",
    "capture",
    "hbr",
    "snapshot",
    "verify",
    "repair",
    "obs",
)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric in END_TO_END:
        return END_TO_END[metric][0]
    for suffix, unit in (
        ("_us_per_event", "us"),
        ("us_per_delta", "us"),
        ("calls_per_event", "calls/event"),
        ("_per_event", "1/event"),
        ("_per_delta", "1/delta"),
        ("_per_s", "1/s"),
        ("_bytes", "bytes"),
        ("_share", "ratio"),
        ("_ratio", "ratio"),
        ("_spread", "ratio"),
        ("_coverage", "ratio"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_s", "s"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"
