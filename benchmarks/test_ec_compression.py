"""Experiment C-EC — §6's claim: "even large networks (100K prefixes)
often have less than 15 equivalence classes in total".

We plant a known number of classes into synthetic network-wide FIBs
and verify the exact-partition algorithm recovers them, sweeping the
prefix count up to the paper's 100 K headline.  The compression ratio
(prefixes per class) is the figure of merit; the benchmark measures
EC computation at the 10 K point.
"""

import pytest

from repro.scenarios.generators import planted_ec_snapshot
from repro.verify.headerspace import compression_ratio, compute_equivalence_classes

from _report import emit, shape_line, table

SWEEP = (
    (1_000, 5),
    (5_000, 10),
    (10_000, 14),
    (50_000, 14),
    (100_000, 14),
)
ROUTERS = 10


def test_ec_compression(benchmark):
    rows = []
    recovered = {}
    for num_prefixes, planted in SWEEP:
        snapshot, _assignment = planted_ec_snapshot(
            num_prefixes=num_prefixes,
            num_classes=planted,
            num_routers=ROUTERS,
            seed=0,
        )
        classes = compute_equivalence_classes(snapshot)
        recovered[num_prefixes] = len(classes)
        rows.append(
            (
                num_prefixes,
                planted,
                len(classes),
                f"{compression_ratio(classes, num_prefixes):,.0f}x",
            )
        )

    bench_snapshot, _ = planted_ec_snapshot(
        num_prefixes=10_000, num_classes=14, num_routers=ROUTERS, seed=0
    )
    benchmark.pedantic(
        lambda: compute_equivalence_classes(bench_snapshot),
        rounds=3,
        iterations=1,
    )

    largest = SWEEP[-1][0]
    claims = {
        f"{largest:,} prefixes collapse to <15 classes": recovered[largest] < 15,
        "the exact partition recovers every planted class count": all(
            recovered[num_prefixes] == planted for num_prefixes, planted in SWEEP
        ),
    }
    lines = [
        f"planted-class recovery across {ROUTERS} routers:",
        "",
    ]
    lines += table(
        ("prefixes", "planted classes", "recovered", "compression"), rows
    )
    lines += ["", shape_line(claims)]
    emit("C-EC_compression", lines)
    assert all(claims.values()), claims
