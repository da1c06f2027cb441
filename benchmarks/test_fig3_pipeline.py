"""Experiment F3 — Fig. 3: the integrated pipeline, end to end.

Runs the Fig. 2 misconfiguration against an armed
IntegratedControlPlane in all three modes and reports what each does:
MONITOR lets the violation through (and records it), BLOCK stops the
damage but leaves control/data divergence, REPAIR stops the damage
*and* reverts the root cause so the planes re-synchronise.  The
benchmark measures the REPAIR-mode episode.
"""

import gc
import random
import statistics
import time

import pytest

from repro import obs
from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.obs.export import missing_sections, registry_to_dict
from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
from repro.scenarios.generators import (
    build_random_network,
    build_scaled_network,
    churn_workload,
    external_prefixes,
)
from repro.scenarios.paper_net import P, paper_policy
from repro.verify.policy import (
    BlackholeFreedomPolicy,
    LoopFreedomPolicy,
    PreferredExitPolicy,
)

from _report import emit, emit_json, table


def _episode(mode: PipelineMode, seed: int = 0):
    scenario = Fig2Scenario(seed=seed)
    net = scenario.run_baseline()
    pipeline = IntegratedControlPlane(
        net, [paper_policy(), LoopFreedomPolicy(prefixes=[P])], mode=mode
    ).arm()
    net.apply_config_change(bad_lp_change())
    net.run(90)
    lp = (
        net.configs.get("R2")
        .route_maps["r2-uplink-lp"]
        .clauses[0]
        .set_local_pref
    )
    return {
        "mode": mode.value,
        "violating_at_end": scenario.violates_policy(),
        "updates_checked": pipeline.updates_checked,
        "updates_blocked": pipeline.updates_blocked,
        "incidents": len(pipeline.incidents),
        "final_lp": lp,
        "root_cause_reverted": lp == 30,
        "exit_r3": scenario.exit_router_for("R3"),
    }


def test_fig3_pipeline_modes(benchmark):
    repair = benchmark(lambda: _episode(PipelineMode.REPAIR))
    monitor = _episode(PipelineMode.MONITOR, seed=1)
    block = _episode(PipelineMode.BLOCK, seed=2)

    assert monitor["violating_at_end"], "monitor mode lets damage happen"
    assert not block["violating_at_end"], "block mode protects the FIBs"
    assert not block["root_cause_reverted"], "block mode does not repair"
    assert not repair["violating_at_end"], "repair mode protects the FIBs"
    assert repair["root_cause_reverted"], "repair mode reverts the cause"
    assert repair["exit_r3"] == "R2", "repair restores the preferred exit"

    headers = (
        "mode",
        "violation at end",
        "updates blocked",
        "incidents",
        "LP after episode",
        "cause reverted",
    )
    rows = [
        (
            result["mode"],
            result["violating_at_end"],
            result["updates_blocked"],
            result["incidents"],
            result["final_lp"],
            result["root_cause_reverted"],
        )
        for result in (monitor, block, repair)
    ]
    lines = [
        "Fig. 3 pipeline driving the Fig. 2 misconfiguration "
        "(capture -> verify -> trace provenance -> block I/Os):",
        "",
    ]
    lines += table(headers, rows)
    lines += [
        "",
        "paper shape: 'capture errors before they are installed, "
        "automatically trace down the source of the error and roll-back "
        "the updates' — only REPAIR mode ends compliant AND in-sync — OK",
    ]
    emit("F3_fig3_pipeline", lines)


def test_fig3_pipeline_metrics_trajectory():
    """Instrumented REPAIR-mode episode → BENCH_pipeline.json.

    Runs the same episode with repro.obs enabled and persists the
    wall clock plus per-stage counters and latency histograms, so
    future PRs have a machine-readable perf trajectory to compare
    against.  Also asserts every pipeline stage actually recorded
    something — the guard against silently-dead instrumentation.
    """
    with obs.capturing() as (registry, tracer):
        wall_started = time.perf_counter()
        episode = _episode(PipelineMode.REPAIR, seed=3)
        wall_seconds = time.perf_counter() - wall_started
        document = registry_to_dict(registry, tracer)

    stages = ["capture", "inference", "snapshot", "verify", "repair", "sim"]
    assert missing_sections(document, stages) == []
    assert not episode["violating_at_end"]

    guard = document["sections"]["verify"]["histograms"][
        "verify.fib_write_latency_seconds"
    ]
    payload = {
        "experiment": "F3_fig3_pipeline",
        "mode": "repair",
        "wall_seconds": round(wall_seconds, 6),
        "per_stage_wall_seconds": {
            stage: {
                name: summary["sum"]
                for name, summary in document["sections"][stage][
                    "histograms"
                ].items()
                if name.endswith("_seconds")
            }
            for stage in stages
        },
        "fib_write_latency": guard,
        "episode": {
            "updates_checked": episode["updates_checked"],
            "updates_blocked": episode["updates_blocked"],
            "incidents": episode["incidents"],
            "root_cause_reverted": episode["root_cause_reverted"],
        },
        "metrics": document,
    }
    emit_json("pipeline", payload)


def _guarded_world(family: str, n: int, churn: int = 24):
    """The guard's cost at a stated size: a ``bench/``-shaped world
    (4 guard prefixes at 1 s, ``churn`` announce/withdraws of 8 more
    from 30 s, scoped policies) with the guard armed in MONITOR from
    the first event on, so every write is checked and none is lost."""
    build = build_random_network if family == "mesh" else build_scaled_network
    net, specs = build(n, seed=0, rng=random.Random(0))
    guards = external_prefixes(4, base="198.51.0.0")
    churned = external_prefixes(8)
    preferred = max(specs, key=lambda s: s.local_pref)
    fallback = min(specs, key=lambda s: s.local_pref)
    scope = guards + churned
    pipeline = IntegratedControlPlane(
        net,
        [
            PreferredExitPolicy(
                prefix=guards[0],
                preferred_exit=preferred.router,
                fallback_exit=fallback.router,
                uplink_of={
                    preferred.router: preferred.external,
                    fallback.router: fallback.external,
                },
            ),
            LoopFreedomPolicy(prefixes=scope),
            BlackholeFreedomPolicy(prefixes=scope),
        ],
        mode=PipelineMode.MONITOR,
    ).arm()
    timings = []

    def timed(router, old, new):
        started = time.perf_counter()
        allowed = pipeline._guard(router, old, new)
        timings.append(time.perf_counter() - started)
        return allowed

    net.set_fib_guard(timed)
    net.start()
    for spec in specs:
        for prefix in guards:
            net.announce_prefix(spec.external, prefix, at=1.0)
    schedule = churn_workload(net, specs, churned, churn, start=30.0, seed=0)
    before_run = len(timings)
    started = time.perf_counter()
    net.run(schedule[-1][0] + 42.0)
    run_seconds = time.perf_counter() - started
    return net, timings, sum(timings[before_run:]) / run_seconds, run_seconds


def test_fig3_guard_latency_at_scale():
    """C-GUARD: what one guarded FIB write costs beyond 3 routers.

    p50/p99 are read from ``verify.fib_write_latency_seconds``; the
    first/last-tenth means say whether the guard grows with the
    captured history (the replay-per-write guard did, ~10x within a
    run); the share is guard time over ``net.run`` wall.
    """
    rows = []
    for family, n in (("rr", 20), ("rr", 32), ("mesh", 12)):
        gc.collect()  # the previous world's garbage is not this one's cost
        with obs.capturing() as (registry, _tracer):
            net, timings, share, run_seconds = _guarded_world(family, n)
            latency = registry.histogram("verify.fib_write_latency_seconds")
        assert latency.count == len(timings) > 300
        tenth = len(timings) // 10
        first = statistics.mean(timings[:tenth])
        last = statistics.mean(timings[-tenth:])
        # The shape, not a number: O(touched atoms), not O(history).
        assert last < 4 * first + 1e-3
        rows.append(
            (
                f"{family} n={n}",
                len(timings),
                len(net.collector),
                f"{latency.percentile(50) * 1e3:.3f}",
                f"{latency.percentile(99) * 1e3:.3f}",
                f"{first * 1e3:.3f}",
                f"{last * 1e3:.3f}",
                f"{share:.1%}",
                f"{run_seconds:.2f}",
            )
        )
    headers = (
        "world",
        "guarded writes",
        "events",
        "p50 ms",
        "p99 ms",
        "first-tenth mean ms",
        "last-tenth mean ms",
        "guard share of net.run",
        "net.run s",
    )
    lines = [
        "Fig. 3 guard latency at scale (MONITOR, armed from cold start, "
        "every write checked; one run, seed 0):",
        "",
    ]
    lines += table(headers, rows)
    emit("F3_guard_latency", lines)
