#!/usr/bin/env python3
"""A fuller tour: auditing a synthetic enterprise network.

Builds a random 8-router single-AS network (OSPF underlay, iBGP full
mesh, two external uplinks), subjects it to route churn, and then
runs the paper's whole toolbox over the capture:

* HBR inference accuracy against the simulator's ground truth;
* forwarding equivalence classes (the §6 compression);
* distributed verification cost vs a centralized verifier;
* a misconfiguration + offline root-cause repair.

Run:  python examples/enterprise_audit.py
"""

from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.hbr.inference import InferenceEngine, score_inference
from repro.net.config import ConfigChange, local_pref_map
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
)
from repro.snapshot.base import DataPlaneSnapshot
from repro.verify.distributed import (
    DistributedVerifier,
    centralized_equivalent_stats,
)
from repro.verify.headerspace import (
    compression_ratio,
    compute_equivalence_classes,
)
from repro.verify.policy import LoopFreedomPolicy, PreferredExitPolicy


def main():
    print("Building a random 8-router enterprise network...")
    net, specs = build_random_network(8, uplinks=2, seed=42)
    net.start()
    prefixes = external_prefixes(6)
    for prefix in prefixes:
        for spec in specs:
            net.announce_prefix(spec.external, prefix)
    print("Applying route churn...")
    churn_workload(net, specs, prefixes, events=12, start=5.0, seed=42)
    net.run(60)
    print(f"  captured {len(net.collector)} control-plane I/O events")

    print("\n[1] HBR inference vs ground truth:")
    graph = InferenceEngine().build_graph(net.collector.all_events())
    observable = {e.event_id for e in net.collector}
    score = score_inference(graph, net.ground_truth, observable_ids=observable)
    print(f"  {score}")

    print("\n[2] Forwarding equivalence classes (§6):")
    snapshot = DataPlaneSnapshot.from_live_network(net)
    classes = compute_equivalence_classes(snapshot)
    prefix_count = len(snapshot.all_prefixes())
    print(f"  {prefix_count} distinct prefixes in FIBs")
    print(f"  {len(classes)} address-space equivalence classes "
          f"({compression_ratio(classes, prefix_count):.1f} prefixes/class)")

    print("\n[3] Distributed vs centralized verification (§5):")
    live_prefixes = sorted(prefixes, key=lambda p: p.key())
    distributed = DistributedVerifier(net.topology, snapshot)
    outcomes, dist_stats = distributed.verify_prefixes(live_prefixes)
    central = centralized_equivalent_stats(net.topology, snapshot, live_prefixes)
    print(f"  probes: {len(outcomes)}, all outcomes: "
          f"{sorted(set(o.outcome for o in outcomes))}")
    print(f"  central bottleneck work: {central.bottleneck_work} units at "
          f"one node")
    print(f"  distributed bottleneck:  {dist_stats.bottleneck_work} units "
          f"(max per node), latency {dist_stats.latency * 1000:.0f} ms")

    print("\n[4] Misconfiguration + offline detect-and-repair (§6):")
    preferred = max(specs, key=lambda s: s.local_pref)
    fallback = min(specs, key=lambda s: s.local_pref)
    policy = PreferredExitPolicy(
        prefix=prefixes[0],
        preferred_exit=preferred.router,
        fallback_exit=fallback.router,
        uplink_of={
            preferred.router: preferred.external,
            fallback.router: fallback.external,
        },
    )
    map_name = f"{preferred.router.lower()}-uplink-lp"
    net.apply_config_change(
        ConfigChange(
            preferred.router,
            "set_route_map",
            key=map_name,
            value=local_pref_map(map_name, 1),
            description="fat-fingered local-pref",
        )
    )
    net.run(60)
    pipeline = IntegratedControlPlane(net, [policy], mode=PipelineMode.REPAIR)
    violations, repair = pipeline.detect_and_repair(settle=60.0)
    print(f"  violations detected: {len(violations)}")
    if repair is not None:
        print("  " + repair.describe().replace("\n", "\n  "))
    lp = net.configs.get(preferred.router).route_maps[map_name].clauses[0]
    print(f"  preferred uplink LP after repair: {lp.set_local_pref} "
          f"(expected {preferred.local_pref})")


if __name__ == "__main__":
    main()
