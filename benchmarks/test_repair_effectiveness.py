"""Experiment C-REP — §6/§8: repair effectiveness and its
preconditions.

Runs misconfiguration campaigns on random networks and compares the
three repair strategies: blocking (baseline), offline root-cause
rollback, and the online pipeline guard.  Metrics: did the policy end
compliant, are control and data planes in sync, and how long the data
plane spent in violation.

After each campaign the operator makes a policy-preserving follow-up
edit to the same route-map (the preferred uplink's LP raised by 10).
A strategy that reverts it has acted without evidence: the "benign
edit kept" column must read n/n.

Also probes §8's determinism precondition: with the Cisco
arrival-order tie-break ("oldest route") active, replaying the same
inputs in a different order can converge differently; the
deterministic profile (Add-Path regime) removes the divergence.
"""

import pytest

from repro.core.pipeline import IntegratedControlPlane, PipelineMode
from repro.net.config import ConfigChange, local_pref_map
from repro.protocols.bgp_decision import VendorProfile, best_path
from repro.protocols.routes import BgpRoute
from repro.net.addr import Prefix
from repro.scenarios.generators import build_random_network, external_prefixes
from repro.verify.policy import LoopFreedomPolicy, PreferredExitPolicy

from _report import emit, shape_line, table

SEEDS = (5, 17, 29)
STRATEGIES = ("blocking", "offline rollback", "pipeline (repair)")


def _setup(seed):
    net, specs = build_random_network(6, uplinks=2, seed=seed)
    net.start()
    prefix = external_prefixes(1)[0]
    for spec in specs:
        net.announce_prefix(spec.external, prefix)
    net.run(40)
    preferred = max(specs, key=lambda s: s.local_pref)
    fallback = min(specs, key=lambda s: s.local_pref)
    policy = PreferredExitPolicy(
        prefix=prefix,
        preferred_exit=preferred.router,
        fallback_exit=fallback.router,
        uplink_of={
            preferred.router: preferred.external,
            fallback.router: fallback.external,
        },
    )
    return net, prefix, policy, preferred


def _set_uplink_lp(router, local_pref, description):
    map_name = f"{router.lower()}-uplink-lp"
    return ConfigChange(
        router,
        "set_route_map",
        key=map_name,
        value=local_pref_map(map_name, local_pref),
        description=description,
    )


def _uplink_lp(net, router):
    route_map = net.configs.get(router).route_maps[f"{router.lower()}-uplink-lp"]
    return route_map.clauses[0].set_local_pref


def _violating(net, policy, prefix):
    required = policy.required_exit(net.topology)
    if required is None:
        return False
    uplink = policy.uplink_of[required]
    for router in net.topology.internal_routers():
        path, outcome = net.trace_path(router, prefix.first_address())
        if outcome != "delivered" or uplink not in path:
            return True
    return False


def _violation_time(net, policy, prefix, horizon, step=0.2):
    total = 0.0
    elapsed = 0.0
    while elapsed < horizon:
        net.run(step)
        elapsed += step
        if _violating(net, policy, prefix):
            total += step
    return total


def _episode(strategy, seed):
    net, prefix, policy, preferred = _setup(seed)
    if strategy == "pipeline (repair)":
        IntegratedControlPlane(
            net, [policy, LoopFreedomPolicy(prefixes=[prefix])],
            mode=PipelineMode.REPAIR,
        ).arm()
    elif strategy == "blocking":
        from repro.repair.blocking import BlockingRepair

        blocker = BlockingRepair(net, prefixes={prefix})
        blocker.activate()
    net.apply_config_change(
        _set_uplink_lp(preferred.router, 1, "sabotage preferred uplink")
    )
    violation_time = _violation_time(net, policy, prefix, horizon=90.0)
    if strategy == "offline rollback":
        # Detection + repair after the damage (the §6 first variant).
        pipe = IntegratedControlPlane(
            net, [policy], mode=PipelineMode.REPAIR
        )
        pipe.detect_and_repair(settle=60.0)
        violation_time += _violation_time(net, policy, prefix, horizon=5.0)
    compliant = not _violating(net, policy, prefix)
    reverted = _uplink_lp(net, preferred.router) == preferred.local_pref
    # Plane sync: every BGP best resolves to the installed FIB hop.
    in_sync = True
    for router in net.topology.internal_routers():
        runtime = net.runtime(router)
        best = runtime.bgp.rib.best(prefix)
        fib = runtime.fib.get(prefix)
        if best is None or fib is None:
            continue
        resolved = runtime.resolve_next_hop(best.next_hop)
        if resolved is None or resolved[0] != fib.next_hop_router:
            in_sync = False
    # The benign follow-up: still the preferred exit, so no violation
    # can follow and nothing may undo it.
    benign_lp = preferred.local_pref + 10
    net.apply_config_change(
        _set_uplink_lp(preferred.router, benign_lp, "raise preferred uplink LP")
    )
    net.run(60)
    return {
        "compliant": compliant,
        "reverted": reverted,
        "in_sync": in_sync,
        "violation_time": violation_time,
        "benign_kept": _uplink_lp(net, preferred.router) == benign_lp,
    }


def test_repair_effectiveness(benchmark):
    n = len(SEEDS)
    rows = []
    summary = {}
    for strategy in STRATEGIES:
        results = [_episode(strategy, seed) for seed in SEEDS]
        counts = {
            key: sum(r[key] for r in results)
            for key in ("compliant", "reverted", "in_sync", "benign_kept")
        }
        counts["violation_time"] = (
            sum(r["violation_time"] for r in results) / n
        )
        summary[strategy] = counts
        rows.append(
            (
                strategy,
                f"{counts['compliant']}/{n}",
                f"{counts['reverted']}/{n}",
                f"{counts['in_sync']}/{n}",
                f"{counts['violation_time']:.1f} s",
                f"{counts['benign_kept']}/{n}",
            )
        )
    repair = summary["pipeline (repair)"]
    offline = summary["offline rollback"]
    blocking = summary["blocking"]

    benchmark.pedantic(
        lambda: _episode("pipeline (repair)", SEEDS[0]), rounds=2, iterations=1
    )

    # --- §8 determinism ablation -------------------------------------
    prefix = Prefix.parse("203.0.113.0/24")
    older = BgpRoute(
        prefix=prefix, next_hop=1, ebgp_learned=True,
        received_at=1.0, peer_router_id=9,
    )
    newer = BgpRoute(
        prefix=prefix, next_hop=2, ebgp_learned=True,
        received_at=2.0, peer_router_id=1,
    )
    cisco = VendorProfile.cisco()
    deterministic = cisco.deterministic()
    order_a = best_path([older, newer], cisco)
    # Re-arrival in the opposite order swaps the received_at stamps.
    older_swapped = BgpRoute(
        prefix=prefix, next_hop=1, ebgp_learned=True,
        received_at=2.0, peer_router_id=9,
    )
    newer_swapped = BgpRoute(
        prefix=prefix, next_hop=2, ebgp_learned=True,
        received_at=1.0, peer_router_id=1,
    )
    order_b = best_path([older_swapped, newer_swapped], cisco)
    det_a = best_path([older, newer], deterministic)
    det_b = best_path([older_swapped, newer_swapped], deterministic)

    claims = {
        "rollback repairs the root cause and keeps planes in sync": (
            offline["reverted"] == n and offline["in_sync"] == n
        ),
        "the online guard additionally keeps violation time at zero": (
            repair["compliant"] == n
            and repair["reverted"] == n
            and repair["in_sync"] == n
            and repair["violation_time"] == 0.0
        ),
        "blocking does neither": (
            blocking["reverted"] == 0 and blocking["in_sync"] == 0
        ),
        "no strategy reverts the benign follow-up": all(
            counts["benign_kept"] == n for counts in summary.values()
        ),
        "BGP determinism needs Add-Path": (
            order_a.next_hop != order_b.next_hop
            and det_a.next_hop == det_b.next_hop
        ),
    }
    lines = [
        f"misconfiguration campaigns on random 6-router networks "
        f"(seeds {SEEDS}); sabotage of the preferred uplink's LP, then a "
        f"benign follow-up edit (LP = preferred + 10):",
        "",
    ]
    lines += table(
        (
            "strategy",
            "policy compliant",
            "cause reverted",
            "planes in sync",
            "mean time in violation",
            "benign edit kept",
        ),
        rows,
    )
    lines += [
        "",
        "§8 determinism precondition:",
        f"  cisco profile, arrival order A -> best nh={order_a.next_hop}; "
        f"order B -> best nh={order_b.next_hop} (diverges)",
        f"  deterministic (Add-Path) profile -> nh={det_a.next_hop} both "
        f"orders (stable)",
        "",
        shape_line(claims),
    ]
    emit("C-REP_repair_effectiveness", lines)

    assert repair["benign_kept"] == n, "repair: zero false reverts"
    assert all(claims.values()), claims
