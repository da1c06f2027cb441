"""Cross-process determinism: the property the DET lint rules guard.

The paper's happens-before accuracy numbers (Fig. 3) are only
meaningful if a seeded scenario replays identically — same captured
I/O trace, same HBG edge set, same observability percentiles — run
to run.  These tests execute the same seeded scenario in *separate
interpreter processes with different PYTHONHASHSEED values* (the
hostile case for hash-order and hash-seeded bugs) and require
byte-identical output.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs a seeded Fig. 2 episode, prints the sorted HBG edge set and the
# reservoir-backed histogram percentiles.  Any wall-clock, global-RNG,
# or hash-order dependence shows up as a diff between invocations.
_SCRIPT = """
from repro import obs
from repro.hbr.inference import InferenceEngine
from repro.scenarios.fig2 import Fig2Scenario

registry, tracer = obs.enable()
net = Fig2Scenario(seed=7).run_fig2a()
graph = InferenceEngine().build_graph(net.collector.all_events())
edges = sorted(
    (e.cause, e.effect, e.evidence.technique, round(e.evidence.confidence, 9))
    for e in graph.edges()
)
print(len(edges))
for edge in edges:
    print(edge)
for histogram in registry.histograms():
    summary = histogram.summary()
    print(histogram.name, summary["count"], summary["p50"] is not None)
# Percentiles of a *logical* quantity must be value-stable too: feed
# the event count into a fresh histogram wider than its reservoir.
probe = registry.histogram("det.probe")
for index in range(20000):
    probe.observe(float(index % 997))
print("probe", probe.percentile(50), probe.percentile(95), probe.percentile(99))
# FIBs are hash tables per prefix length: their iteration order, and the
# oracle snapshot copied from them, must not follow the hash seed.
from repro.snapshot.base import DataPlaneSnapshot
for router, table in net.forwarding_state().items():
    print("fib", router, [str(entry) for entry in table.values()])
oracle = DataPlaneSnapshot.from_live_network(net)
for router in oracle.routers():
    print("oracle", router, [
        (str(e.prefix), e.next_hop_router, e.out_interface, e.discard)
        for e in oracle.entries_of(router)
    ])
obs.disable()
"""


def _run(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hbg_edges_byte_identical_across_processes():
    # The default engine IS the indexed path, so this also gates the
    # inverted indices of repro.hbr.index against hash-order drift.
    first = _run("1")
    second = _run("2")
    assert first == second
    # Sanity: the run actually produced a graph.
    assert int(first.splitlines()[0]) > 0


# Every way of building the graph, on two seeded captures: Fig. 2
# (window-rescan spec, indexed batch, distributed boundary-summary
# workers=2) and a route-reflector network whose capture holds a
# skew-induced *cycle* (world seed 1: batch, streaming in arrival
# order, streaming in reversed order, forked distributed merge).  Each
# path must agree with the others within a process, and the whole dump
# must be byte-identical across hostile hash seeds — so neither a
# hash-order dependence nor an insertion-order-dependent edge decider
# (the cycle veto add_edge used to apply) can come back unnoticed.
_PATHS_SCRIPT = """
import random

from repro.hbr.distributed import DistributedHbg
from repro.hbr.graph import HbgError
from repro.hbr.inference import InferenceEngine
from repro.scenarios.fig2 import Fig2Scenario
from repro.scenarios.generators import build_scaled_network, external_prefixes
from repro.snapshot.base import VerifierView
from repro.testkit.oracles import rescan_graph

def dump(graph):
    return sorted(
        (
            e.cause,
            e.effect,
            e.evidence.technique,
            e.evidence.rule,
            round(e.evidence.confidence, 9),
        )
        for e in graph.edges()
    )

def distributed(events):
    dist = DistributedHbg(InferenceEngine())
    dist.ingest_all(events)
    dist.build_all(workers=2)
    return dist.merged_graph()

def streamed(events):
    stream = InferenceEngine().streaming()
    for event in events:
        stream.observe(event)
    return stream.graph

net = Fig2Scenario(seed=7).run_fig2a()
events = net.collector.all_events()
indexed = InferenceEngine().build_graph(events)
print("spec==indexed", dump(rescan_graph(events)) == dump(indexed))
print("indexed==distributed", indexed.to_records() == distributed(events).to_records())
edges = dump(indexed)
print(len(edges))
for edge in edges:
    print(edge)

net, specs = build_scaled_network(32, seed=0, rng=random.Random(1))
net.start()
for spec in specs:
    for prefix in external_prefixes(4, base="198.51.0.0"):
        net.announce_prefix(spec.external, prefix, at=1.0)
net.run(30.0)
events = net.collector.all_events()
rng = random.Random(0)
view = VerifierView(
    net.collector,
    lags={r: rng.uniform(0.0, 0.05) for r in sorted(net.topology.internal_routers())},
)
arrival = sorted(events, key=lambda e: (view.arrival_time(e), e.event_id))
batch = InferenceEngine().build_graph(events)
try:
    batch.topological_order()
    print("cycle False")
except HbgError:
    print("cycle True")
print("batch==streaming", batch.to_records() == streamed(arrival).to_records())
print("batch==reversed", batch.to_records() == streamed(arrival[::-1]).to_records())
print("batch==distributed", batch.to_records() == distributed(events).to_records())
edges = dump(batch)
print(len(edges))
for edge in edges:
    print(edge)
"""


def _run_paths(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _PATHS_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_three_build_paths_byte_identical_across_processes():
    first = _run_paths("1")
    second = _run_paths("2")
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "spec==indexed True"
    assert lines[1] == "indexed==distributed True"
    fig2_edges = int(lines[2])
    assert fig2_edges > 0
    rr = lines[3 + fig2_edges :]
    assert rr[:4] == [
        "cycle True",
        "batch==streaming True",
        "batch==reversed True",
        "batch==distributed True",
    ]
    assert int(rr[4]) > 0


def test_graph_edges_stable_within_process():
    # Event ids are allocation-ordered and process-global (so a live
    # network and its what-if forks share one id space); back-to-back
    # scenario replays therefore bracket each run with the same
    # reset_event_ids() isolation conftest applies per test.
    from repro.capture.io_events import reset_event_ids
    from repro.hbr.inference import InferenceEngine
    from repro.scenarios.fig2 import Fig2Scenario

    runs = []
    for _ in range(2):
        reset_event_ids()
        net = Fig2Scenario(seed=11).run_fig2a()
        graph = InferenceEngine().build_graph(net.collector.all_events())
        runs.append(sorted(graph.edge_set()))
    assert runs[0] == runs[1]
