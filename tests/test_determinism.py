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


# All three build paths (legacy scan, indexed, distributed
# boundary-summary workers=2) on one seeded scenario: each path must
# agree with the others within a process, and the whole dump must be
# byte-identical across hostile hash seeds (the distributed path adds
# fork + merge and summary-exchange ordering as fresh opportunities
# for nondeterminism; see repro.hbr.distributed).
_PATHS_SCRIPT = """
from repro.hbr.distributed import DistributedHbg
from repro.hbr.inference import InferenceConfig, InferenceEngine
from repro.scenarios.fig2 import Fig2Scenario

net = Fig2Scenario(seed=7).run_fig2a()
events = net.collector.all_events()
legacy = InferenceEngine(
    config=InferenceConfig(legacy_scan=True)
).build_graph(events)
engine = InferenceEngine()
indexed = engine.build_graph(events)
dist = DistributedHbg(InferenceEngine())
dist.ingest_all(events)
dist.build_all(workers=2)
distributed = dist.merged_graph()

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

print("legacy==indexed", dump(legacy) == dump(indexed))
print("indexed==distributed", indexed.to_records() == distributed.to_records())
edges = dump(indexed)
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
    assert lines[0] == "legacy==indexed True"
    assert lines[1] == "indexed==distributed True"
    assert int(lines[2]) > 0


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
