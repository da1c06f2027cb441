"""The run shape every workload shares (README.md "Run shape").

set-up -> timed churn passes -> sabotage rounds -> reference checks ->
count pass (cProfile) -> span pass (``--trace`` only).  A closed loop
with one client: the next event is fed when ``observe()`` returns.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import pstats
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import loop as adapter
from spans import SpanRecorder
from workloads import LAYERS, Params

_clock = time.perf_counter_ns


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def timed_feed(observe: Callable, events: Sequence, sink: List[int]) -> None:
    """Feed ``events`` one by one, appending each call's ns to ``sink``:
    the closed loop — the next event waits for ``observe()`` to return."""
    clock = _clock
    for event in events:
        started = clock()
        observe(event)
        sink.append(clock() - started)


def backlog_replay(
    arrivals: Sequence[float], service_ns: Sequence[int]
) -> Tuple[int, float]:
    """Single-server FIFO replay of measured service times against the
    simulated arrival times at 1x real time.

    Returns (peak events waiting or in service, p99 lag in ms from an
    event's arrival to its verdict).
    """
    finish: List[float] = []
    lags: List[float] = []
    free_at = 0.0
    peak = 0
    done = 0
    for index, (arrival, cost) in enumerate(zip(arrivals, service_ns)):
        free_at = max(free_at, arrival) + cost / 1e9
        finish.append(free_at)
        lags.append(free_at - arrival)
        while finish[done] <= arrival:
            done += 1
        peak = max(peak, index - done + 1)
    lags.sort()
    return peak, percentile(lags, 0.99) * 1e3


# -- sabotage rounds -----------------------------------------------------------


#: The serial parts of one repair cycle; they add up to it.
CYCLE_PARTS = (
    "repair.trace",
    "repair.rollback_self",
    "protocols.reconverge",
    "verify.batch_verify",
    "repair.restream",
    "repair.cycle_other",
)


def run_round(
    loop: adapter.Loop,
    spans: SpanRecorder,
    feed: Callable[[Sequence], None],
    number: int,
) -> Tuple[Optional[str], Dict[str, float]]:
    """One sabotage round.  Returns (failure or None, what it measured:
    ns for every ``CYCLE_PARTS`` key once the cycle completed)."""
    spans.ident = f"round-{number}"
    scenario = loop.scenario
    since = scenario.now()
    sabotage = spans.begin("protocols.sabotage")
    planted = loop.sabotage()
    facts: Dict[str, float] = {"sabotage": spans.end(sabotage)}
    burst_events = scenario.unfed()
    burst = spans.begin("loop.burst_feed")
    feed(burst_events)
    facts["burst_events_per_s"] = len(burst_events) / (spans.end(burst) / 1e9)
    if not loop.violations():
        return f"round {number}: sabotage raised no violation", facts

    cycle = spans.begin("repair.cycle")
    trace = spans.begin("repair.trace")
    provenance, traced = loop.trace(since)
    trace_ns = spans.end(trace)
    if provenance is None:
        spans.end(cycle)
        return f"round {number}: no FIB event to trace", facts
    rollback = spans.begin("repair.rollback")
    report = loop.repair(provenance)
    rollback_ns = spans.end(rollback)
    tail = scenario.unfed()
    restream = spans.begin("repair.restream")
    feed(tail)
    restream_ns = spans.end(restream)
    remaining = loop.violations()
    cycle_ns = spans.end(cycle)

    # Inside repair(): the simulator re-converging, then the batch
    # post-verification; the rest is the rollback's own work.
    inside = {"protocols.run": 0, "verify.batch_verify": 0}
    for child in spans.children(rollback):
        inside[spans.spans[child][0]] += spans.duration_ns(child)
    facts.update(
        {
            "cycle": cycle_ns,
            "traced": traced,
            "ancestry": len(provenance.ancestry),
            "repair.trace": trace_ns,
            "repair.rollback_self": rollback_ns - sum(inside.values()),
            "protocols.reconverge": inside["protocols.run"],
            "verify.batch_verify": inside["verify.batch_verify"],
            "repair.restream": restream_ns,
            "repair.cycle_other": cycle_ns - trace_ns - rollback_ns - restream_ns,
        }
    )
    named = provenance.config_change_ids()
    if named != [planted.change_id]:
        return (
            f"round {number}: provenance named change(s) {named}, "
            f"planted #{planted.change_id}",
            facts,
        )
    if not report.repaired:
        return f"round {number}: {report.describe()}", facts
    if remaining:
        return (
            f"round {number}: {len(remaining)} violation(s) after the "
            f"recovery tail, first {remaining[0]}",
            facts,
        )
    return None, facts


# -- count pass ----------------------------------------------------------------


def _layer_of(filename: str) -> Optional[str]:
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return None
    head = filename[at + len(marker) :].split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


def attribute_profile(stats: dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Charge every profiled function's calls and own time to a layer.

    A function in ``repro/<layer>/`` belongs to that layer.  Builtins
    and standard-library functions are charged to the layers of their
    callers, followed transitively and weighted by call counts (exact,
    so the split of calls is as repeatable as their total); what has no
    ``repro`` caller lands in ``builtin``.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple) -> Dict[str, float]:
        known = memo.get(func)
        if known is not None:
            return known
        layer = _layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {}  # in progress: a call cycle contributes nothing
        weights: Dict[str, float] = {}
        callers = stats[func][4] if func in stats else {}
        for caller, edge in sorted(callers.items()):
            for name, share in owners(caller).items():
                weights[name] = weights.get(name, 0.0) + share * edge[0]
        total = sum(weights.values())
        memo[func] = (
            {name: weight / total for name, weight in weights.items()}
            if total
            else {"builtin": 1.0}
        )
        return memo[func]

    calls: Dict[str, float] = {}
    seconds: Dict[str, float] = {}
    for func, (_cc, ncalls, tottime, _ct, callers) in sorted(stats.items()):
        layer = _layer_of(func[0])
        if layer is not None or not callers:
            edges = [(ncalls, tottime, {layer or "builtin": 1.0})]
        else:
            edges = [
                (edge[0], edge[2], owners(caller))
                for caller, edge in sorted(callers.items())
            ]
        for edge_calls, edge_time, split in edges:
            for name, share in split.items():
                calls[name] = calls.get(name, 0.0) + edge_calls * share
                seconds[name] = seconds.get(name, 0.0) + edge_time * share
    return calls, seconds


def count_pass(
    scenario: adapter.Scenario, ledger_path: str
) -> Tuple[int, float, dict]:
    """One churn pass under cProfile.

    Returns (calls made inside ``observe()``, wall seconds, raw stats).
    The count is exact: the loop below makes no call of its own.
    """
    loop = adapter.Loop(scenario, ledger_path)
    observe = loop.observe
    profiler = cProfile.Profile()
    started = _clock()
    profiler.enable()
    for event in scenario.stream:
        observe(event)
    profiler.disable()
    wall = (_clock() - started) / 1e9
    loop.close()
    stats = {
        func: row
        for func, row in pstats.Stats(profiler).stats.items()
        if "_lsprof" not in func[2]
    }
    return sum(row[1] for row in stats.values()), wall, stats


def profile_rows(stats: dict, events: int) -> Dict[str, float]:
    """``<layer>.profile_share`` (sums to 1) and ``<layer>.calls_per_event``."""
    calls, seconds = attribute_profile(stats)
    # "other" is repro code outside the eight layers (none today);
    # folded into builtin so the nine shares still partition the pass.
    for table in (calls, seconds):
        table["builtin"] = table.get("builtin", 0.0) + table.pop("other", 0.0)
    total = sum(seconds.values())
    rows: Dict[str, float] = {}
    for name in LAYERS:
        rows[f"{name}.calls_per_event"] = calls.get(name, 0.0) / events
    for name in LAYERS + ("builtin",):
        rows[f"{name}.profile_share"] = seconds.get(name, 0.0) / total
    return rows


# -- span pass -----------------------------------------------------------------


def span_pass(
    scenario: adapter.Scenario,
    ledger_path: str,
    untraced_feed_s: float,
) -> Tuple[SpanRecorder, Dict[str, float]]:
    """One more churn pass with a span at every layer boundary."""
    spans = SpanRecorder()
    stream = scenario.stream
    with adapter.accounting() as refresh:
        loop = adapter.Loop(scenario, ledger_path, wrap=spans.wrap)
        observe = loop.observe
        begin, end = spans.begin, spans.end
        started = _clock()
        for event in stream:
            spans.ident = event.event_id
            index = begin("hbr.observe")
            observe(event)
            end(index)
        feed_s = (_clock() - started) / 1e9
        resident = refresh()
        loop.close()
    totals = spans.totals()

    def own_s(name: str) -> float:
        return totals.get(name, (0, 0, 0))[2] / 1e9

    def count(name: str) -> int:
        return totals.get(name, (0, 0, 0))[0]

    events = len(stream)
    deltas = max(1, loop.counts()["deltas"])
    verify_s = (
        own_s("verify.apply")
        + own_s("verify.policy_check")
        + own_s("verify.probe_set")
    )
    rows = {
        "hbr.observe_self_s": own_s("hbr.observe"),
        "hbr.observe_self_us_per_event": own_s("hbr.observe") * 1e6 / events,
        "hbr.relinked_events": loop.relinked_events,
        "hbr.relink_ratio": loop.relinked_events / events,
        "hbr.graph_bytes": resident.get("hbr.graph", 0),
        "hbr.index_bytes": resident.get("hbr.index", 0),
        "snapshot.closure_cache_bytes": resident.get(
            "snapshot.closure_cache", 0
        ),
        "obs.verdicts_bytes": resident.get("obs.verdicts", 0),
        "verify.us_per_delta": verify_s * 1e6 / deltas,
        "verify.ingest_self_s": own_s("verify.ingest"),
        "verify.apply_self_s": own_s("verify.apply"),
        "verify.policy_check_s": own_s("verify.policy_check"),
        "verify.addresses_checked": count("verify.policy_check"),
        "verify.probe_set_s": own_s("verify.probe_set"),
        "verify.probe_set_calls": count("verify.probe_set"),
        "snapshot.check_s": own_s("snapshot.check"),
        "snapshot.check_us": own_s("snapshot.check")
        * 1e6
        / max(1, count("snapshot.check")),
        "obs.monitor_s": own_s("obs.monitor"),
        "obs.ledger_record_s": own_s("obs.ledger_record"),
        "obs.ledger_file_bytes": (
            os.path.getsize(ledger_path) if loop.telemetry else 0
        ),
        "loop.span_feed_s": feed_s,
        "bench.span_coverage": sum(row[2] for row in totals.values())
        / 1e9
        / feed_s,
        "bench.span_overhead_share": feed_s / untraced_feed_s - 1,
    }
    return spans, rows


# -- the run --------------------------------------------------------------------


def run_workload(
    name: str,
    params: Params,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int,
    min_passes: int,
    out_dir: str,
    import_s: float,
    corrupt_reference: bool = False,
) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    ledger_path = os.path.join(out_dir, f"verdicts_{name}.jsonl")

    # 1. set-up, several times: setup_s reports the median.
    builds: List[float] = []
    scenario = None
    for _ in range(setups):
        scenario = None  # free the previous network first
        started = time.perf_counter()
        scenario = adapter.Scenario(params, seed)
        builds.append(time.perf_counter() - started)
    stream = scenario.stream

    # 2. churn phase: a fresh loop per pass, at least ``min_passes`` and
    # until --seconds are spent.  The stream is identical in every
    # pass, so each event keeps its fastest observe(): interference on
    # this shared box comes in 1-3 s bursts and only ever adds time.
    # Collecting before each pass puts the collector's own pauses at
    # the same events every pass, so the minimum keeps them.
    passes: List[List[int]] = []
    spent = 0
    while True:
        gc.collect()
        loop = adapter.Loop(scenario, ledger_path)
        times: List[int] = []
        timed_feed(loop.observe, stream, times)
        passes.append(times)
        spent += sum(times)
        if len(passes) >= min_passes and spent >= seconds * 1e9:
            break
        loop.close()
        loop = None
    totals = [sum(times) for times in passes]
    kept = [min(column) for column in zip(*passes)]
    feed_s = sum(kept) / 1e9
    churn_counts = loop.counts()
    churn_edges = loop.edges()

    # 3. sabotage rounds, on the last pass's loop.
    round_spans = SpanRecorder()
    loop.wrap_round_layers(round_spans.wrap)
    fed = list(stream)
    round_events = 0

    def feed(events: Sequence) -> None:
        nonlocal round_events
        observe = loop.observe
        for event in events:
            observe(event)
        round_events += len(events)
        fed.extend(events)

    failures: List[str] = []
    rounds: List[Dict[str, float]] = []
    for number in range(1, params.rounds + 1):
        failure, facts = run_round(loop, round_spans, feed, number)
        rounds.append(facts)
        if failure is not None:
            failures.append(failure)
    rounds_ok = params.rounds - len(failures)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # 5. reference checks (untimed), while the final loop is alive.
    checked, mismatches = adapter.reference_failures(
        loop, fed, corrupt=corrupt_reference
    )
    failures.extend(mismatches)
    loop.close()
    loop = None

    # 4. count pass.
    calls, profile_wall, stats = count_pass(scenario, ledger_path)

    verdict_us = sorted(
        t / 1e3 for t, e in zip(kept, stream) if scenario.is_verdict(e)
    )
    # A cycle is a serial sum of CYCLE_PARTS and the rounds repeat the
    # same cycle, so each part keeps its fastest reading and
    # repair_cycle_ms is their sum: a burst of interference would have
    # to hit the same part in every round to show.
    cycled = [r for r in rounds if "cycle" in r]
    cycles = [r["cycle"] / 1e6 for r in cycled]
    part_ms = {
        part: min((r[part] for r in cycled), default=0) / 1e6
        for part in CYCLE_PARTS
    }
    end_to_end = {
        "setup_s": import_s + statistics.median(builds),
        "events_per_s": len(stream) / feed_s,
        "verdict_p50_us": percentile(verdict_us, 0.50),
        "verdict_p99_us": percentile(verdict_us, 0.99),
        "repair_cycle_ms": sum(part_ms.values()),
        "peak_rss_mib": peak_rss_mib,
        "calls_per_event": calls / len(stream),
    }

    backlog_peak, backlog_lag_p99_ms = backlog_replay(
        scenario.arrival_times(stream), kept
    )
    layer = {
        "protocols.build_s": scenario.build_s,
        "protocols.run_s": scenario.run_s,
        "protocols.sim_events_per_s": len(stream) / scenario.run_s,
        "protocols.sabotage_run_s": sum(r["sabotage"] for r in rounds) / 1e9,
        "protocols.reconverge_ms": part_ms["protocols.reconverge"],
        "capture.events": len(stream),
        "capture.fib_events": sum(adapter.is_fib(e) for e in stream),
        "capture.out_of_order_share": adapter.out_of_order_share(stream),
        "hbr.edges": churn_edges,
        "hbr.edges_per_event": churn_edges / len(stream),
        "verify.deltas": churn_counts["deltas"],
        "verify.atoms_touched_per_delta": churn_counts["atoms_touched"]
        / max(1, churn_counts["deltas"]),
        "verify.batch_verify_ms": part_ms["verify.batch_verify"],
        "snapshot.checks": churn_counts["checks"],
        "obs.ledger_records": churn_counts["ledger_records"],
        "repair.rounds": params.rounds,
        "repair.rounds_ok": rounds_ok,
        "repair.cycle_median_ms": statistics.median(cycles) if cycles else 0.0,
        "repair.trace_ms": part_ms["repair.trace"],
        "repair.traced_fib_events": min((r["traced"] for r in cycled), default=0),
        "repair.ancestry_events": min((r["ancestry"] for r in cycled), default=0),
        "repair.rollback_self_ms": part_ms["repair.rollback_self"],
        "repair.restream_ms": part_ms["repair.restream"],
        "repair.cycle_other_ms": part_ms["repair.cycle_other"],
        "loop.feed_s": feed_s,
        "loop.events": len(stream) + round_events,
        "loop.burst_events_per_s": max(
            (r.get("burst_events_per_s", 0.0) for r in rounds), default=0.0
        ),
        "loop.backlog_peak_events": backlog_peak,
        "loop.backlog_lag_p99_ms": backlog_lag_p99_ms,
        "bench.passes": len(passes),
        "bench.pass_spread": max(totals) / min(totals) - 1,
        "bench.fastest_pass_excess_share": min(totals) / sum(kept) - 1,
        "bench.profile_overhead_share": profile_wall / feed_s - 1,
    }
    if trace:
        layer.update(profile_rows(stats, len(stream)))
        spans, rows = span_pass(scenario, ledger_path, feed_s)
        layer.update(rows)
        churn_spans = len(spans.spans)
        spans.spans.extend(
            [n, s, e, p + churn_spans if p >= 0 else -1, ident]
            for n, s, e, p, ident in round_spans.spans
        )
        spans.dump(
            os.path.join(out_dir, f"trace_{name}.json"),
            workload=name,
            seed=seed,
            churn_pass_spans=churn_spans,
        )

    return {
        "workload": name,
        "seed": seed,
        "params": vars(params),
        "ops_total": params.rounds + checked,
        "ops_failed": len(failures),
        "failures": failures,
        "samples": {
            "verdicts": len(verdict_us),
            "rounds": len(cycles),
            "passes": len(passes),
            "setups": setups,
        },
        "end_to_end": end_to_end,
        "per_layer": layer,
    }
