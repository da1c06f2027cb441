"""Experiment C-INF — §4.2's claim: "we expect a combination of these
(and other) techniques will be necessary to obtain suitable accuracy".

Scores each inference technique against the simulator's ground-truth
dependency channel on random networks under route churn:

* naive (prefix+timestamp filters alone — the strawman the paper
  rules out), :func:`repro.testkit.oracles.naive_graph`;
* rule matching, the engine;
* pattern matching (miner trained on a separate policy-compliant run),
  :func:`repro.testkit.oracles.pattern_graph`;
* rules + patterns: the rule graph plus pattern edges from antecedents
  no rule linked into that consequent.

Two tables explain the rows: each rule's true and false edges, and a
rule-deletion ablation — delete one rule, and count how many of the
true edges it alone found the miner recovers on the consequents no
remaining rule explains, and how many false edges that costs.

The benchmark measures rule-based graph construction on the largest
trace.
"""

from collections import Counter

import pytest

from repro.hbr.inference import InferenceEngine, score_inference
from repro.hbr.rules import default_rules
from repro.scenarios.generators import (
    build_random_network,
    churn_workload,
    external_prefixes,
)
from repro.testkit.oracles import PatternMiner, naive_graph, pattern_graph

from _report import emit, shape_line, table

SEEDS = (3, 7, 11)


def _capture(seed):
    net, specs = build_random_network(6, uplinks=2, seed=seed)
    net.start()
    churn_workload(net, specs, external_prefixes(5), events=10, start=2.0, seed=seed)
    net.run(40)
    return net


@pytest.fixture(scope="module")
def captures():
    return {seed: _capture(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def miner(captures):
    trainer = PatternMiner(window=1.0)
    training_net = _capture(seed=99)  # separate policy-compliant run
    trainer.train(training_net.collector.all_events())
    return trainer


def _truth(net):
    """Ground-truth edges between events the collector saw."""
    seen = {e.event_id for e in net.collector}
    return {
        (cause, effect)
        for cause, effect in net.ground_truth.edge_set()
        if cause in seen and effect in seen
    }


def _avg_scores(captures, build):
    precision = recall = f1 = 0.0
    for net in captures.values():
        graph = build(net.collector.all_events())
        obs = {e.event_id for e in net.collector}
        score = score_inference(graph, net.ground_truth, observable_ids=obs)
        precision += score.precision
        recall += score.recall
        f1 += score.f1
    n = len(captures)
    return precision / n, recall / n, f1 / n


def _per_rule(captures):
    """rule -> (true edges, false edges) of the rule graph, over all seeds."""
    true, false = Counter(), Counter()
    for net in captures.values():
        truth = _truth(net)
        for edge in InferenceEngine().build_graph(net.collector.all_events()).edges():
            tally = true if (edge.cause, edge.effect) in truth else false
            tally[edge.evidence.rule] += 1
    return {rule: (true[rule], false[rule]) for rule in sorted(true | false)}


def _ablation(captures, miner, rule_names):
    """rule -> (true edges lost without it, recovered by patterns on
    unexplained consequents, false edges those patterns add)."""
    totals = {name: [0, 0, 0] for name in rule_names}
    for net in captures.values():
        events = net.collector.all_events()
        truth = _truth(net)
        full = InferenceEngine().build_graph(events).edge_set()
        patterns = pattern_graph(events, miner).edge_set()
        for name in rule_names:
            kept = [rule for rule in default_rules() if rule.name != name]
            without = InferenceEngine(rules=kept).build_graph(events)
            lost = (full - without.edge_set()) & truth
            unexplained = {
                edge
                for edge in patterns
                if not without.parents(edge[1])
            }
            row = totals[name]
            row[0] += len(lost)
            row[1] += len(unexplained & lost)
            row[2] += len(unexplained - truth)
    return totals


def test_hbr_inference_accuracy(benchmark, captures, miner):
    def rules(events):
        return InferenceEngine().build_graph(events)

    techniques = {
        "naive (prefix+time only)": naive_graph,
        "rule matching": rules,
        "pattern matching": lambda events: pattern_graph(events, miner),
        "rules + patterns": lambda events: pattern_graph(
            events, miner, base=rules(events)
        ),
    }
    results = {
        name: _avg_scores(captures, build)
        for name, build in techniques.items()
    }
    per_rule = _per_rule(captures)
    ablation = _ablation(captures, miner, per_rule)

    biggest = max(captures.values(), key=lambda n: len(n.collector))
    events = biggest.collector.all_events()
    benchmark(lambda: InferenceEngine().build_graph(events))

    naive_p = results["naive (prefix+time only)"][0]
    rules_p, rules_r, rules_f1 = results["rule matching"]
    patterns_p, patterns_r, _ = results["pattern matching"]
    combined_f1 = results["rules + patterns"][2]
    claims = {
        "prefixes/timestamps alone are only filters (naive precision "
        "under a tenth of the rules')": naive_p < rules_p / 10,
        "rules are accurate but need protocol knowledge (recall "
        ">= 0.95)": rules_r >= 0.95,
        "patterns are automatic but miss HBRs and are noisier (pattern "
        "recall and precision below the rules')": (
            patterns_r < rules_r and patterns_p < rules_p
        ),
        "patterns do not stand in for a deleted rule (fewer true edges "
        "recovered than false ones added, for every rule)": all(
            recovered < added
            for lost, recovered, added in ablation.values()
            if lost
        ),
        "so the engine combines filters with rules only (rules + "
        "patterns F1 below rules alone)": combined_f1 < rules_f1,
    }

    lines = [
        f"HBR inference accuracy vs simulator ground truth "
        f"(mean over seeds {SEEDS}, random 6-router nets + churn):",
        "",
    ]
    lines += table(
        ("technique", "precision", "recall", "f1"),
        [
            (name, f"{p:.3f}", f"{r:.3f}", f"{f:.3f}")
            for name, (p, r, f) in results.items()
        ],
    )
    lines += ["", "rule matching, per rule (edges summed over the seeds):", ""]
    lines += table(
        ("rule", "true edges", "false edges"),
        [(rule, true, false) for rule, (true, false) in per_rule.items()],
    )
    lines += [
        "",
        "rule-deletion ablation (summed over the seeds): delete one rule; "
        "patterns fire only on consequents no remaining rule explains:",
        "",
    ]
    lines += table(
        ("deleted rule", "true edges lost", "recovered by patterns",
         "false edges added"),
        [(rule, *row) for rule, row in ablation.items()],
    )
    lines += ["", shape_line(claims)]
    emit("C-INF_inference_accuracy", lines)
    assert all(claims.values()), claims
