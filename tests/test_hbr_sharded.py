"""Tests for the fork-and-merge sharding of DistributedHbg.build_all.

The shard assignment, the forked/in-process record builds and the
parent-side obs replay used to live in ``repro.hbr.sharded`` behind
``build_graph(parallel=N)``; ``build_all(workers=N)`` is now the only
fork-and-merge build, so every surviving behaviour is asserted against
it here.
"""

import pytest

from repro import obs
from repro.hbr import distributed
from repro.hbr.distributed import DistributedHbg, shard_routers
from repro.hbr.inference import InferenceEngine
from repro.scenarios.fig2 import Fig2Scenario


@pytest.fixture
def fig2_events():
    net = Fig2Scenario(seed=7).run_fig2a()
    return net.collector.all_events()


def _build_all(events, workers):
    dist = DistributedHbg(InferenceEngine())
    dist.ingest_all(events)
    dist.build_all(workers=workers)
    return dist


class TestShardRouters:
    def test_round_robin_over_sorted_names(self):
        shards = shard_routers(["R3", "R1", "R2", "R4"], workers=2)
        assert shards == [["R1", "R3"], ["R2", "R4"]]

    def test_assignment_ignores_input_order(self):
        routers = ["R5", "R2", "R9", "R1", "R7"]
        forward = shard_routers(routers, workers=3)
        backward = shard_routers(list(reversed(routers)), workers=3)
        assert forward == backward

    def test_more_workers_than_routers_drops_empty_shards(self):
        shards = shard_routers(["R1", "R2"], workers=8)
        assert shards == [["R1"], ["R2"]]

    def test_workers_floor_is_one(self):
        assert shard_routers(["R1", "R2"], workers=0) == [["R1", "R2"]]

    def test_every_router_lands_in_exactly_one_shard(self):
        routers = [f"R{i}" for i in range(17)]
        shards = shard_routers(routers, workers=4)
        flat = [r for shard in shards for r in shard]
        assert sorted(flat) == sorted(routers)


class TestShardedBuild:
    def test_byte_identical_to_serial(self, fig2_events):
        serial = InferenceEngine().build_graph(fig2_events)
        for workers in (2, 3):
            dist = _build_all(fig2_events, workers)
            assert dist.merged_graph().to_records() == serial.to_records()
            assert dist.last_build.workers == workers

    def test_workers_exceeding_router_count(self, fig2_events):
        serial = InferenceEngine().build_graph(fig2_events)
        dist = _build_all(fig2_events, 64)
        assert dist.merged_graph().to_records() == serial.to_records()
        # One shard per router at most: empty shards are dropped.
        assert dist.last_build.workers == len(dist.routers())

    def test_in_process_fallback_is_identical(
        self, fig2_events, monkeypatch
    ):
        """Platforms without fork run the shards sequentially in
        process; the merge must not care which way the records came."""
        forked = _build_all(fig2_events, 2)
        monkeypatch.setattr(distributed, "_fork_context", lambda: None)
        inline = _build_all(fig2_events, 2)
        assert inline._records == forked._records
        assert (
            inline.merged_graph().to_records()
            == forked.merged_graph().to_records()
        )

    def test_obs_replay_matches_serial_counters(self, fig2_events):
        registry, _tracer = obs.enable()
        try:
            dist = _build_all(fig2_events, 2)
            edges = registry.counter("inference.hbg_edges_inferred")
            assert edges.value == len(dist._records)
            assert dist.merged_graph().edge_count() == len(dist._records)
            assert registry.counter("distributed.builds_total").value == 1
        finally:
            obs.disable()

    def test_rule_timings_survive_the_fork(self, fig2_events):
        """Per-rule inference timings must reach the parent registry.

        Workers may not touch the forked registry copy (CONC001), so
        shards return timing aggregates that the parent replays into
        `inference.rule_invocations_total` / `..rule_seconds_total`.
        The invocation counts must equal the serial build's
        `inference.rule_seconds` histogram sample counts — same
        events, same rules, same number of rule invocations.
        """
        events = list(fig2_events)
        registry, _tracer = obs.enable()
        try:
            InferenceEngine().build_graph(events)
            serial_counts = {
                h.labels: h.count
                for h in registry.histograms()
                if h.name == "inference.rule_seconds"
            }
        finally:
            obs.disable()
        assert serial_counts, "serial build recorded no rule timings"

        registry, _tracer = obs.enable()
        try:
            _build_all(events, 2)
            forked_counts = {
                c.labels: c.value
                for c in registry.counters()
                if c.name == "inference.rule_invocations_total"
            }
            forked_seconds = {
                c.labels: c.value
                for c in registry.counters()
                if c.name == "inference.rule_seconds_total"
            }
        finally:
            obs.disable()
        assert forked_counts == serial_counts
        assert set(forked_seconds) == set(serial_counts)
        assert all(v >= 0 for v in forked_seconds.values())

    def test_infer_shard_timings_disabled_without_registry(
        self, fig2_events
    ):
        dist = DistributedHbg(InferenceEngine())
        dist.ingest_all(fig2_events)
        dist.exchange_summaries()
        records, timings = distributed._infer_shard(
            dist.subgraphs, dist.routers()
        )
        assert records
        assert timings == {}
