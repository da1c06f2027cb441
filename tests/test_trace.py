"""Tests for the causal trace exporters over the HBG, latency
attribution, and the records that hold what each pipeline stage did:
the HBG itself, the verdict ledger, and the metrics registry."""

import json
import pathlib

import pytest

from repro import obs
from repro.cli import _run_trace_scenario
from repro.cli import main as cli_main
from repro.hbr.inference import InferenceEngine
from repro.obs.ledger import KINDS
from repro.obs.trace import attribution, export
from repro.scenarios.fig2 import Fig2Scenario


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Never leak an enabled registry/ledger into other tests."""
    yield
    obs.disable()
    obs.disable_verdicts()


class TestObsWiring:
    def test_off_by_default(self):
        assert obs.get_registry().enabled is False
        assert obs.get_tracer().enabled is False
        assert obs.get_ledger().enabled is False
        assert obs.get_verdicts().enabled is False


# -- every stage's facts land in one record ------------------------------


def _build_fig2a():
    net = Fig2Scenario().run_fig2a()
    graph = InferenceEngine().build_graph(net.collector.all_events())
    return net, graph


class TestInstrumentation:
    def test_capture_layer_events_join_to_hbg_vertices(self):
        net, graph = _build_fig2a()
        captured = net.collector.all_events()
        assert len(captured) == len(graph.events())
        assert {e.event_id for e in captured} == {
            e.event_id for e in graph.events()
        }

    def test_hbr_edge_records_name_the_exact_edge(self):
        """Each exported flow names its edge's cause, effect, rule,
        technique and confidence exactly as the HBG holds them."""
        _net, graph = _build_fig2a()
        document = export.chrome_trace(graph)
        flows = {
            (e["args"]["cause"], e["args"]["effect"]): e["args"]
            for e in document["traceEvents"]
            if e.get("ph") == "s"
        }
        assert set(flows) == graph.edge_set()
        for edge in graph.edges():
            args = flows[edge.cause, edge.effect]
            assert args["rule"] == edge.evidence.rule
            assert args["technique"] == edge.evidence.technique
            assert args["confidence"] == round(edge.evidence.confidence, 6)

    def test_sim_events_counted_in_registry(self):
        with obs.capturing() as (registry, _tracer):
            net, _graph = _build_fig2a()
        counted = {c.name: c.value for c in registry.counters()}
        assert counted["sim.events_processed_total"] == (
            net.sim.events_processed
        )
        assert net.sim.events_processed > 0

    def test_full_pipeline_records_every_kind(self):
        with obs.verdicts() as ledger:
            _run_pipeline_scenario_inline()
        assert {record.kind for record in ledger.records()} == set(KINDS)

    def test_guard_records_one_verdict_per_guarded_write(self):
        """The guard's verdicts are the registry's fib-write counters,
        and each write it flags keeps an incident with provenance."""
        with obs.capturing() as (registry, _tracer):
            _net, pipeline = _run_pipeline_scenario_inline()
        counted = {c.name: c.value for c in registry.counters()}
        assert counted["verify.fib_writes_verified"] == (
            pipeline.updates_checked
        ) > 0
        assert counted["verify.fib_writes_blocked"] == (
            pipeline.updates_blocked
        ) == len(pipeline.incidents) > 0
        assert all(i.provenance is not None for i in pipeline.incidents)

    def test_trace_is_deterministic_across_runs(self):
        def run():
            _net, graph = _build_fig2a()
            return json.dumps(export.chrome_trace(graph), sort_keys=True)

        from repro.capture.io_events import reset_event_ids

        reset_event_ids()
        first = run()
        reset_event_ids()
        second = run()
        assert first == second


def _run_pipeline_scenario_inline():
    """The Fig. 3 pipeline in REPAIR mode over the Fig. 2 episode.

    Inline (rather than via the CLI helper) so it also runs the
    offline §6 path: guarded writes, incremental verdicts, provenance
    walks, a rollback, and a snapshot verification.
    """
    from repro.core.pipeline import IntegratedControlPlane, PipelineMode
    from repro.scenarios.fig2 import bad_lp_change
    from repro.scenarios.paper_net import P, paper_policy
    from repro.verify.policy import LoopFreedomPolicy

    net = Fig2Scenario().run_baseline()
    pipeline = IntegratedControlPlane(
        net,
        [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
        mode=PipelineMode.REPAIR,
    ).arm()
    net.apply_config_change(bad_lp_change())
    net.run(120)
    pipeline.detect_and_repair()
    return net, pipeline


# -- exporters -------------------------------------------------------------


class TestChromeExport:
    def test_pipeline_scenario_validates_with_one_track_per_router(self):
        graph = _run_trace_scenario("pipeline")
        document = export.chrome_trace(graph)
        assert export.validate_chrome_trace(document) == []
        tracks = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        # One track per router that logged an HBG event, nothing else.
        assert {"R1", "R2", "R3"}.issubset(tracks)
        assert tracks == {event.router for event in graph.events()}

    def test_flow_events_match_hbg_edges_exactly(self):
        graph = _run_trace_scenario("pipeline")
        document = export.chrome_trace(graph)
        assert export.chrome_flow_edges(document) == graph.edge_set()

    def test_slice_timestamps_non_decreasing_per_track(self):
        graph = _run_trace_scenario("fig2")
        document = export.chrome_trace(graph)
        per_track = {}
        for event in document["traceEvents"]:
            if event.get("ph") == "X":
                per_track.setdefault(event["tid"], []).append(event["ts"])
        assert per_track
        for timestamps in per_track.values():
            assert timestamps == sorted(timestamps)

    def test_validator_rejects_structural_damage(self):
        graph = _run_trace_scenario("fig2")
        document = export.chrome_trace(graph)
        orphan = {"name": "x", "ph": "s", "id": 10**9, "ts": 0.0,
                  "pid": 1, "tid": 1}
        document["traceEvents"].append(orphan)
        assert any(
            "missing an s/f endpoint" in problem
            for problem in export.validate_chrome_trace(document)
        )
        assert export.validate_chrome_trace({"traceEvents": None})
        assert export.validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x"}]}
        )


class TestOtlpExport:
    def test_pipeline_scenario_validates(self):
        graph = _run_trace_scenario("pipeline")
        document = export.otlp_spans(graph)
        assert export.validate_otlp_spans(document) == []

    def test_parents_plus_links_reproduce_hbg_edges(self):
        graph = _run_trace_scenario("pipeline")
        document = export.otlp_spans(graph)
        assert export.otlp_parent_edges(document) == graph.edge_set()

    def test_parent_is_highest_confidence_in_edge(self):
        graph = _run_trace_scenario("fig2")
        document = export.otlp_spans(graph)
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        by_id = {span["spanId"]: span for span in spans}
        for event in graph.events():
            parents = graph.parents(event.event_id)
            if not parents:
                continue
            best = max(
                parents,
                key=lambda p: (p[1].confidence, p[0].timestamp, p[0].event_id),
            )
            span = by_id[export.span_id(event.event_id)]
            assert span["parentSpanId"] == export.span_id(best[0].event_id)

    def test_validator_rejects_unresolved_parent(self):
        graph = _run_trace_scenario("fig2")
        document = export.otlp_spans(graph)
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        spans[0]["parentSpanId"] = "f" * 16
        assert any(
            "resolves to no span" in problem
            for problem in export.validate_otlp_spans(document)
        )

    def test_span_ids_are_deterministic(self):
        assert export.span_id(7) == export.span_id(7)
        assert export.span_id(7) != export.span_id(8)
        assert len(export.span_id(7)) == 16


class TestTextTimeline:
    def test_per_router_sections_and_causal_annotations(self):
        graph = _run_trace_scenario("fig2")
        text = export.text_timeline(graph)
        for router in ("R1", "R2", "R3"):
            assert f"== {router} ==" in text
        assert "== pipeline ==" not in text
        assert "<-" in text  # at least one causal annotation


# -- latency attribution ---------------------------------------------------


class TestAttribution:
    def test_fig2_repair_scenario_reports_per_rule_histograms(self):
        graph = _run_trace_scenario("pipeline")
        with obs.capturing() as (registry, _tracer):
            report = attribution.attribute_latency(graph)
        assert report.fib_updates > 0
        assert report.paths, "repair scenario must attribute some paths"
        # The chain rib->fib must appear as an attributed rule.
        assert "rib-before-fib" in report.per_rule
        labelled = {
            (h.name, dict(h.labels).get("rule"))
            for h in registry.histograms()
            if h.name == "trace.hop_latency_seconds"
        }
        assert labelled  # one histogram per HBR rule
        assert {rule for _n, rule in labelled} == set(report.per_rule)
        end_to_end = [
            h
            for h in registry.histograms()
            if h.name == "trace.root_to_fib_seconds"
        ]
        assert end_to_end and end_to_end[0].count == len(report.paths)

    def test_hop_sums_are_consistent_with_paths(self):
        graph = _run_trace_scenario("fig2")
        report = attribution.attribute_latency(graph)
        for path in report.paths:
            assert path.seconds >= 0
            assert all(hop.seconds >= 0 for hop in path.hops)
            # Hops chain cause->effect from root to the FIB update.
            assert path.hops[0].cause == path.root
            assert path.hops[-1].effect == path.fib_update

    def test_report_serialises_and_renders(self):
        graph = _run_trace_scenario("fig2")
        report = attribution.attribute_latency(graph)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["attributed_paths"] == len(report.paths)
        assert set(document["per_rule"]) == set(report.per_rule)
        lines = report.table_lines()
        assert any("slowest" in line for line in lines)

    def test_no_registry_side_effects_when_disabled(self):
        graph = _run_trace_scenario("fig2")
        attribution.attribute_latency(graph)
        assert len(obs.get_registry()) == 0


# -- CLI -------------------------------------------------------------------


class TestTraceCli:
    def test_chrome_export_validates(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        rc = cli_main(
            [
                "trace",
                "--scenario",
                "pipeline",
                "--format",
                "chrome",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert export.validate_chrome_trace(document) == []

    def test_otlp_to_stdout(self, capsys):
        rc = cli_main(["trace", "--scenario", "fig2", "--format", "otlp"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert export.validate_otlp_spans(document) == []

    def test_table_with_attribution(self, capsys):
        rc = cli_main(
            ["trace", "--scenario", "fig2", "--format", "table", "--attribute"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "== R1 ==" in captured.out
        assert "latency attribution" in captured.err

    @pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig5", "pipeline"])
    def test_every_scenario_exports_in_every_format(self, scenario, capsys):
        for fmt in ("chrome", "otlp", "table"):
            assert cli_main(
                ["trace", "--scenario", scenario, "--format", fmt]
            ) == 0
        capsys.readouterr()

    def test_cli_state_is_restored(self, capsys):
        cli_main(["trace", "--scenario", "fig2", "--format", "table"])
        capsys.readouterr()
        assert obs.get_registry().enabled is False
        assert obs.get_verdicts().enabled is False


# -- fuzz artifacts --------------------------------------------------------


class TestFuzzTraceArtifacts:
    def test_failure_artifact_carries_no_trace_block(self, tmp_path):
        """The shrunk plan replays the failing run; the artifact holds
        no per-case event tail beside it."""
        from repro.testkit import load_artifact
        from repro.testkit import oracles as oracles_mod
        from repro.testkit.oracles import OracleVerdict
        from repro.testkit.runner import FuzzRunner

        def planted_failure(context):
            context.shared  # force plan execution
            return OracleVerdict(
                oracle="planted-failure", ok=False, detail="planted"
            )

        oracles_mod.ORACLES["planted-failure"] = planted_failure
        try:
            runner = FuzzRunner(
                oracle_names=["planted-failure"],
                artifacts_dir=tmp_path,
                shrink_failures=False,
            )
            report = runner.run(seed=3, cases=1)
            [result] = report.results
            path = pathlib.Path(result.artifact_path)
            written = json.loads(path.read_text())
            assert written["schema"] == 2
            assert "trace" not in written
            assert load_artifact(path).to_dict() == written
        finally:
            del oracles_mod.ORACLES["planted-failure"]

    def test_schema_one_artifacts_still_load(self, tmp_path):
        """v1 artifacts, and v2 ones written with a recorded ``trace``
        block, load, replay to their ``expect`` and re-serialise as
        schema 2 without ``trace``."""
        from repro.testkit import load_artifact
        from repro.testkit.artifacts import artifact_matches_expectation
        from repro.testkit.case import FuzzCase

        legacy = {
            "schema": 1,
            "oracle": "snapshot-consistency",
            "expect": "pass",
            "case": FuzzCase(seed=1).to_dict(),
            "events": [],
            "probe_times": [],
        }
        committed = (
            pathlib.Path(__file__).parent
            / "fixtures"
            / "fuzz_regressions"
            / "hbg-distributed-seed753266700-4ev.json"
        )
        traced = json.loads(committed.read_text())
        assert traced["schema"] == 2
        traced["trace"] = [
            {"seq": 0, "kind": "sim_event", "at": 1.0, "detail": "start"},
            {
                "seq": 1,
                "kind": "io_captured",
                "at": 1.2,
                "router": "R0",
                "event_id": 3,
                "attrs": {"peer": "R1"},
            },
        ]
        for name, data in (("legacy", legacy), ("traced", traced)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            artifact = load_artifact(path)
            artifact_matches_expectation(artifact)
            rewritten = artifact.to_dict()
            assert rewritten["schema"] == 2
            assert "trace" not in rewritten
            assert rewritten["events"] == data["events"]
            assert rewritten["expect"] == data["expect"]

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99}))
        from repro.testkit import load_artifact

        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)
