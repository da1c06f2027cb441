"""Tests for the causal flight recorder, trace exporters, latency
attribution, and the instrumentation/overhead contracts around them."""

import ast
import json
import os

import pytest

from repro import obs
from repro.cli import _run_trace_scenario
from repro.cli import main as cli_main
from repro.hbr.inference import InferenceEngine
from repro.lint.rules.obs_rules import SITES
from repro.obs.trace import (
    FlightRecorder,
    NullRecorder,
    TraceEvent,
    TraceKind,
)
from repro.obs.trace import attribution, export
from repro.scenarios.fig2 import Fig2Scenario


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Never leak an enabled registry/recorder into other tests."""
    yield
    obs.disable()
    obs.disable_recording()


# -- ring buffer -----------------------------------------------------------


class TestFlightRecorder:
    def test_records_in_order_with_monotonic_seq(self):
        recorder = FlightRecorder(capacity=10)
        for t in (0.1, 0.2, 0.3):
            recorder.record(TraceKind.SIM_EVENT, at=t, router="R1")
        events = recorder.events()
        assert [e.seq for e in events] == [1, 2, 3]
        assert [e.at for e in events] == [0.1, 0.2, 0.3]
        assert recorder.recorded_total == 3
        assert recorder.dropped == 0

    def test_drop_oldest_evicts_ring_head(self):
        recorder = FlightRecorder(capacity=3, overflow="drop-oldest")
        for i in range(7):
            recorder.record(TraceKind.SIM_EVENT, at=float(i))
        assert len(recorder) == 3
        assert recorder.dropped == 4
        assert recorder.recorded_total == 7
        # The newest three survive, order preserved.
        assert [e.seq for e in recorder.events()] == [5, 6, 7]

    def test_drop_newest_keeps_run_head(self):
        recorder = FlightRecorder(capacity=3, overflow="drop-newest")
        kept = [
            recorder.record(TraceKind.SIM_EVENT, at=float(i))
            for i in range(6)
        ]
        assert [e.seq for e in recorder.events()] == [1, 2, 3]
        assert recorder.dropped == 3
        assert kept[3] is None and kept[0] is not None

    def test_eviction_compacts_backing_list(self):
        recorder = FlightRecorder(capacity=4, overflow="drop-oldest")
        for i in range(100):
            recorder.record(TraceKind.SIM_EVENT, at=float(i))
        # The lazy compaction keeps storage O(capacity), not O(total).
        assert len(recorder._events) <= 2 * recorder.capacity
        assert [e.at for e in recorder.events()] == [96.0, 97.0, 98.0, 99.0]

    def test_tail_and_filters(self):
        recorder = FlightRecorder(capacity=10)
        recorder.record(TraceKind.SIM_EVENT, at=0.1, router="R1")
        recorder.record(TraceKind.IO_CAPTURED, at=0.2, router="R2", event_id=7)
        recorder.record(TraceKind.IO_CAPTURED, at=0.3, router="R1", event_id=8)
        assert [e.seq for e in recorder.tail(2)] == [2, 3]
        assert recorder.tail(0) == []
        assert [e.event_id for e in recorder.events(TraceKind.IO_CAPTURED)] == [
            7,
            8,
        ]
        assert [e.seq for e in recorder.events(router="R1")] == [1, 3]

    def test_record_roundtrip(self):
        recorder = FlightRecorder(capacity=4)
        original = recorder.record(
            TraceKind.HBR_EDGE,
            at=1.5,
            router="R2",
            event_id=42,
            detail="x",
            rule="rib-before-fib",
            confidence=0.9,
        )
        restored = TraceEvent.from_record(
            json.loads(json.dumps(original.to_record()))
        )
        assert restored == original
        assert restored.attr("rule") == "rib-before-fib"
        assert restored.attr("missing", "d") == "d"

    def test_validates_capacity_and_policy(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(overflow="wrap")

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(5):
            recorder.record(TraceKind.ROLLBACK, at=float(i))
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dropped == 0
        assert recorder.events() == []

    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert null.enabled is False
        assert null.record(TraceKind.SIM_EVENT, at=0.0) is None
        assert len(null) == 0
        assert null.events() == [] and null.tail(5) == []


class TestObsWiring:
    def test_off_by_default(self):
        assert obs.get_recorder().enabled is False

    def test_enable_disable_recording(self):
        recorder = obs.enable_recording(capacity=8)
        assert obs.get_recorder() is recorder and recorder.enabled
        obs.disable_recording()
        assert obs.get_recorder().enabled is False

    def test_recording_context_restores_previous(self):
        outer = obs.enable_recording(capacity=8)
        with obs.recording(capacity=4) as inner:
            assert obs.get_recorder() is inner
            assert inner.capacity == 4
        assert obs.get_recorder() is outer
        obs.disable_recording()

    def test_recording_independent_of_metrics(self):
        with obs.recording():
            assert obs.get_recorder().enabled
            assert not obs.get_registry().enabled


# -- instrumentation: every stage lands in the ring ------------------------


def _record_fig2a():
    with obs.recording(capacity=100_000) as recorder:
        net = Fig2Scenario().run_fig2a()
        graph = InferenceEngine().build_graph(net.collector.all_events())
    return net, graph, recorder


class TestInstrumentation:
    def test_capture_layer_events_join_to_hbg_vertices(self):
        net, graph, recorder = _record_fig2a()
        captured = recorder.events(TraceKind.IO_CAPTURED)
        assert len(captured) == len(net.collector)
        hbg_ids = {e.event_id for e in graph.events()}
        assert {e.event_id for e in captured} == hbg_ids

    def test_hbr_edge_records_name_the_exact_edge(self):
        _net, graph, recorder = _record_fig2a()
        recorded = {
            (e.attr("cause"), e.event_id)
            for e in recorder.events(TraceKind.HBR_EDGE)
        }
        assert recorded == graph.edge_set()
        sample = recorder.events(TraceKind.HBR_EDGE)[0]
        assert sample.attr("technique") in ("rule", "pattern", "naive")
        assert 0.0 <= sample.attr("confidence") <= 1.0

    def test_sim_events_recorded_with_sim_timestamps(self):
        _net, _graph, recorder = _record_fig2a()
        fired = recorder.events(TraceKind.SIM_EVENT)
        assert fired
        times = [e.at for e in fired]
        assert times == sorted(times)

    def test_full_pipeline_records_every_kind(self):
        with obs.recording(capacity=100_000) as recorder:
            _run_pipeline_scenario_inline()
        kinds = {e.kind for e in recorder.events()}
        assert kinds == set(TraceKind)

    def test_guard_records_one_verdict_per_guarded_write(self):
        """The what-if guard never calls ``DataPlaneVerifier.verify``
        (which used to record two verdicts per write on its behalf)."""
        with obs.recording(capacity=100_000) as recorder:
            _net, pipeline = _run_pipeline_scenario_inline()
        guarded = [
            e
            for e in recorder.events(TraceKind.VERIFY_VERDICT)
            if e.router is not None
        ]
        assert len(guarded) == pipeline.updates_checked > 0
        assert sum(e.detail == "violations" for e in guarded) == len(
            pipeline.incidents
        )

    def test_trace_is_deterministic_across_runs(self):
        def run():
            with obs.recording(capacity=100_000) as recorder:
                Fig2Scenario().run_fig2a()
            return [e.to_record() for e in recorder.events()]

        from repro.capture.io_events import reset_event_ids

        reset_event_ids()
        first = run()
        reset_event_ids()
        second = run()
        assert first == second


def _run_pipeline_scenario_inline():
    """The Fig. 3 pipeline in REPAIR mode over the Fig. 2 episode.

    Inline (rather than via the CLI helper) so this file controls the
    recorder's scope; it must exercise verify verdicts (one per
    guarded write), provenance walks, a rollback and — through the
    offline §6 path, the one that still builds snapshots — a snapshot
    build.
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
        graph, recorder = _run_trace_scenario("pipeline")
        document = export.chrome_trace(graph, recorder)
        assert export.validate_chrome_trace(document) == []
        tracks = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        # One track per router in the Fig. 1 topology, plus the
        # pipeline track for recorder events.
        assert {"R1", "R2", "R3"}.issubset(tracks)

    def test_flow_events_match_hbg_edges_exactly(self):
        graph, recorder = _run_trace_scenario("pipeline")
        document = export.chrome_trace(graph, recorder)
        assert export.chrome_flow_edges(document) == graph.edge_set()

    def test_slice_timestamps_non_decreasing_per_track(self):
        graph, recorder = _run_trace_scenario("fig2")
        document = export.chrome_trace(graph, recorder)
        per_track = {}
        for event in document["traceEvents"]:
            if event.get("ph") == "X":
                per_track.setdefault(event["tid"], []).append(event["ts"])
        assert per_track
        for timestamps in per_track.values():
            assert timestamps == sorted(timestamps)

    def test_validator_rejects_structural_damage(self):
        graph, recorder = _run_trace_scenario("fig2")
        document = export.chrome_trace(graph, recorder)
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
        graph, recorder = _run_trace_scenario("pipeline")
        document = export.otlp_spans(graph, recorder)
        assert export.validate_otlp_spans(document) == []

    def test_parents_plus_links_reproduce_hbg_edges(self):
        graph, recorder = _run_trace_scenario("pipeline")
        document = export.otlp_spans(graph, recorder)
        assert export.otlp_parent_edges(document) == graph.edge_set()

    def test_parent_is_highest_confidence_in_edge(self):
        graph, _recorder = _run_trace_scenario("fig2")
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
        graph, _recorder = _run_trace_scenario("fig2")
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
        graph, recorder = _run_trace_scenario("fig2")
        text = export.text_timeline(graph, recorder)
        for router in ("R1", "R2", "R3"):
            assert f"== {router} ==" in text
        assert "== pipeline ==" in text
        assert "<-" in text  # at least one causal annotation


# -- latency attribution ---------------------------------------------------


class TestAttribution:
    def test_fig2_repair_scenario_reports_per_rule_histograms(self):
        graph, _recorder = _run_trace_scenario("pipeline")
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
        graph, _recorder = _run_trace_scenario("fig2")
        report = attribution.attribute_latency(graph)
        for path in report.paths:
            assert path.seconds >= 0
            assert all(hop.seconds >= 0 for hop in path.hops)
            # Hops chain cause->effect from root to the FIB update.
            assert path.hops[0].cause == path.root
            assert path.hops[-1].effect == path.fib_update

    def test_report_serialises_and_renders(self):
        graph, _recorder = _run_trace_scenario("fig2")
        report = attribution.attribute_latency(graph)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["attributed_paths"] == len(report.paths)
        assert set(document["per_rule"]) == set(report.per_rule)
        lines = report.table_lines()
        assert any("slowest" in line for line in lines)

    def test_no_registry_side_effects_when_disabled(self):
        graph, _recorder = _run_trace_scenario("fig2")
        attribution.attribute_latency(graph)
        assert len(obs.get_registry()) == 0


# -- drift + overhead guards ----------------------------------------------


def _site_function(module: str, qualname: str) -> ast.AST:
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.path.join(root, *module.split(".")) + ".py"
    tree = ast.parse(open(path).read())
    node = tree
    for part in qualname.split("."):
        node = next(
            child
            for child in ast.walk(node)
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and child.name == part
        )
    return node


TRACE_SITES = [site for site in SITES if site.witness == "recorder"]


class TestTraceSiteContracts:
    def test_catalogue_and_kind_enum_cannot_drift(self):
        """The recorder sites and TraceKind must cover each other (a
        kind may have two sites: the batch verifier and the Fig. 3
        guard both record VERIFY_VERDICT)."""
        assert {site.emits for site in TRACE_SITES} == {
            member.name for member in TraceKind
        }, (
            "the recorder sites in SITES (repro/lint/rules/obs_rules.py) "
            "and TraceKind (repro/obs/trace/recorder.py) have drifted apart"
        )

    def test_every_site_guards_on_recorder_enabled(self):
        """The disabled fast path is one attribute check per site."""
        for site in TRACE_SITES:
            func = _site_function(site.module, site.qualname)
            guards = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and isinstance(node.value, ast.Name)
                and node.value.id == "recorder"
            ]
            assert guards, (
                f"{site.module}:{site.qualname} must guard recording "
                "behind a single `recorder.enabled` check"
            )

    def test_disabled_recorder_never_reaches_record(self):
        """Behavioral half of the overhead guard: with recording off,
        no instrumentation site may even *call* record()."""

        class TrippingRecorder(NullRecorder):
            def record(self, *args, **kwargs):
                raise AssertionError(
                    "record() called while recorder.enabled is False"
                )

        import repro.obs as obs_module

        previous = obs_module._recorder
        obs_module._recorder = TrippingRecorder()
        try:
            net, _pipeline = _run_pipeline_scenario_inline()
            assert len(net.collector) > 0
        finally:
            obs_module._recorder = previous

    def test_disabled_recorder_records_nothing(self):
        Fig2Scenario().run_fig2a()
        assert len(obs.get_recorder()) == 0


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

    def test_ring_size_controls_eviction(self, capsys):
        rc = cli_main(
            [
                "trace",
                "--scenario",
                "fig2",
                "--format",
                "table",
                "--ring-size",
                "10",
                "--overflow",
                "drop-newest",
            ]
        )
        assert rc == 0
        capsys.readouterr()

    def test_cli_state_is_restored(self, capsys):
        cli_main(["trace", "--scenario", "fig2", "--format", "table"])
        capsys.readouterr()
        assert obs.get_recorder().enabled is False


# -- fuzz artifacts carry a trace tail -------------------------------------


class TestFuzzTraceArtifacts:
    def test_failure_artifact_embeds_recorder_tail(self, tmp_path):
        from repro.testkit import load_artifact
        from repro.testkit import oracles as oracles_mod
        from repro.testkit.oracles import OracleVerdict
        from repro.testkit.runner import FuzzRunner

        def planted_failure(context):
            context.shared  # force plan execution under the recorder
            return OracleVerdict(
                oracle="planted-failure", ok=False, detail="planted"
            )

        oracles_mod.ORACLES["planted-failure"] = planted_failure
        try:
            runner = FuzzRunner(
                oracle_names=["planted-failure"],
                artifacts_dir=tmp_path,
                shrink_failures=False,
                trace_tail=50,
            )
            report = runner.run(seed=3, cases=1)
        finally:
            del oracles_mod.ORACLES["planted-failure"]
        [result] = report.results
        artifact = load_artifact(
            __import__("pathlib").Path(result.artifact_path)
        )
        assert artifact.trace, "failure artifact must carry a trace tail"
        assert len(artifact.trace) <= 50
        assert {"seq", "kind", "at"}.issubset(artifact.trace[0])

    def test_trace_tail_zero_disables_recording(self, tmp_path):
        from repro.testkit import load_artifact
        from repro.testkit import oracles as oracles_mod
        from repro.testkit.oracles import OracleVerdict
        from repro.testkit.runner import FuzzRunner

        def planted_failure(context):
            context.shared
            return OracleVerdict(
                oracle="planted-failure", ok=False, detail="planted"
            )

        oracles_mod.ORACLES["planted-failure"] = planted_failure
        try:
            runner = FuzzRunner(
                oracle_names=["planted-failure"],
                artifacts_dir=tmp_path,
                shrink_failures=False,
                trace_tail=0,
            )
            report = runner.run(seed=3, cases=1)
        finally:
            del oracles_mod.ORACLES["planted-failure"]
        [result] = report.results
        artifact = load_artifact(
            __import__("pathlib").Path(result.artifact_path)
        )
        assert artifact.trace == []

    def test_schema_one_artifacts_still_load(self, tmp_path):
        from repro.testkit import load_artifact
        from repro.testkit.case import FuzzCase

        plan_dict = FuzzCase(seed=1).to_dict()
        data = {
            "schema": 1,
            "oracle": "snapshot-consistency",
            "expect": "pass",
            "case": plan_dict,
            "events": [],
            "probe_times": [],
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        artifact = load_artifact(path)
        assert artifact.trace == []

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 99}))
        from repro.testkit import load_artifact

        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)
